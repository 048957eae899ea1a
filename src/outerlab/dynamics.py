"""The outer billiard map around a convex curve.

A point z strictly outside the curve determines a supporting line through a
boundary point p, oriented so the curve lies on the LEFT of the ray from z
through p; the map reflects z through p.  The map is undefined on supporting
lines that meet the boundary in more than one point (the singular set):
iteration aborts there rather than choosing arbitrarily.

Curves are either polygons (vertex support, corners everywhere) or densely
sampled smooth boundaries with tangents; the smooth representation is
resolution-limited and documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegeneratePolygon,
    InputError,
    InsideCurve,
    NotPeriodic,
    SingularLine,
    SingularOrbit,
    ValidationFailed,
)
from .geometry import OrbitPolygon, derive_orbit_polygon, det2, inner2

# Normalized-sine thresholds on supporting-line ties.
SINGULAR_ABORT = 1e-10
SINGULAR_FLAG = 1e-8


@dataclass(frozen=True, eq=False)
class ConvexCurve:
    """A strictly convex closed curve, counterclockwise.

    kind is "polygon" (points are the vertices; every vertex is a corner) or
    "smooth" (points sample the boundary densely; tangents are unit vectors,
    computed by central differences when not supplied).
    """

    kind: str
    points: np.ndarray
    tangents: Optional[np.ndarray] = None
    corners: tuple[int, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3:
            raise InputError("curve needs at least 3 plane points")
        if not np.all(np.isfinite(p)):
            raise InputError("curve points must be finite")
        e = np.roll(p, -1, axis=0) - p
        e_next = np.roll(e, -1, axis=0)
        cross = det2(e, e_next)
        if np.any(cross <= 0):
            raise InputError("curve must be strictly convex and counterclockwise")
        # Each turn lies in (0, pi), so the total turning is a whole number
        # of revolutions up to round-off: a star polygon or a boundary
        # sampled twice round turns at least twice.
        if np.arctan2(cross, inner2(e, e_next)).sum() > 3.0 * np.pi:
            raise InputError("curve must wind exactly once around its interior")
        object.__setattr__(self, "points", p)
        if self.kind == "smooth" and self.tangents is None:
            t = np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0)
        elif self.tangents is not None:
            t = np.asarray(self.tangents, dtype=float)
            if t.shape != p.shape:
                raise InputError("tangents must match points in shape")
        else:
            return
        norm = np.hypot(t[:, 0], t[:, 1])
        if not np.all((norm > 0.0) & (norm < np.inf)):
            raise InputError("tangents must be finite and nonzero")
        object.__setattr__(self, "tangents", t / norm[:, None])

    @staticmethod
    def polygon(vertices: Sequence) -> "ConvexCurve":
        v = np.asarray(vertices, dtype=float)
        return ConvexCurve(kind="polygon", points=v, corners=tuple(range(len(v))))

    @staticmethod
    def smooth(points: Sequence, tangents: Sequence | None = None) -> "ConvexCurve":
        t = None if tangents is None else np.asarray(tangents, dtype=float)
        return ConvexCurve(kind="smooth", points=np.asarray(points, dtype=float), tangents=t)

    @staticmethod
    def circle(radius: float = 1.0, center=(0.0, 0.0), samples: int = 2048) -> "ConvexCurve":
        th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        c = np.asarray(center, dtype=float)
        pts = c + radius * np.column_stack([np.cos(th), np.sin(th)])
        tan = np.column_stack([-np.sin(th), np.cos(th)])
        return ConvexCurve.smooth(pts, tan)

    # Derived data, computed once: the curve is frozen.

    @cached_property
    def edges(self) -> np.ndarray:
        """edges[k] = points[k + 1] - points[k], cyclically."""
        return np.roll(self.points, -1, axis=0) - self.points

    @cached_property
    def edge_len2(self) -> np.ndarray:
        """Squared edge lengths."""
        return np.sum(self.edges * self.edges, axis=1)

    @cached_property
    def centroid(self) -> np.ndarray:
        return np.mean(self.points, axis=0)

    @cached_property
    def diameter(self) -> float:
        p = self.points
        lo, hi = np.min(p, axis=0), np.max(p, axis=0)
        return float(np.hypot(*(hi - lo)))

    @cached_property
    def inside_tol(self) -> float:
        """Edge sides at or above this value count as inside (see contains)."""
        return -1e-12 * self.diameter**2

    @cached_property
    def point_list(self) -> tuple[tuple[float, float], ...]:
        """points as Python float pairs."""
        return tuple(map(tuple, self.points.tolist()))

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Contiguous x and y columns of points, edges and (smooth) tangents.

        Strided p[:, 0] views slow numpy's inner loops (sides at 2048
        samples: about 13 -> 9.5 us)."""
        arrays = (self.points, self.edges) + (() if self.tangents is None else (self.tangents,))
        return tuple(np.ascontiguousarray(a[:, j]) for a in arrays for j in (0, 1))

    def sides(self, z) -> np.ndarray:
        """det(edge_k, z - points_k): negative where edge k faces z."""
        px, py, ex, ey = self.columns[:4]
        return ex * (z[1] - py) - ey * (z[0] - px)

    def contains(self, z) -> bool:
        """True when z is inside or on the boundary (the map needs outside)."""
        return bool(np.all(self.sides(np.asarray(z, dtype=float)) >= self.inside_tol))

    def distance_to_boundary(self, q) -> float | np.ndarray:
        """Distance from q to the sampled boundary (segment-accurate).

        q is one point (returns a float) or an array of points with the
        last axis of length 2 (returns an array of q.shape[:-1]).
        """
        q = np.asarray(q, dtype=float)[..., None, :]
        a = self.points
        ab = self.edges
        tt = np.clip(np.sum((q - a) * ab, axis=-1) / self.edge_len2, 0.0, 1.0)
        proj = a + tt[..., None] * ab
        r = q - proj
        dist = np.min(np.hypot(r[..., 0], r[..., 1]), axis=-1)
        return float(dist) if dist.ndim == 0 else dist


@dataclass(frozen=True, eq=False)
class OrbitRecord:
    """Forward orbit data: points[k+1] = F(points[k]).

    period is the smallest certified n with |F^n(z0) - z0| < tol, or None;
    winding is taken from the closed orbit polygon when it is available.
    """

    start: np.ndarray
    points: np.ndarray
    period: Optional[int]
    winding: Optional[int]
    closure_residual: float
    singular_flag: bool


def _support_polygon(
    curve: ConvexCurve, ux: np.ndarray, uy: np.ndarray, side: np.ndarray
) -> tuple[tuple[float, float], float]:
    # The support vertex closes the chain of edges that face z: the edge
    # before it faces z (side < 0), its own edge does not.
    faces = side < 0.0
    turn = (faces[:-1] > faces[1:]).nonzero()[0]
    wrap = bool(faces[-1] and not faces[0])
    if len(turn) + wrap != 1:
        raise SingularLine("no single clockwise-most vertex; z sees a tie")
    best = 0 if wrap else int(turn[0]) + 1
    # Certify and measure the tie margin against every other vertex.
    bx, by = float(ux[best]), float(uy[best])
    hyp = np.hypot(ux, uy)
    sines = (bx * uy - by * ux) / (hyp * hyp[best])
    sines[best] = np.inf
    margin = float(np.abs(sines).min())
    if sines.min() < -SINGULAR_ABORT:
        raise SingularLine("no single clockwise-most vertex; z sees a tie")
    return curve.point_list[best], margin


def _bisect_crossing(a, b, ta, tb, zx: float, zy: float, ga: float) -> tuple[float, float]:
    """Root of the sight function on the chord a-b, by at most 60 halvings.

    a, b, ta, tb are (x, y) float pairs; the tangent is interpolated
    linearly along the chord, and ga is the sight function at a.  The
    operations and their order are those of the array form the tests keep
    as reference, so the root keeps its bits.  The loop stops early once
    mid rounds to lo or hi: the side it compares against (ga > 0) is
    fixed, so from then on every halving repeats the same step, and after
    all 60 of them the root is that same mid.
    """
    (ax, ay), (bx, by), (tax, tay), (tbx, tby) = a, b, ta, tb
    pos = ga > 0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        w = 1 - mid
        qx = w * ax + mid * bx
        qy = w * ay + mid * by
        gm = (qx - zx) * (w * tay + mid * tby) - (qy - zy) * (w * tax + mid * tbx)
        if (gm > 0) == pos:
            lo = mid
        else:
            hi = mid
    else:
        mid = 0.5 * (lo + hi)
    return (1 - mid) * ax + mid * bx, (1 - mid) * ay + mid * by


def _support_smooth(
    curve: ConvexCurve, zx: float, zy: float, ux: np.ndarray, uy: np.ndarray
) -> tuple[tuple[float, float], float]:
    p, t = curve.points, curve.tangents
    px, py, _, _, tx, ty = curve.columns
    n = len(p)
    g = ux * ty - uy * tx
    pos = g > 0
    nzi = None
    if np.count_nonzero(g) < n:
        # Exact zeros at samples are regular tangencies, not extra
        # crossings: count sign changes over the nonzero samples only.
        nzi = np.flatnonzero(g)
        if nzi.size < 2:
            raise SingularLine("sight function vanishes along the whole boundary")
        pos = pos[nzi]
    flips = np.flatnonzero(pos[1:] != pos[:-1]).tolist()
    if pos[-1] != pos[0]:
        flips.append(len(pos) - 1)
    if len(flips) != 2:
        raise SingularLine("tangency condition is not a pair of simple roots")
    cx, cy = curve.centroid.tolist()
    ccx, ccy = cx - zx, cy - zy
    # A root is chosen when det(q - z, c - z) > 0.  That det is affine along
    # a chord, so at a root it is at most the larger of its chord-end values.
    # With M >= every |coordinate| of z and the curve (a sample lies within
    # a diameter of c), each computed det is off by under 33 u M^2
    # (u = 2^-53), and rounding the bisected point moves it by under
    # 13 u M^2: a bracket whose ends both sit below -80 u M^2 cannot be
    # chosen, so it is not bisected.  The guard, 1e-13 M^2, is 11 times
    # that; a bracket with an end above it is bisected as before.
    m = max(abs(zx), abs(zy), abs(cx), abs(cy)) + curve.diameter
    guard = -1e-13 * m * m
    chosen = None
    for f in flips:
        k, k2 = (f, (f + 1) % n) if nzi is None else (int(nzi[f]), int(nzi[(f + 1) % nzi.size]))
        gap = (k2 - k) % n
        if gap > 1:
            # the crossing passes through sampled zeros; take their middle
            qx, qy = p[(k + gap // 2) % n].tolist()
        else:
            a, b = p[k].tolist(), p[k2].tolist()
            if max((a[0] - zx) * ccy - (a[1] - zy) * ccx,
                   (b[0] - zx) * ccy - (b[1] - zy) * ccx) < guard:
                continue
            qx, qy = _bisect_crossing(a, b, t[k].tolist(), t[k2].tolist(), zx, zy, float(g[k]))
        if (qx - zx) * ccy - (qy - zy) * ccx > 0:
            chosen = qx, qy
    if chosen is None:
        raise SingularLine("no supporting point with the curve on the left")
    # Singularity margin: the smallest sine over the samples ahead of z
    # and away from the support point.  A rounded hypot is never below
    # max(|dx|, |dy|), so only samples within reach by that test need it.
    qx, qy = chosen
    ucx, ucy = qx - zx, qy - zy
    reach = 2.0 * curve.diameter / n * 4.0
    dx, dy = px - qx, py - qy
    far = np.maximum(np.abs(dx), np.abs(dy)) > reach
    near = np.flatnonzero(~far)
    far[near] = np.hypot(dx[near], dy[near]) > reach
    use = np.flatnonzero(far & (ux * ucx + uy * ucy > 0))
    margin = 1.0
    if use.size:
        vx, vy = ux[use], uy[use]
        sines = (ucx * vy - ucy * vx) / (np.hypot(ucx, ucy) * np.hypot(vx, vy))
        margin = float(np.min(np.abs(sines)))
    return chosen, margin


def _support_xy(curve: ConvexCurve, zx: float, zy: float) -> tuple[float, float, float]:
    """Support point (qx, qy) of the plane point (zx, zy), and its margin."""
    px, py, ex, ey = curve.columns[:4]
    ux, uy = px - zx, py - zy
    # The bits of curve.sides: IEEE subtraction and multiplication are
    # exact under sign flips.
    side = ey * ux - ex * uy
    if side.min() >= curve.inside_tol:
        raise InsideCurve("the outer map needs a point strictly outside the curve")
    if curve.kind == "polygon":
        (qx, qy), margin = _support_polygon(curve, ux, uy, side)
    else:
        (qx, qy), margin = _support_smooth(curve, zx, zy, ux, uy)
    if margin <= SINGULAR_ABORT:
        raise SingularLine("supporting line meets the curve in more than one point")
    return qx, qy, margin


def _support(curve: ConvexCurve, z: np.ndarray) -> tuple[np.ndarray, float]:
    qx, qy, margin = _support_xy(curve, float(z[0]), float(z[1]))
    return np.array([qx, qy]), margin


def _plane_point(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (2,) or not np.isfinite(z).all():
        raise InputError("z must be one finite plane point")
    return z


def tangency_point(curve: ConvexCurve, z) -> np.ndarray:
    """The support point p with the curve on the left of the ray z -> p."""
    p, _ = _support(curve, _plane_point(z))
    return p


def outer_map(curve: ConvexCurve, z) -> np.ndarray:
    """F(z) = 2 p - z, the reflection of z through its support point."""
    z = _plane_point(z)
    p, _ = _support(curve, z)
    return 2.0 * p - z


def iterate(
    curve: ConvexCurve, z0, steps: int, tol: float | None = None
) -> OrbitRecord:
    """Iterate the outer map, certifying the smallest period found.

    A period candidate k (|z_k - z0| < tol) is certified by one more map
    application: F(z_k) must land within 2 tol of z_1; tol (default
    1e-9 * diameter) must be finite and positive.  The singular flag is
    set when any supporting line came within a normalized sine of 1e-8 of a
    second boundary contact; closer than 1e-10 aborts with SingularOrbit.

    On a sampled smooth curve the map is that of its surrogate: the chords
    between samples, with tangents interpolated along each chord.  A
    certified period there certifies a periodic orbit of the surrogate, not
    of the smooth curve.  The surrogate's one-step error is O(N^-2) in the
    number N of samples (on the unit circle about 2.4e-4 at N = 256 and
    3.9e-6 at N = 2048), far above the default tol of 1e-9 * diameter.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    z0 = _plane_point(z0)
    if tol is None:
        tol = 1e-9 * curve.diameter
    if not 0.0 < tol < np.inf:
        raise InputError("period tolerance must be finite and > 0")
    x0, y0 = zx, zy = z0.tolist()
    pts = [(zx, zy)]
    flagged = False
    period = None
    closure = np.inf
    for k in range(1, steps + 1):
        try:
            qx, qy, margin = _support_xy(curve, zx, zy)
        except SingularLine as exc:
            raise SingularOrbit(k - 1, str(exc)) from exc
        if margin < SINGULAR_FLAG:
            flagged = True
        zx, zy = 2.0 * qx - zx, 2.0 * qy - zy
        pts.append((zx, zy))
        # Period 2 is impossible: the two tangent lines from an exterior
        # point are distinct, so the smallest admissible period is 3.  A
        # rounded hypot is never below max(|dx|, |dy|), so it is taken
        # only when both are below tol.
        dx, dy = zx - x0, zy - y0
        if k < 3 or abs(dx) >= tol or abs(dy) >= tol:
            continue
        resid = float(np.hypot(dx, dy))
        if resid < tol:
            try:
                qx, qy, _ = _support_xy(curve, zx, zy)
            except SingularLine as exc:
                raise SingularOrbit(k, str(exc)) from exc
            x1, y1 = pts[1]
            if np.hypot(2.0 * qx - zx - x1, 2.0 * qy - zy - y1) < 2.0 * tol:
                period = k
                closure = resid
                break
    winding = None
    if period is not None and period >= 3:
        try:
            winding = derive_orbit_polygon(np.asarray(pts[:period])).winding
        except DegeneratePolygon:
            winding = None
    return OrbitRecord(
        start=z0,
        points=np.asarray(pts),
        period=period,
        winding=winding,
        closure_residual=closure,
        singular_flag=flagged,
    )


def orbit_polygon(
    rec: OrbitRecord, curve: ConvexCurve | None = None, tol: float | None = None
) -> OrbitPolygon:
    """The certified periodic orbit as an orbit polygon.

    When the curve is supplied, every edge midpoint is checked to lie on the
    boundary (within tol, default 1e-10 * diameter) and local convexity is
    enforced; these hold by construction for genuine orbits.
    """
    if rec.period is None:
        raise NotPeriodic("record carries no certified period")
    poly = derive_orbit_polygon(rec.points[: rec.period])
    if curve is not None:
        t = 1e-10 * curve.diameter if tol is None else tol
        worst = float(np.max(curve.distance_to_boundary(poly.rbar)))
        if worst > t:
            raise ValidationFailed(
                f"orbit midpoint leaves the curve by {worst:.3e} (tol {t:.3e})"
            )
        poly.require_locally_convex()
    return poly
