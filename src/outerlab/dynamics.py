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

import math
from bisect import bisect_right
from dataclasses import dataclass, field
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

    def __post_init__(self):
        if self.kind not in ("polygon", "smooth"):
            raise InputError(f"unknown curve kind {self.kind!r}")
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3:
            raise InputError("curve needs at least 3 plane points")
        if not np.all(np.isfinite(p)):
            raise InputError("curve points must be finite")
        # A NaN cross product would pass the convexity test below, so
        # products that overflow reject the curve instead.
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.roll(p, -1, axis=0) - p
            e_next = np.roll(e, -1, axis=0)
            cross = det2(e, e_next)
            dot = inner2(e, e_next)
        if not (np.all(np.isfinite(cross)) and np.all(np.isfinite(dot))):
            raise InputError("curve is too large: its edge products overflow")
        if np.any(cross <= 0):
            # Products of tiny edges underflow to 0.  Scaled by a power of
            # two, which rounds nothing, the edges tell such a curve from a
            # flat or reflex one.
            es = np.ldexp(e, -np.frexp(np.max(np.abs(e)))[1])
            if np.all(det2(es, np.roll(es, -1, axis=0)) > 0):
                raise InputError("curve is too small: its edge products underflow")
            raise InputError("curve must be strictly convex and counterclockwise")
        # Each turn lies in (0, pi), so the total turning is a whole number
        # of revolutions up to round-off: a star polygon or a boundary
        # sampled twice round turns at least twice.
        if np.arctan2(cross, dot).sum() > 3.0 * np.pi:
            raise InputError("curve must wind exactly once around its interior")
        object.__setattr__(self, "points", p)
        if not self.diameter * self.diameter < np.inf:
            raise InputError("curve is too large: its squared diameter overflows")
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
        return ConvexCurve(kind="polygon", points=np.asarray(vertices, dtype=float))

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
    def centroid_xy(self) -> tuple[float, float]:
        """The centroid as Python floats, for the O(log n) steps."""
        return tuple(self.centroid.tolist())

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
    def column_lists(self) -> tuple[list[float], ...]:
        """The columns as Python float lists: the O(log n) steps read a few
        entries, where numpy's per-call cost would dominate."""
        return tuple(c.tolist() for c in self.columns)

    @cached_property
    def sight_angles(self) -> Optional[tuple[list[float], int]]:
        """The samples' polar angles about the centroid, rotated to ascend,
        and the index of the sample with the smallest; None unless every
        tangent lies strictly between its two chords (det(e_{k-1}, t_k) > 0
        and det(t_k, e_k) > 0), the premise of the smooth step's binary
        search (see _sight_run)."""
        if self.tangents is None:
            return None
        e, t = self.edges, self.tangents
        if not (np.all(det2(np.roll(e, 1, axis=0), t) > 0.0) and np.all(det2(t, e) > 0.0)):
            return None
        ang = np.arctan2(self.points[:, 1] - self.centroid[1], self.points[:, 0] - self.centroid[0])
        first = int(np.argmin(ang))
        return np.roll(ang, -first).tolist(), first

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
        q = np.asarray(q, dtype=float)
        qx, qy = q[..., 0, None], q[..., 1, None]
        px, py, ex, ey = self.columns[:4]
        tt = np.clip(((qx - px) * ex + (qy - py) * ey) / self.edge_len2, 0.0, 1.0)
        dist = np.min(np.hypot(qx - (px + tt * ex), qy - (py + tt * ey)), axis=-1)
        return float(dist) if dist.ndim == 0 else dist


@dataclass(frozen=True, eq=False)
class OrbitRecord:
    """Forward orbit data: points[k+1] = F(points[k]).

    period is the smallest certified n with |F^n(z0) - z0| < tol, or None;
    winding is taken from the closed orbit polygon when it is available.
    ``polygon`` keeps that orbit polygon for :func:`orbit_polygon`; it is
    not part of the record's comparison, repr or JSON form.
    """

    start: np.ndarray
    points: np.ndarray
    period: Optional[int]
    winding: Optional[int]
    closure_residual: float
    singular_flag: bool
    polygon: Optional[OrbitPolygon] = field(default=None, compare=False, repr=False)


def _sides(curve: ConvexCurve, zx: float, zy: float) -> tuple[np.ndarray, ...]:
    """z - points and the edge sides of z, as in curve.sides; raises
    InsideCurve unless a side is below curve.inside_tol."""
    px, py, ex, ey = curve.columns[:4]
    ux, uy = px - zx, py - zy
    # The bits of curve.sides: IEEE subtraction and multiplication are
    # exact under sign flips.
    side = ey * ux - ex * uy
    if side.min() >= curve.inside_tol:
        raise InsideCurve("the outer map needs a point strictly outside the curve")
    return ux, uy, side


def _support_polygon(
    curve: ConvexCurve, zx: float, zy: float, far: int
) -> tuple[float, float, float, int]:
    """Support vertex (qx, qy) of z, its tie margin and its index.

    The edges that face z (side < 0) form one chain, from the far tangent
    vertex of z to the support vertex: the edge before the support vertex
    faces z, its own edge does not.  A hint far >= 0 claims that vertex far
    opens the chain.  After a step z' = 2 v - z through the support vertex
    v of z, v opens the chain of z': z' lies on the support line of z, and
    in exact arithmetic side_{v-1}(z') = -side_{v-1}(z) > 0 and
    side_v(z') = -side_v(z) < 0.  Two sign tests, with the bits of
    curve.sides, check the hint.  Between edge far (faces z) and edge
    far - 1 + n (does not) the facing flag then changes once, so a binary
    search finds the end of the chain in about log2 n sides, in Python
    floats.  It trusts convexity for the single chain that the full pass
    checks.  A hinted step is outside the curve once a side it evaluated is
    below inside_tol.

    Seen from z the vertex angles rise along both chains from the support
    vertex b to the far vertex, all within pi of b's, and sin is concave on
    [0, pi]: the smallest |sine| against b is at b - 1, b + 1 or far, and
    only b's neighbours can tie with b.  The hinted step takes the sines of
    those three.  Each norm is abs(complex(ux, uy)), libm's hypot as in
    np.hypot (math.hypot rounds differently), so each sine has the bits of
    the full pass's; that pass could read a smaller minimum elsewhere only
    where two sines agree to rounding.

    The full pass, over every vertex with numpy, runs when there is no hint
    (an orbit's first step, tangency_point, outer_map), when the hint fails
    and when no evaluated side is below inside_tol.  It requires exactly one
    chain and takes the sines of every vertex.
    """
    px, py, ex, ey = curve.column_lists[:4]
    n = len(px)
    if far >= 0:
        tol = curve.inside_tol
        j = far - 1
        before = ey[j] * (px[j] - zx) - ex[j] * (py[j] - zy)
        side = ey[far] * (px[far] - zx) - ex[far] * (py[far] - zy)
        if before >= 0.0 > side:
            outside = side < tol
            lo, hi = far, far - 1 + n
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                j = mid - n if mid >= n else mid
                side = ey[j] * (px[j] - zx) - ex[j] * (py[j] - zy)
                if side < 0.0:
                    lo = mid
                    if side < tol:
                        outside = True
                else:
                    hi = mid
            if outside:
                best = hi - n if hi >= n else hi
                bx, by = px[best] - zx, py[best] - zy
                hb = abs(complex(bx, by))
                margin = math.inf
                for j in (best - 1, best + 1 - n, far):
                    ux, uy = px[j] - zx, py[j] - zy
                    sine = (bx * uy - by * ux) / (abs(complex(ux, uy)) * hb)
                    if sine < -SINGULAR_ABORT:
                        raise SingularLine("no single clockwise-most vertex; z sees a tie")
                    sine = abs(sine)
                    if sine < margin:
                        margin = sine
                return px[best], py[best], margin, best
    ux, uy, side = _sides(curve, zx, zy)
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
    return px[best], py[best], margin, best


def _sight_root(a, b, ta, tb, zx: float, zy: float, ga: float, gb: float) -> tuple[float, float]:
    """Root of the sight function on the chord a-b, in closed form.

    a, b, ta, tb are (x, y) float pairs; ga and gb, of opposite signs, are
    the sight function at a and b.  Along q(s) = (1 - s) a + s b, with the
    tangent interpolated linearly, the sight function is the Bernstein
    quadratic ga (1 - s)^2 + m s (1 - s) + gb s^2, where
    m = det(a - z, tb) + det(b - z, ta).  With t = s / (1 - s) the root is
    the one positive root of ga + m t + gb t^2 (the roots' product ga / gb
    is negative).  Its discriminant m^2 - 4 ga gb exceeds m^2, so nothing
    cancels, and with q = -(m + sign(m) sqrt(disc)) / 2 the roots are q / gb
    and ga / q.  The positive one gives s = q / (q + gb) or ga / (ga + q), a
    quotient of two terms of one sign, so s stays in [0, 1] after rounding.
    ga, gb and m are first divided by the largest of their magnitudes, so
    that neither the square nor the product overflows or underflows.  The
    returned point a + s (b - a) lies within 2 ulp of max |coordinate| of a
    and b of the point at the exact root.
    """
    (ax, ay), (bx, by), (tax, tay), (tbx, tby) = a, b, ta, tb
    m = ((ax - zx) * tby - (ay - zy) * tbx) + ((bx - zx) * tay - (by - zy) * tax)
    k = max(abs(ga), abs(gb), abs(m))
    ua, ub, um = ga / k, gb / k, m / k
    r = math.sqrt(um * um - 4.0 * ua * ub)
    q = -0.5 * (um + r) if um >= 0.0 else 0.5 * (r - um)
    s = ua / (ua + q) if (q > 0.0) == (ga > 0.0) else q / (q + ub)
    return ax + s * (bx - ax), ay + s * (by - ay)


def _sight_run(curve: ConvexCurve, zx: float, zy: float) -> Optional[list[tuple]]:
    """The two ends of the sight function's negative run, found by binary
    search in Python floats, or None where the full pass must decide.

    g_k = det(p_k - z, t_k) is negative exactly where z lies strictly right
    of the line through p_k along t_k.  Where every tangent lies strictly
    between its two chords (curve.sight_angles is not None), that line
    supports the sample polygon, and its outward normal turns once round,
    strictly monotonically, as k goes round.  The directions that separate
    an exterior z from the polygon form an open arc shorter than pi, so
    {k : g_k < 0} is a single cyclic run.  Between a sample of negative g
    and one of positive g each end of the run is a single sign change, and
    two binary searches find both in about 2 log2 n evaluations of g, with
    the bits of the full pass's g.

    The ray centroid -> z crosses an edge that faces z; it is found by
    bisecting the samples' polar angles, and its side below inside_tol
    proves z outside, as the full pass's inside test would.  One end sample
    of that edge starts the searches with g < 0, and the sample at the
    opposite polar angle with g > 0.  None is returned when the premise
    fails, when that side is not below inside_tol, when a start sample has
    the wrong sign, and when a bracket ends on a sample where g == 0 (the
    full pass then brackets the crossing across the zeros).  Like the
    polygon step, this trusts the single run that the full pass checks.

    The brackets come as (k, k + 1, g_k, g_{k+1}) in increasing k, the
    full pass's order.
    """
    index = curve.sight_angles
    if index is None:
        return None
    ang, first = index
    px, py, ex, ey, tx, ty = curve.column_lists
    n = len(px)
    cx, cy = curve.centroid_xy
    th = math.atan2(zy - cy, zx - cx)
    j = (bisect_right(ang, th) - 1 + first) % n
    if not ey[j] * (px[j] - zx) - ex[j] * (py[j] - zy) < curve.inside_tol:
        return None
    a = j
    ga = (px[a] - zx) * ty[a] - (py[a] - zy) * tx[a]
    if not ga < 0.0:
        a = (j + 1) % n
        ga = (px[a] - zx) * ty[a] - (py[a] - zy) * tx[a]
        if not ga < 0.0:
            return None
    o = (bisect_right(ang, th - math.pi if th > 0.0 else th + math.pi) - 1 + first) % n
    go = (px[o] - zx) * ty[o] - (py[o] - zy) * tx[o]
    if not go > 0.0:
        return None
    brackets = []
    for lo, hi, glo, ghi in ((a, o, ga, go), (o, a, go, ga)):
        neg = glo < 0.0
        if hi < lo:
            lo -= n
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            g = (px[mid] - zx) * ty[mid] - (py[mid] - zy) * tx[mid]
            if (g < 0.0) == neg:
                lo, glo = mid, g
            else:
                hi, ghi = mid, g
        if glo == 0.0 or ghi == 0.0:
            return None
        brackets.append((lo % n, hi % n, glo, ghi))
    brackets.sort()
    return brackets


def _sight_flips(curve: ConvexCurve, zx: float, zy: float) -> list[tuple]:
    """The brackets of the sight function's two sign changes, by a numpy
    pass over every sample: (k, k2, g_k, g_k2) in increasing k, where k2 is
    the next sample with g != 0.  Raises InsideCurve as _sides does, and
    SingularLine unless the sign changes exactly twice."""
    ux, uy, _ = _sides(curve, zx, zy)
    tx, ty = curve.columns[4:]
    n = len(ux)
    g = ux * ty - uy * tx
    pos = g > 0
    nzi = None
    if np.count_nonzero(g) < n:
        # Exact zeros at samples are regular tangencies, not extra
        # crossings: count sign changes over the nonzero samples only.
        nzi = g.nonzero()[0]
        if nzi.size < 2:
            raise SingularLine("sight function vanishes along the whole boundary")
        pos = pos[nzi]
    flips = (pos[1:] != pos[:-1]).nonzero()[0].tolist()
    if pos[-1] != pos[0]:
        flips.append(len(pos) - 1)
    if len(flips) != 2:
        raise SingularLine("tangency condition is not a pair of simple roots")
    if nzi is None:
        ends = [(f, (f + 1) % n) for f in flips]
    else:
        ends = [(int(nzi[f]), int(nzi[(f + 1) % nzi.size])) for f in flips]
    return [(k, k2, float(g[k]), float(g[k2])) for k, k2 in ends]


def _margin_walk(
    curve: ConvexCurve, zx: float, zy: float, qx: float, qy: float,
    start: int, step: int, limit: int,
) -> tuple[float, int]:
    """The smallest |sine| against z -> q over the samples start,
    start + step, ... that lie ahead of z (u.uc > 0) and farther than reach
    from q, and the number of samples read.  The walk stops after its first
    far sample whose sine is >= 0, or after limit samples; inf when no
    sample counted.  Each sine has the bits of a numpy pass over the
    samples: abs(complex(x, y)) is libm's hypot, as np.hypot is."""
    px, py = curve.column_lists[:2]
    ucx, ucy = qx - zx, qy - zy
    huc = abs(complex(ucx, ucy))
    reach = 2.0 * curve.diameter / len(px) * 4.0
    margin = math.inf
    read = 0
    for i in range(start, start + step * limit, step):
        read += 1
        x, y = px[i], py[i]
        if abs(complex(x - qx, y - qy)) > reach:
            vx, vy = x - zx, y - zy
            num = ucx * vy - ucy * vx
            if vx * ucx + vy * ucy > 0.0:
                sine = abs(num / (huc * abs(complex(vx, vy))))
                if sine < margin:
                    margin = sine
            if num >= 0.0:
                break
    return margin, read


def _support_smooth(
    curve: ConvexCurve, zx: float, zy: float, far: int = -1
) -> tuple[float, float, float, int]:
    """Support point (qx, qy) of z on a sampled smooth curve, its tie margin
    and -1, the signature of _support_polygon (far is not used).

    The sight function g_k = det(p_k - z, t_k) changes sign twice round the
    curve, and the support point is the root on one of its two brackets.
    Where every tangent lies strictly between its two chords, g < 0 on a
    single run of samples, and _sight_run finds the brackets at its ends by
    two binary searches.  The full pass of _sight_flips, over every sample,
    runs where that premise fails, and where _sight_run cannot decide: the
    edge toward z is not below inside_tol, a start sample has the wrong
    sign, or a bracket ends on a sample where g == 0.  Both give the same
    brackets in the same order, and the code below, the same for both,
    takes the root, the choice between the brackets and the margin."""
    brackets = _sight_run(curve, zx, zy)
    if brackets is None:
        brackets = _sight_flips(curve, zx, zy)
    px, py, _, _, tx, ty = curve.column_lists
    n = len(px)
    cx, cy = curve.centroid_xy
    ccx, ccy = cx - zx, cy - zy
    # A root is chosen when det(q - z, c - z) > 0.  That det is affine along
    # a chord, so at any chord point it is at most the larger of its
    # chord-end values.  The solved root is a + s (b - a), rounded, with s
    # in [0, 1] (_sight_root) whatever the error in s: a rounded convex
    # combination of the chord ends.  With M >= every |coordinate| of z and
    # the curve (a sample lies within a diameter of c), each computed det is
    # off by under 33 u M^2 (u = 2^-53), and the rounding moves it by under
    # 13 u M^2: a bracket whose ends both sit below -80 u M^2 cannot be
    # chosen, so its root is not solved.  The guard, 1e-13 M^2, is 11 times
    # that; a bracket with an end above it is solved as before.
    m = max(abs(zx), abs(zy), abs(cx), abs(cy)) + curve.diameter
    guard = -1e-13 * m * m
    chosen = None
    for k, k2, ga, gb in brackets:
        gap = (k2 - k) % n
        if gap > 1:
            # the crossing passes through sampled zeros; take their middle
            lo = hi = (k + gap // 2) % n
            qx, qy = px[lo], py[lo]
        else:
            a, b = (px[k], py[k]), (px[k2], py[k2])
            if max((a[0] - zx) * ccy - (a[1] - zy) * ccx,
                   (b[0] - zx) * ccy - (b[1] - zy) * ccx) < guard:
                continue
            lo, hi = k, k + 1
            qx, qy = _sight_root(a, b, (tx[k], ty[k]), (tx[k2], ty[k2]), zx, zy, ga, gb)
        if (qx - zx) * ccy - (qy - zy) * ccx > 0:
            chosen = qx, qy, lo, hi
    if chosen is None:
        raise SingularLine("no supporting point with the curve on the left")
    # Singularity margin: the smallest |sine| against z -> q over the
    # samples ahead of z (u.uc > 0) and farther than reach from q.  The
    # curve is a strictly convex polygon that winds once, so seen from z the
    # sample angle rises along both arcs from the polygon's own tangent
    # vertex T to the opposite one T', and a sine has the sign of the angle
    # from q.  Walking from q to T' along either side, the angle first falls
    # below q's, up to T if T is on that side, then rises.  A side's first far
    # sample with sine >= 0 is thus on the rising part (or its sine is 0),
    # and past it, up to T', |sine| only grows while samples are ahead, and
    # no sample is ahead again once one is not.  The two sides reach T' from
    # both ends, so the walk backward from lo and the walk forward from hi,
    # each up to its first far sample with sine >= 0 (a sine has the sign of
    # its numerator), hold the minimum of a whole-curve pass, bit for bit.
    # Between them they read at most the whole curve, once.
    qx, qy, lo, hi = chosen
    back, read = _margin_walk(curve, zx, zy, qx, qy, lo, -1, n)
    ahead, _ = _margin_walk(curve, zx, zy, qx, qy, hi - n, 1, n - read + 1 - (hi - lo))
    margin = min(back, ahead)
    return qx, qy, 1.0 if margin == math.inf else margin, -1


# The support step of each curve kind: (curve, zx, zy, far) -> (qx, qy,
# margin, far).
_SUPPORT = {"polygon": _support_polygon, "smooth": _support_smooth}
_TIED = "supporting line meets the curve in more than one point"


def _support_xy(
    curve: ConvexCurve, zx: float, zy: float, far: int = -1
) -> tuple[float, float, float, int]:
    """Support point (qx, qy) of the plane point (zx, zy), its margin, and
    on a polygon the index of the support vertex (-1 on a smooth curve).

    far is a polygon's hint for the far tangent vertex of z: the support
    vertex of the step before (see _support_polygon)."""
    qx, qy, margin, far = _SUPPORT[curve.kind](curve, zx, zy, far)
    if margin <= SINGULAR_ABORT:
        raise SingularLine(_TIED)
    return qx, qy, margin, far


def _support(curve: ConvexCurve, z: np.ndarray) -> tuple[np.ndarray, float]:
    qx, qy, margin, _ = _support_xy(curve, float(z[0]), float(z[1]))
    return np.array([qx, qy]), margin


def _plane_point(z) -> np.ndarray:
    """z as a float (2,) array, checked in plain floats; InputError unless
    it is one finite plane point.  A float64 array is taken as it is."""
    if not (type(z) is np.ndarray and z.dtype == np.float64):
        z = np.asarray(z, dtype=float)
    if z.shape != (2,) or not all(map(math.isfinite, z.tolist())):
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

    On a polygon the loop carries one integer, the support vertex of the
    step before: z_{k+1} = 2 v - z_k lies on the support line of z_k, so v
    is the far tangent vertex of z_{k+1}.  From that hint a step finds its
    support vertex by a binary search over the chain of edges that face
    z_{k+1}, and its margin from three vertices, in O(log n) plain floats
    (see _support_polygon).  Only the first step, or a step whose hint
    fails, takes the full pass over every vertex.

    On a sampled smooth curve the map is that of its surrogate: the chords
    between samples, with tangents interpolated along each chord.  Its
    support point on a chord is the root of a quadratic, solved in closed
    form to within 2 ulp of the chord's coordinates.  Where every tangent
    lies strictly between its two chords, the samples where z lies right of
    the tangent line form one run, and a step finds the chords at its two
    ends by binary search and its margin by two short walks, in O(log n)
    plain floats (see _sight_run and _support_smooth); elsewhere, and where
    that search cannot decide, the step takes the full pass over every
    sample.  A certified period there certifies a periodic orbit of the
    surrogate, not of the smooth curve.  The surrogate's one-step error is
    O(N^-2) in the number N of samples (on the unit circle about 2.4e-4 at
    N = 256 and 3.9e-6 at N = 2048), far above the default tol of
    1e-9 * diameter.
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
    far = -1
    support = _SUPPORT[curve.kind]
    for k in range(1, steps + 1):
        try:
            qx, qy, margin, far = support(curve, zx, zy, far)
            if margin <= SINGULAR_ABORT:
                raise SingularLine(_TIED)
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
                qx, qy, _, _ = _support_xy(curve, zx, zy, far)
            except SingularLine as exc:
                raise SingularOrbit(k, str(exc)) from exc
            x1, y1 = pts[1]
            if np.hypot(2.0 * qx - zx - x1, 2.0 * qy - zy - y1) < 2.0 * tol:
                period = k
                closure = resid
                break
    poly = None
    if period is not None and period >= 3:
        try:
            poly = derive_orbit_polygon(np.asarray(pts[:period]))
        except DegeneratePolygon:
            poly = None
    return OrbitRecord(
        start=z0,
        points=np.asarray(pts),
        period=period,
        winding=None if poly is None else poly.winding,
        closure_residual=closure,
        singular_flag=flagged,
        polygon=poly,
    )


def orbit_polygon(rec: OrbitRecord, curve: ConvexCurve | None = None) -> OrbitPolygon:
    """The certified periodic orbit as an orbit polygon.

    When the curve is supplied, every edge midpoint is checked to lie on the
    boundary (within 1e-10 * diameter) and local convexity is enforced; these
    hold by construction for genuine orbits.  The polygon that
    :func:`iterate` derived for the winding is reused; a record built by hand
    has its polygon derived here.
    """
    if rec.period is None:
        raise NotPeriodic("record carries no certified period")
    poly = rec.polygon
    if poly is None:
        poly = derive_orbit_polygon(rec.points[: rec.period])
    if curve is not None:
        t = 1e-10 * curve.diameter
        worst = float(np.max(curve.distance_to_boundary(poly.rbar)))
        if worst > t:
            raise ValidationFailed(
                f"orbit midpoint leaves the curve by {worst:.3e} (tol {t:.3e})"
            )
        poly.require_locally_convex()
    return poly
