"""Planar primitives and cyclic derived data of closed polygons.

The whole laboratory works with one derived bundle per polygon: half-edge
vectors, their midpoints, local triangle areas, the skip-one determinants,
interior/exterior angles and the turning (winding) number.  Everything else
in the package consumes these arrays, so they are computed once, here, and
frozen.

Index convention: all arrays are 0-based and cyclic, aligned so that entry
``i`` of ``delta`` is the determinant of half-edges ``i-1`` and ``i``
(indices mod n).  Angles live at the shared vertex of those two half-edges.

The bundle is derived in numpy for a stack of polygons, a single polygon
included (``derive_orbit_polygons``): its cost is the number of array calls,
not their size, so the neighbours are cyclic slices and the determinants are
written on x and y columns.  The result stays a stack (``PolygonStack``),
whose consumers read its columns; a polygon object is made only for a row
that a caller reads.  Code that reads a few entries of one polygon, such as
the one-polygon classification in ``elements``, converts the arrays to
Python floats first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePolygon, NotLocallyConvex, WrongPeriod

# Accept a turning sum as a winding number only this close to an integer.
WINDING_TOL = 1e-9

# The largest vertex coordinate accepted.  Half-edge coordinates are then at
# most 2^511 in size, so the determinants and inner products of two of them,
# at most 2^1023, cannot overflow.
MAX_COORDINATE = 2.0**511


def det2(u, v):
    """2x2 determinant det(u, v) = u_x v_y - u_y v_x.

    Accepts single vectors or arrays of vectors (last axis = 2) and
    broadcasts like the underlying numpy expression.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def inner2(u, v):
    """Standard inner product on the plane, broadcasting over vector arrays."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


@dataclass(frozen=True, eq=False)
class OrbitPolygon:
    """A closed polygon with derived cyclic data.

    Fields
    ------
    vertices : (n, 2) array, the cyclic vertex list z_i
    r        : (n, 2) array, half-edge vectors r_i = (z_i - z_{i+1}) / 2
    rbar     : (n, 2) array, edge midpoints (z_i + z_{i+1}) / 2
    s        : (n,) array, half-edge lengths |r_i| > 0
    delta    : (n,) array, local areas det(r_{i-1}, r_i)
    dvec     : (n,) array, skip determinants det(r_{i-1}, r_{i+1})
    alpha    : (n,) array, interior angles at z_i
    exterior : (n,) array, signed turning angles in (-pi, pi)
    winding  : int, total turning / 2 pi
    locally_convex : bool, True when every delta entry clears the area floor

    Raw polygons (not locally convex) are allowed; operations that need
    positivity call :meth:`require_locally_convex` first.
    """

    vertices: np.ndarray
    r: np.ndarray
    rbar: np.ndarray
    s: np.ndarray
    delta: np.ndarray
    dvec: np.ndarray
    alpha: np.ndarray
    exterior: np.ndarray
    winding: int
    locally_convex: bool

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def scale(self) -> float:
        """Length scale of the polygon: the largest half-edge length, computed
        once (frozen polygon), or filled in by :func:`derive_orbit_polygons`."""
        return float(self.s.max())

    def require_locally_convex(self) -> "OrbitPolygon":
        if not self.locally_convex:
            raise NotLocallyConvex(
                "operation needs all local areas positive; "
                f"min(delta) = {float(np.min(self.delta)):.3e}"
            )
        return self

    @property
    def is_admissible(self) -> bool:
        """Locally convex with winding m satisfying 0 < 2m < n."""
        return self.locally_convex and 0 < 2 * self.winding < self.n


class PolygonStack(Sequence):
    """k derived polygons of one n: the array fields of :class:`OrbitPolygon`
    stacked as read-only (k, n, ...) arrays, with ``winding``,
    ``locally_convex`` and ``scale`` columns.

    It is a sequence of OrbitPolygon.  Row i's polygon holds views of row i
    of each array, so it has the stack's bits; it is made when first indexed
    and kept.  Consumers that read the columns make none."""

    FIELDS = ("vertices", "r", "rbar", "s", "delta", "dvec", "alpha", "exterior",
              "winding", "locally_convex", "scale")

    def __init__(self, *columns: np.ndarray):
        for a in columns:
            a.setflags(write=False)
        vars(self).update(zip(self.FIELDS, columns))
        self.columns = columns
        self._rows: dict[int, OrbitPolygon] = {}

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return len(self.scale)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        if (poly := self._rows.get(i)) is None:
            z, r, rbar, s, delta, dvec, alpha, exterior, m, convex, scale = self.columns
            poly = self._rows[i] = OrbitPolygon(
                z[i], r[i], rbar[i], s[i], delta[i], dvec[i], alpha[i], exterior[i],
                winding=int(m[i]), locally_convex=bool(convex[i]))
            vars(poly)["scale"] = float(scale[i])  # the cached property's value
        return poly

    def take(self, rows) -> "PolygonStack":
        """The stack of the given rows, in their order."""
        return PolygonStack(*(a[rows] for a in self.columns))

    @staticmethod
    def concatenate(parts: Sequence["PolygonStack"]) -> "PolygonStack":
        """The rows of the stacks ``parts``, all of one n, in order."""
        return PolygonStack(*map(np.concatenate, zip(*(p.columns for p in parts))))


def stack_polygons(polys: Sequence[OrbitPolygon]) -> PolygonStack:
    """``polys`` as a stack: a PolygonStack as it is, else the fields of the
    polygons, at least one and all of one n, stacked; the stack's rows are
    the given polygons."""
    if isinstance(polys, PolygonStack):
        return polys
    if len({p.n for p in polys}) != 1:
        raise WrongPeriod("need at least one polygon, all of one n")
    stack = PolygonStack(*(np.array([getattr(p, name) for p in polys])
                           for name in PolygonStack.FIELDS))
    stack._rows.update(enumerate(polys))
    return stack


def derive_orbit_polygon(vertices: Sequence) -> OrbitPolygon:
    """The derived bundle of one closed polygon: row 0 of
    :func:`derive_orbit_polygons`."""
    return derive_orbit_polygons([vertices])[0]


def derive_orbit_polygons(vertices: Sequence) -> PolygonStack:
    """Build the full derived bundle for each polygon of a (k, n, 2) stack,
    as a PolygonStack: no polygon object is made until a row is indexed.

    A polygon is flagged as not locally convex unless every local area
    exceeds 1e-12 * (its max half-edge length)^2.

    Raises DegeneratePolygon when a coordinate is not finite or exceeds
    MAX_COORDINATE, or when consecutive vertices of any polygon coincide or
    its turning angles do not sum to an integer multiple of 2 pi.
    """
    z = np.array(vertices, dtype=float)
    if z.ndim != 3 or z.shape[2] != 2 or z.shape[1] < 3:
        raise DegeneratePolygon("need at least 3 plane points")
    if not abs(z).max(initial=0.0) <= MAX_COORDINATE:
        if not np.isfinite(z).all():
            raise DegeneratePolygon("vertices must be finite")
        raise DegeneratePolygon("vertices are too large: their edge products overflow")

    # Cyclic slices, not rolls: zc[:, i] = z_{i-1} for i = 0 .. n + 2, and
    # rc[:, i] = r_{i-1} for i = 0 .. n + 1, so r is rc[:, 1:-1] and the
    # columns of r_{i-1}, r_i and r_{i+1} are slices of rc's x and y columns.
    zc = np.concatenate((z[:, -1:], z, z[:, :2]), axis=1)
    rc = (zc[:, :-1] - zc[:, 1:]) / 2.0
    r = rc[:, 1:-1]
    rbar = (z + zc[:, 2:-1]) / 2.0
    x, y = rc[..., 0], rc[..., 1]
    px, py, cx, cy = x[:, :-2], y[:, :-2], x[:, 1:-1], y[:, 1:-1]
    s = np.hypot(cx, cy)
    smax = s.max(axis=1, keepdims=True)
    if (s <= 1e-15 * smax).any():
        raise DegeneratePolygon("repeated consecutive vertices")

    # det2 and inner2 written on the columns: delta_i = det(r_{i-1}, r_i),
    # d_i = det(r_{i-1}, r_{i+1}).
    delta = px * cy - py * cx
    dvec = px * y[:, 2:] - py * x[:, 2:]

    # Signed turning from r_{i-1} to r_i; interior angle is its complement.
    exterior = np.arctan2(delta, px * cx + py * cy)
    alpha = np.pi - exterior

    turns = exterior.sum(axis=1) / (2.0 * np.pi)
    winding = np.rint(turns)
    if (off := abs(turns - winding) >= WINDING_TOL).any():
        raise DegeneratePolygon(f"turning angles sum to {turns[off][0]:.12f} "
                                "revolutions, not an integer")

    convex = (delta > 1e-12 * smax * smax).all(axis=1)

    return PolygonStack(z, r, rbar, s, delta, dvec, alpha, exterior,
                        winding.astype(int), convex, smax[:, 0])


def polygon_area(vertices: Sequence) -> float:
    """Signed shoelace area; positive for counterclockwise orientation."""
    z = np.asarray(vertices, dtype=float)
    zn = np.roll(z, -1, axis=0)
    return 0.5 * float(np.sum(z[:, 0] * zn[:, 1] - z[:, 1] * zn[:, 0]))


def regular_star(n: int, m: int, radius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """Vertices of the regular star polygon that advances m steps per edge.

    Requires gcd(n, m) = 1 so the cycle visits all n points.
    """
    if np.gcd(n, m) != 1:
        raise DegeneratePolygon(f"star ({n},{m}) is not a single cycle")
    k = np.arange(n)
    ang = phase + 2.0 * np.pi * m * k / n
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def diameter(points: Sequence) -> float:
    """Largest pairwise distance; fine at the small n used here."""
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))
