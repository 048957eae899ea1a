"""Integral-element calculus on orbit polygons.

An orbit polygon carries a band-cyclic matrix C(c) whose rows encode the
three-term recurrence delta_{i+2} w_i + c_{i+1} w_{i+1} + delta_{i+1} w_{i+2} = 0.
A coefficient vector c is an *integral element* when rank C(c) = n - 2; it is
*convex* when additionally c_i <= d_i componentwise.  Convex integral elements
are exactly the candidates compatible with a convex billiard curve, equality
c_i = d_i encoding a corner of the curve at the edge midpoint.

Integrality is decided in O(n) by the 2 x 2 monodromy of the recurrence
(``monodromy_residual``), the package's one integrality measure; the dense
matrix and its SVD remain for the rank margin and as reference tools.  The
paper's explicit variety equations for n = 4, 5, 6 are kept in the test
suite, as an oracle for the monodromy.

One polygon is classified in plain Python floats: ``make_element``,
``special_element_minus`` and ``special_element_plus`` read the polygon's
local areas, skip determinants and half-edge vectors as float lists, and
take the monodromy residual, the convexity box, the special-element tests
and the null-vector certificate in one pass over them, where numpy's cost
per call would dominate arrays of 3 to 12 entries.  Stacks of polygons stay
in numpy (``monodromy_residuals``, ``special_plus_certified`` and the
search's candidate selection), each row with the bits of the one-polygon
pass.

The monodromy gives the variety a rational chart for every n >= 5
(``_chart``), and the convex-element search (n = 5, 6) walks it and its
cyclic shifts instead of raw coefficient space, so every candidate it
scores already sits on the variety to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Optional, Sequence

import numpy as np

from .errors import (
    NotConvexElement,
    OddPeriod,
    UnsupportedPeriod,
    ValidationFailed,
    WrongPeriod,
    WrongPeriodOrWinding,
)
from .geometry import OrbitPolygon, PolygonStack, stack_polygons

RANK_REL_DEFAULT = 1e-9

# Integrality threshold on the scaled monodromy residual (monodromy_residual).
# Round-off in the product is at most about 2 n u (u = 1.1e-16, the unit
# round-off) after the scaling: 2.7e-15 at n = 12.  On exact elements of
# sampler polygons at the angle and length floors (c = -d, c = +d, conic and
# chart candidates) the scaled residual stayed at or below 1.5e-16, while
# moving one entry of -d by 1e-3 of max|d| gave at least 1.4e-11.  The
# threshold sits between, 37x above the round-off bound.  The unscaled
# residual reached 1.4e-9 on exact chart candidates of those polygons, so a
# fixed threshold on it would depend on the polygon's conditioning.
INTEGRAL_TOL = 1e-13

# Effort of the convex-element search on n = 5, 6.  GRID is the number of
# samples per chart axis of the coarse sweep, which scores every shifted
# chart on a tensor grid over the search box (_search_box).  The best regular
# point of each chart is refined by ZOOM_ROUNDS rounds of a ZOOM_GRID-per-axis
# local grid, starting one coarse cell wide and shrinking fourfold per round.
# The search has no other stage and no random input.
GRID = 21
ZOOM_ROUNDS = 3
ZOOM_GRID = 9


@dataclass(frozen=True, eq=False)
class CyclicMatrixC:
    """The n x n band-cyclic matrix C(c) of an orbit polygon."""

    n: int
    entries: np.ndarray
    c: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True, eq=False)
class IntegralElement:
    """A coefficient vector c on an orbit polygon, with its classification.

    ``is_valid`` is the monodromy verdict of :func:`make_element`.
    ``rank_margin`` is the relative spectral gap of C(c) at the rank n - 2
    cut, (sigma_{n-3} - sigma_{n-2}) / sigma_0, from an SVD that runs only
    when the attribute is first read.  Values near zero mean the rank is
    ill-conditioned and the sample should be treated as suspect.
    """

    base: OrbitPolygon
    c: np.ndarray
    is_valid: bool
    is_convex: bool
    is_special_minus: bool
    is_special_plus: bool

    @cached_property
    def rank_margin(self) -> float:
        return rank_margins(self.base.delta[None], self.c[None]).item()


def rank_margins(delta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:attr:`IntegralElement.rank_margin` of a stack, delta and c of shape
    (K, n): one SVD call for all the matrices C(c); 0.0 where sigma_0 is 0."""
    n = c.shape[1]
    sv = np.linalg.svd(_matrices_C(delta, c), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sv[:, 0] == 0.0, 0.0, (sv[:, n - 3] - sv[:, n - 2]) / sv[:, 0])


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Curvatures at the edge midpoints; np.inf marks a corner."""

    kappa: np.ndarray

    def __post_init__(self):
        # NaN fails k > 0 and is rejected; +inf passes.
        if np.any(~(np.asarray(self.kappa, dtype=float) > 0)):
            raise ValidationFailed("curvatures must be positive or infinite")


def convexity_tol(poly: OrbitPolygon) -> float:
    """Default slack for the componentwise bound c_i <= d_i (area units)."""
    return 1e-12 * poly.scale**2


def _coefficients(poly: OrbitPolygon, c) -> np.ndarray:
    poly.require_locally_convex()
    c = np.asarray(c, dtype=float)
    if c.shape != (poly.n,):
        raise WrongPeriod(f"coefficient vector must have length {poly.n}")
    return c


def build_matrix_C(poly: OrbitPolygon, c) -> CyclicMatrixC:
    """Assemble C(c).  Row j holds c_j on the diagonal, delta_j to its right
    and delta_{j+1} to its left (cyclically), so that row j of C v = 0 is the
    three-term recurrence attached to edge j."""
    c = _coefficients(poly, c)
    M = _matrices_C(poly.delta[None], c[None])[0]
    return CyclicMatrixC(n=poly.n, entries=M, c=c, delta=poly.delta.copy())


def _matrices_C(delta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """C(c) of :func:`build_matrix_C` per row of the (K, n) stacks delta and c."""
    k, n = c.shape
    M = np.zeros((k, n, n))
    j = np.arange(n)
    M[:, j, j] = c
    M[:, j, (j + 1) % n] = delta
    M[:, j, (j - 1) % n] = np.roll(delta, -1, axis=1)
    return M


def numerical_rank(M, tol: float = RANK_REL_DEFAULT) -> int:
    """Singular values above tol * sigma_max count toward the rank."""
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def monodromy_residual(poly: OrbitPolygon, c) -> float:
    """Scaled distance of the monodromy T_{n-1} ... T_0 from the identity.

    Row j of C(c) v = 0 is delta_{j+1} v_{j-1} + c_j v_j + delta_j v_{j+1} = 0,
    so (v_j, v_{j+1}) = T_j (v_{j-1}, v_j) with
    T_j = [[0, 1], [-delta_{j+1}/delta_j, -c_j/delta_j]] (delta_j > 0 on a
    locally convex polygon).  ker C is the space of n-periodic solutions, so
    rank C = n - 2 exactly when the product is the identity (Morier-Genoud,
    Ovsienko, Schwartz, Tabachnikov 2014).  Returns max|M - I| divided by
    prod_j max(1, |row 2 of T_j|_1), which bounds the growth of round-off
    in the product; inf when that scale or M is not finite, since a scale
    overflowed to inf would read every product as integral.
    """
    return _monodromy(poly.delta.tolist(), _coefficients(poly, c).tolist())


def _monodromy(delta: list[float], c: list[float]) -> float:
    """:func:`monodromy_residual` of the float lists of delta and c."""
    a, b, e, f = 1.0, 0.0, 0.0, 1.0  # M = [[a, b], [e, f]]
    scale = 1.0
    for dj, dn, cj in zip(delta, delta[1:] + delta[:1], c):
        p, q = -dn / dj, -cj / dj
        a, b, e, f = e, f, p * a + q * e, p * b + q * f
        # scale *= max(1.0, |p| + |q|): a factor 1.0 leaves every bit of scale.
        if (t := abs(p) + abs(q)) > 1.0:
            scale *= t
    if not all(map(math.isfinite, (a, b, e, f, scale))):
        return math.inf
    return max(abs(a - 1.0), abs(b), abs(e), abs(f - 1.0)) / scale


def _max_abs(values) -> float:
    """max |v| over the floats, NaN when one is NaN, as np.max(np.abs(v)):
    Python's max skips a NaN that is not first, their sum does not."""
    a = list(map(abs, values))
    total = sum(a)
    return max(a) if total == total else total


def monodromy_residuals(delta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`monodromy_residual` over a stack of polygons of one n: delta
    and c have shape (K, n), and each row takes the float operations of the
    one-polygon loop in the same order, so its residual keeps its bits."""
    k, n = c.shape
    a, b, e, f = np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)
    scale = np.ones(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            dj = delta[:, j]
            p, q = -delta[:, (j + 1) % n] / dj, -c[:, j] / dj
            a, b, e, f = e, f, p * a + q * e, p * b + q * f
            scale *= np.maximum(1.0, np.abs(p) + np.abs(q))
        res = np.max(np.abs([a - 1.0, b, e, f - 1.0]), axis=0) / scale
    res[~np.isfinite([a, b, e, f, scale]).all(axis=0)] = np.inf
    return res


# ---------------------------------------------------------------------------
# The chart of the variety, from the monodromy
#
# With T_j = [[0, 1], [-r_j, x_j]], r_j = delta_{j+1}/delta_j and
# x_j = -c_j/delta_j (monodromy_residual), c is integral exactly when
# T_{n-1} ... T_0 = I.  The chart fixes c_0 ... c_{n-4}.  Let
# Q = T_{n-5} ... T_0 = [[q_a, q_b], [q_e, q_f]] and let (e, f) be the second
# row of T_{n-4} Q.  T_{n-1} T_{n-2} T_{n-3} = (T_{n-4} Q)^-1, solved entry
# by entry with det Q = delta_{n-4}/delta_0, gives
#
#   c_{n-2} = delta_0 f,
#   c_{n-1} = delta_0 (delta_{n-2} + delta_{n-1} e) / c_{n-2},
#   c_{n-3} = (delta_{n-3} delta_{n-1} - delta_0 delta_{n-2} q_f) / c_{n-2}.
#
# The one pole, c_{n-2} = 0, is masked at |c_{n-2}| <= 1e-12 scale^2.  Q
# depends on the leading parameters alone: on a tensor grid laid out by
# _grid_params it is formed at their shape.  The derived columns go into ``out``
# (three float arrays of the parameters' broadcast shape, then the mask).
# Each operation is elementwise, in a fixed order, so a point keeps its bits
# at any shape.  Divisions are not guarded: callers run the chart under
# np.errstate.  The mask misses a NaN c_{n-2} (<= is false on NaN); the
# columns there are non-finite, which callers test.  With sc2 None the mask
# is not formed, and None stands in its place.

def _chart(D, sc2, params, out=None):
    """Columns c_0 ... c_{n-1} and singular mask of the chart at ``params``
    (c_0 ... c_{n-4}); the local areas D broadcast against the parameters.
    Without ``out`` the derived columns get arrays of their own."""
    n = len(params) + 3
    cm3, cm2, cm1, singular = out or (None,) * 4
    x = [-c / D[j] for j, c in enumerate(params)]
    r = [D[j + 1] / D[j] for j in range(n - 3)]
    qa, qb, qe, qf = 0.0, 1.0, -r[0], x[0]  # Q = T_0
    for j in range(1, n - 4):
        qa, qb, qe, qf = qe, qf, x[j] * qe - r[j] * qa, x[j] * qf - r[j] * qb
    cm2 = np.multiply(x[-1], D[0] * qf, out=cm2)
    cm2 -= D[0] * r[-1] * qb
    singular = None if sc2 is None else np.less_equal(
        np.abs(cm2, out=cm1), 1e-12 * sc2, out=singular)
    cm3 = np.divide(D[n - 3] * D[n - 1] - D[0] * D[n - 2] * qf, cm2, out=cm3)
    # The numerator x_{n-4} g + h of c_{n-1} holds no x_0: on a tensor grid
    # it has the shape of the parameters after x_0, formed at that shape, in
    # cm1 when that is full (a fresh full array costs more).
    g, h = D[0] * D[n - 1] * qe, D[0] * (D[n - 2] - D[n - 1] * r[-1] * qa)
    shape = np.broadcast_shapes(np.shape(x[-1]), np.shape(g), np.shape(h))
    num = np.multiply(x[-1], g, out=cm1 if shape == cm2.shape else None)
    num += h
    cm1 = np.divide(num, cm2, out=cm1)
    return list(params) + [cm3, cm2, cm1], singular


def _variety_point(poly: OrbitPolygon, params, shift: int):
    """(c, ok) of the chart at ``shift``, any n >= 5: c in polygon order,
    ok where the point is regular and finite."""
    params = [np.asarray(p, dtype=float) for p in params]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cols, singular = _chart(np.roll(poly.delta, -shift), poly.scale**2, params)
    c = np.roll(np.stack(np.broadcast_arrays(*cols), axis=-1), shift, axis=-1)
    return c, ~singular & np.all(np.isfinite(c), axis=-1)


def variety_point_n5(poly: OrbitPolygon, c1, c2, shift: int = 0):
    """Complete (c1, c2) to a full variety point on the chart at ``shift``,
    broadcasting over arrays.  Returns (c, ok); ok is False at the chart's
    pole and where a column is not finite."""
    if poly.n != 5:
        raise WrongPeriod("n = 5 required")
    return _variety_point(poly, (c1, c2), shift)


def variety_point_n6(poly: OrbitPolygon, c1, c2, c3, shift: int = 0):
    """Complete (c1, c2, c3) to a full variety point for hexagons."""
    if poly.n != 6:
        raise WrongPeriod("n = 6 required")
    return _variety_point(poly, (c1, c2, c3), shift)


# ---------------------------------------------------------------------------
# Classification

def make_element(
    poly: OrbitPolygon,
    c,
    tol: float = INTEGRAL_TOL,
    convex_tol: float | None = None,
) -> IntegralElement:
    """Classify a coefficient vector: integral when
    ``monodromy_residual(poly, c) <= tol``, then the convexity box and
    special-element detection.  No matrix is built; the SVD behind
    ``rank_margin`` runs only if that attribute is read.  The element keeps
    its own copy of c, so that a later change to the caller's array cannot
    reach ``c`` or the margin computed from it."""
    c = _coefficients(poly, c).copy()
    # Each test takes the float operations of its numpy form, on float lists.
    cl, d = c.tolist(), poly.dvec.tolist()
    valid = _monodromy(poly.delta.tolist(), cl) <= tol
    eps = convexity_tol(poly) if convex_tol is None else convex_tol
    special_tol = 1e-9 * poly.scale**2
    return IntegralElement(
        base=poly,
        c=c,
        is_valid=valid,
        is_convex=valid and all(ci <= di + eps for ci, di in zip(cl, d)),
        is_special_minus=_max_abs(map(add, cl, d)) <= special_tol,
        is_special_plus=poly.n % 2 == 0 and _max_abs(map(sub, cl, d)) <= special_tol,
    )


def special_element_minus(poly: OrbitPolygon, tol: float = INTEGRAL_TOL) -> IntegralElement:
    """The element c = -d, certified: integral and C r = 0 for both
    coordinate projections of the half-edge vectors."""
    el = make_element(poly, -poly.dvec, tol)
    _certify_null(poly, el, poly.r)
    return el


def special_element_plus(poly: OrbitPolygon, tol: float = INTEGRAL_TOL) -> IntegralElement:
    """The element c = +d for even n, with alternating-signed null vectors."""
    if poly.n % 2:
        raise OddPeriod("c = +d is an integral element only for even n")
    el = make_element(poly, poly.dvec, tol)
    _certify_null(poly, el, poly.r, alternate=True)
    return el


def special_plus_certified(polys: Sequence[OrbitPolygon], tol: float = INTEGRAL_TOL) -> np.ndarray:
    """Per polygon of one even n, whether :func:`special_element_plus`
    certifies c = +d, without raising ValidationFailed: one monodromy
    residual and one null residual over the whole stack."""
    if not len(polys):
        return np.zeros(0, dtype=bool)
    polys = stack_polygons(polys)
    if polys.n % 2:
        raise OddPeriod("c = +d is an integral element only for even n")
    _require_locally_convex(polys)
    d, delta, vecs = polys.dvec, polys.delta, _alternating(polys.r)
    return (monodromy_residuals(delta, d) <= tol) & (
        _null_residual(delta, d, vecs) <= _null_bound(delta, d, vecs))


def _require_locally_convex(polys: PolygonStack) -> None:
    """NotLocallyConvex, from the first polygon of the stack that is not."""
    if not polys.locally_convex.all():
        polys[int(np.argmin(polys.locally_convex))].require_locally_convex()


def _alternating(r: np.ndarray) -> np.ndarray:
    """The half-edge vectors r (shape (..., n, 2)) with signs (-1)^j."""
    return (-1.0) ** np.arange(r.shape[-2])[:, None] * r


def _null_residual(delta: np.ndarray, c: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max |C(c) v| over the columns v of ``vecs`` (shape (..., n, k)), from
    the three-term recurrence: no n x n matrix is built.  delta and c have
    shape (..., n); leading axes stack polygons of one n."""
    c = c[..., None]
    w = np.concatenate((vecs[..., -1:, :], vecs, vecs[..., :1, :]), axis=-2)  # w[j + 1] = v_j
    D = np.concatenate((delta, delta[..., :1]), axis=-1)[..., None]  # D[j] = delta_j, D[n] = delta_0
    return np.max(np.abs(D[..., 1:, :] * w[..., :-2, :] + c * vecs + D[..., :-1, :] * w[..., 2:, :]),
                  axis=(-2, -1))


def _null_bound(delta: np.ndarray, c: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The largest null residual that certifies the null vectors: 1e-10 in
    units of the largest entry of C(c) and of the vectors."""
    scale_C = np.maximum(np.max(np.abs(c), axis=-1), np.max(np.abs(delta), axis=-1))
    return 1e-10 * scale_C * np.maximum(np.max(np.abs(vecs), axis=(-2, -1)), 1e-300)


def _certify_null(poly: OrbitPolygon, el: IntegralElement, vecs: np.ndarray,
                  alternate: bool = False):
    """Raise ValidationFailed unless el is valid and C(el.c) v = 0 within
    :func:`_null_bound` for every column v of ``vecs`` (n, k), signed
    (-1)^j when ``alternate``.  The residual and the bound take the float
    operations of :func:`_null_residual` and :func:`_null_bound` in plain
    floats; a NaN residual fails, as in :func:`special_plus_certified`."""
    if not el.is_valid:
        raise ValidationFailed(
            f"special element has rank margin {el.rank_margin:.3e}; "
            "input polygon is numerically degenerate"
        )
    d, c = poly.delta.tolist(), el.c.tolist()
    dn = d[1:] + d[:1]
    rows, vals = [], []
    for v in vecs.T.tolist():
        if alternate:
            v[1::2] = [-x for x in v[1::2]]  # -x is (-1.0) * x, bit for bit
        vals += v
        rows += [a * vp + cj * vj + b * vq
                 for a, vp, cj, vj, b, vq in zip(dn, v[-1:] + v[:-1], c, v, d, v[1:] + v[:1])]
    resid = _max_abs(rows)
    bound = 1e-10 * _max_abs(c + d) * max(_max_abs(vals), 1e-300)
    if not resid <= bound:
        raise ValidationFailed(f"null-vector residual {resid:.3e} exceeds {bound:.3e}")


# ---------------------------------------------------------------------------
# Curvature transfer

def curvature_from_element(
    poly: OrbitPolygon, c, convex_tol: float | None = None
) -> CurvatureProfile:
    """Recover midpoint curvatures from a convex coefficient vector.

    kappa_j = 2 delta_j delta_{j+1} / ((d_j - c_j) s_j^3); equality c_j = d_j
    within tolerance gives kappa_j = inf (a corner).  Only the convexity
    bound is enforced here; integrality is the caller's concern.
    """
    poly.require_locally_convex()
    c = np.asarray(c, dtype=float)
    eps = convexity_tol(poly) if convex_tol is None else convex_tol
    gap = poly.dvec - c
    if np.any(gap < -eps):
        raise NotConvexElement("some c_i exceeds d_i beyond tolerance")
    num = 2.0 * poly.delta * np.roll(poly.delta, -1)
    kappa = np.where(gap <= eps, np.inf, num / (np.maximum(gap, 1e-300) * poly.s**3))
    return CurvatureProfile(kappa=kappa)


def element_from_curvature(poly: OrbitPolygon, profile: CurvatureProfile) -> np.ndarray:
    """Inverse transfer: c_j = d_j - 2 delta_j delta_{j+1} / (kappa_j s_j^3),
    with corners (kappa = inf) mapping to c_j = d_j exactly."""
    poly.require_locally_convex()
    kappa = np.asarray(profile.kappa, dtype=float)
    num = 2.0 * poly.delta * np.roll(poly.delta, -1)
    with np.errstate(divide="ignore"):
        drop = np.where(np.isinf(kappa), 0.0, num / (kappa * poly.s**3))
    return poly.dvec - drop


# ---------------------------------------------------------------------------
# Paradox classification (hexagonal star polygons)

def paradox_margins(polys: Sequence[OrbitPolygon]) -> np.ndarray:
    """max over i of min(alpha_{i-1} + alpha_i - pi, alpha_i + alpha_{i+1} - pi),
    one entry per hexagon of winding 2.

    Positive exactly when some vertex has both adjacent angle-pair sums
    above pi.
    """
    if not len(polys):
        return np.zeros(0)
    polys = stack_polygons(polys)
    if polys.n != 6 or (polys.winding != 2).any():
        raise WrongPeriodOrWinding("defined for hexagons with winding 2")
    a = polys.alpha
    left = np.roll(a, 1, axis=1) + a - np.pi
    right = a + np.roll(a, -1, axis=1) - np.pi
    return np.max(np.minimum(left, right), axis=1)


def paradox_margin(poly: OrbitPolygon) -> float:
    """The one-hexagon case of :func:`paradox_margins`."""
    return float(paradox_margins([poly])[0])


def classify_paradoxical(poly: OrbitPolygon) -> bool:
    return paradox_margin(poly) > 0.0


# ---------------------------------------------------------------------------
# Exact signs on the float vertices
#
# A float determinant det(r_a, r_b) = p - q from the float vertices is off
# the exact one by at most 4u/(1 - 4u) (|p| + |q|), u = 2^-53: one rounding
# per half-edge coordinate, per product and in the difference.  A product
# of two determinants minus another is off by at most about 10u times the
# sum of the products of their |p| + |q|.  DET_ERROR and GAP_ERROR round
# those factors up.  A float value that clears its bound has the exact
# sign; inside it the sign comes from fractions.Fraction, imported only
# then.  The local-convexity floor 1e-12 scale^2 is far above the bound of
# delta_i (16u scale^2), so a locally convex polygon has every delta_i > 0.

DET_ERROR = 8 * 2.0**-53
GAP_ERROR = 16 * 2.0**-53


def _dets(r: np.ndarray, a: int, b: int):
    """det(r_{i+a}, r_{i+b}) per polygon of the (k, n, 2) stack ``r`` and
    per i, with the |p| + |q| of its two products."""
    ra, rb = np.roll(r, -a, axis=1), np.roll(r, -b, axis=1)
    p, q = ra[..., 0] * rb[..., 1], ra[..., 1] * rb[..., 0]
    return p - q, abs(p) + abs(q)


def _exact_dets(poly: OrbitPolygon, a: int, b: int) -> list:
    """det(r_{i+a}, r_{i+b}) per i, exactly, from the float vertices."""
    from fractions import Fraction

    z = [(Fraction(x), Fraction(y)) for x, y in poly.vertices.tolist()]
    r = [((x - u) / 2, (y - v) / 2) for (x, y), (u, v) in zip(z, z[1:] + z[:1])]
    n = len(r)
    return [r[(i + a) % n][0] * r[(i + b) % n][1] - r[(i + a) % n][1] * r[(i + b) % n][0]
            for i in range(n)]


def _signs(value: np.ndarray, bound: np.ndarray, exact) -> np.ndarray:
    """Signs of ``value`` (one row per polygon) where |value| clears its
    ``bound``; elsewhere the signs of ``exact(row)``, called once per row."""
    signs = np.sign(value)
    unclear = ~(abs(value) > bound)
    for k in np.flatnonzero(unclear.any(axis=1)):
        values = exact(k)
        for i in np.flatnonzero(unclear[k]):
            signs[k, i] = (values[i] > 0) - (values[i] < 0)
    return signs


def skip_signs(polys: Sequence[OrbitPolygon]) -> np.ndarray:
    """Exact signs (-1, 0 or 1) of the skip determinants d_i of the
    polygons' float vertices, one row per polygon (all of one n)."""
    polys = stack_polygons(polys)
    d, mag = _dets(polys.r, -1, 1)
    return _signs(d, DET_ERROR * mag, lambda k: _exact_dets(polys[k], -1, 1))


def gap_signs(polys: Sequence[OrbitPolygon]) -> np.ndarray:
    """Exact signs of g_i = d_i d_{i+1} - delta_i delta_{i+2}, one row per
    polygon: delta_i delta_{i+1} times the (2, 2) entry of T_{i+1} T_i at
    c = d."""
    polys = stack_polygons(polys)
    (d, md), (D, mD) = _dets(polys.r, -1, 1), _dets(polys.r, -1, 0)
    d1, md1, D2, mD2 = (np.roll(x, -j, axis=1) for x, j in ((d, 1), (md, 1), (D, 2), (mD, 2)))

    def exact(k):
        d, D = _exact_dets(polys[k], -1, 1), _exact_dets(polys[k], -1, 0)
        n = len(d)
        return [d[i] * d[(i + 1) % n] - D[i] * D[(i + 2) % n] for i in range(n)]

    return _signs(d * d1 - D * D2, GAP_ERROR * (md * md1 + mD * mD2), exact)


# ---------------------------------------------------------------------------
# Convex-element search

# Points that one scorer call may evaluate: four hexagon charts on the coarse
# grid.  Batched stages are split at that size, so it bounds the work arrays
# that a ChartSweep keeps between scorer calls (three float arrays and one
# mask, 25 bytes a point, 0.93 MB; the mask is written only when rows are
# scored again), and with them peak memory, whatever the number of polygons.
# A call has a fixed cost of some 60 numpy dispatches (about 80 us on a 2-core
# x86-64 host, half of a one-chart call), so the charts are scored in few,
# large calls.
MAX_CHART_POINTS = 4 * GRID**3


def convex_element_search(poly: OrbitPolygon) -> Optional[IntegralElement]:
    """Look for a convex integral element; None when none is found.

    Strategy per n: n = 3 has a single closed-form element; on n = 4 the
    convexity box pins the one-parameter conic to two closed-form points
    (:func:`_candidates_n4`), so n = 3 and 4 are exact.  n = 5, 6 sweep every
    shifted rational chart of the variety on a grid, scoring candidates by
    their worst convexity slack min_i (d_i - c_i), and refine each chart's
    best point with shrinking local grids.  The element maximizing that slack
    is returned, so a strictly interior element is preferred over the
    ever-present corner element c = d of even n.  On n = 5, 6 a None is
    evidence of absence, not proof; verifiers aggregate over many samples.
    The search is a pure function of the polygon.  This is the one-polygon
    case of :func:`convex_element_search_batch`.
    """
    return convex_element_search_batch([poly])[0]


def convex_element_search_batch(
    polys: Sequence[OrbitPolygon],
) -> list[Optional[IntegralElement]]:
    """:func:`convex_element_search` of each polygon, the polygons searched
    together.  All pentagons, and all hexagons, share every chart scorer
    call, in chunks of at most MAX_CHART_POINTS points.  Each result equals
    the polygon's own search bit for bit: every chart value is an
    elementwise function of its own row, and ties go to the first point of
    a row."""
    groups: dict[int, list[int]] = {}
    for i, poly in enumerate(polys):
        groups.setdefault(poly.n, []).append(i)

    found: list[Optional[IntegralElement]] = [None] * len(polys)
    for n, idx in groups.items():
        group = stack_polygons([polys[i] for i in idx])
        _require_locally_convex(group)
        if n not in (3, 4, 5, 6):
            raise UnsupportedPeriod("search implemented for n in {3, 4, 5, 6}")
        if n == 3:
            els = [make_element(p, np.roll(p.delta, 1)) for p in group]
            els = [el if (el.is_valid and el.is_convex) else None for el in els]
        elif n == 4:
            cands = [np.array(_candidates_n4(p)) for p in group]
            els = _most_convex_each(group, np.concatenate(cands),
                                    np.repeat(np.arange(len(group)), [len(c) for c in cands]))
        else:
            cands, owner = _candidates_chart(group)
            d, each = group.dvec, np.arange(len(group))
            extra = [-d, d] if n == 6 else [-d]
            els = _most_convex_each(group, np.concatenate([cands, *extra]),
                                    np.concatenate([owner] + [each] * len(extra)))
        for i, el in zip(idx, els):
            found[i] = el
    return found


def _scale2(polys: PolygonStack) -> np.ndarray:
    """scale^2 per polygon, with the bits of each polygon's Python float
    ``scale**2`` (which the one-polygon code takes)."""
    return np.array([x**2 for x in polys.scale.tolist()])


def _most_convex(polys: PolygonStack, sc2: np.ndarray, cands: np.ndarray,
                 owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per polygon that owns one (``owner`` holds each candidate row's row of
    the stack, ``sc2`` its :func:`_scale2`), the candidate row that is the
    convex integral element of largest slack min(d - c), ties to its first
    such row, in polygon order; and that slack.  All rows are classified at
    once, each with the bits that :func:`make_element` gives it."""
    d = polys.dvec[owner]
    eps = 1e-12 * sc2[owner]  # convexity_tol
    margins = np.min(d - cands, axis=1)
    ok = (~(margins < -eps) & np.all(cands <= d + eps[:, None], axis=1)
          & (monodromy_residuals(polys.delta[owner], cands) <= INTEGRAL_TOL))
    order = np.argsort(-margins, kind="stable")
    order = order[ok[order]]
    win = order[np.unique(owner[order], return_index=True)[1]]
    return win, margins[win]


def _most_convex_each(polys: Sequence[OrbitPolygon], cands: np.ndarray,
                      owner: np.ndarray) -> list[Optional[IntegralElement]]:
    """Per polygon, the element of :func:`_most_convex`, or None when none
    of its rows is a convex integral element."""
    polys = stack_polygons(polys)
    sc2 = _scale2(polys)
    win = _most_convex(polys, sc2, cands, owner)[0]
    k, c = owner[win], cands[win]
    d, tol = polys.dvec[k], 1e-9 * sc2[k]
    minus = np.max(np.abs(c + d), axis=1) <= tol
    plus = (polys.n % 2 == 0) & (np.max(np.abs(c - d), axis=1) <= tol)
    found: list[Optional[IntegralElement]] = [None] * len(polys)
    for i, ci, mi, pi in zip(k.tolist(), c, minus, plus):
        found[i] = IntegralElement(base=polys[i], c=ci.copy(), is_valid=True, is_convex=True,
                                   is_special_minus=bool(mi), is_special_plus=bool(pi))
    return found


def _search_box(d: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box lo <= c <= d that the search samples, for stacked d and delta
    of shape (..., n).  Its lower side is a heuristic bound, not a proved
    one."""
    return -3.0 * np.abs(d) - 3.0 * np.mean(delta, axis=-1, keepdims=True), d


def _candidates_n4(poly: OrbitPolygon) -> list[np.ndarray]:
    """c = d, and the points of the conic c = (t, K/t, -t, -K/t) at
    c_0 = d_0 and at c_1 = d_1, plus its degenerate lines when K is tiny.
    dvec forms d_2 from the products of d_0, swapped, so d_2 = -d_0 in
    floats, and c_0 <= d_0, c_2 = -c_0 <= d_2 pin c_0 = d_0; likewise
    c_1 = d_1.  So no other point of the conic is convex."""
    D, d = poly.delta, poly.dvec
    K = D[0] * D[2] - D[1] * D[3]
    sc2 = poly.scale**2
    tiny = 1e-12 * sc2
    cands = [d.copy()]
    if abs(d[0]) > tiny:
        cands.append(np.array([d[0], K / d[0], -d[0], -K / d[0]]))
    if abs(d[1]) > tiny:
        cands.append(np.array([K / d[1], d[1], -K / d[1], -d[1]]))
    if abs(K) <= tiny * sc2:
        # degenerate conic: the union of the two coordinate lines
        cands.append(np.array([d[0], 0.0, -d[0], 0.0]))
        cands.append(np.array([0.0, d[1], 0.0, -d[1]]))
    return cands


def _grid_params(axes: np.ndarray) -> list[np.ndarray]:
    """Coordinates of per-chart tensor grids: ``axes[:, s, a]`` holds the
    samples of coordinate a on the s-th chart of the batch, and coordinate a
    varies along axis a + 1, so that the grids' C order is the order in
    which :meth:`ChartSweep.scan` breaks ties.  Each is broadcast only where
    used: what the chart forms from some coordinates alone (the product Q
    from the leading ones, c_{n-1}'s numerator from all but c_0) stays at
    their shape."""
    g, S, dim = axes.shape
    return [axes[:, :, a].T.reshape((S,) + (1,) * a + (g,) + (1,) * (dim - 1 - a))
            for a in range(dim)]


class ChartSweep:
    """The n shifted charts of one or more pentagons, or of hexagons.  Row
    p n + s is chart s of polygon p; it carries that chart's rolled local
    areas and skip determinants, its search box per chart coordinate and the
    polygon's scale^2.  The scorer's work arrays are kept between calls."""

    def __init__(self, polys: Sequence[OrbitPolygon]):
        polys = stack_polygons(polys)
        n = polys.n
        self.n, self.dim = n, n - 3
        roll = (np.arange(n)[:, None] + np.arange(n)) % n  # row s: roll by -s
        self.roll = np.tile(roll, (len(polys), 1))

        def rolled(vectors, k=n):
            """Row p n + s: vectors[p] rolled by -s, its first k entries."""
            return vectors[:, roll[:, :k]].reshape(-1, k)

        delta, dvec = polys.delta, polys.dvec
        self.delta, self.dvec = rolled(delta), rolled(dvec)
        self.sc2 = np.repeat(_scale2(polys), n)
        self.lo, self.hi = (rolled(x, self.dim) for x in _search_box(dvec, delta))
        # For the scorer, one row each: the local areas, the skip
        # determinants and scale^2; a call's columns of it come out C-ordered.
        self.row_data = np.vstack([self.delta.T, self.dvec.T, self.sc2])
        self._work = (np.empty((n - self.dim, 0)), np.empty(0, dtype=bool))
        self._views: dict[tuple, tuple] = {}

    def scan(self, rows: np.ndarray, params: list[np.ndarray]):
        """Best slack min(d - c) per row over a tensor grid of parameters
        laid out as by :func:`_grid_params`, one array per chart coordinate
        with one entry per row along its first axis.  Ties go to the first
        point in C order over (c_1, ..., c_dim), as in an argmax over the
        stacked regular points.  Returns (slack, c, params) per row; slack
        is -inf where no parameter value is regular.

        The rows are scored in calls of at most MAX_CHART_POINTS points; no
        rows still make one call, for the result shapes.  The winners'
        coefficients are computed once, afterwards, from their parameters:
        every column is an elementwise function of its row's local areas and
        parameters, so it keeps the bits it had on the grid.

        The first pass masks no point.  A row whose winner is singular, has
        a non-finite column or a NaN slack is scored again with its singular
        and non-finite points masked.  That is exact: a mask only lowers
        points to -inf, so a regular, finite winner of the unmasked pass,
        which every point before it scores below, is also the masked one."""
        m, p = self._calls(rows, params, finite=False)
        c, singular = self._columns(rows, p)
        redo = singular | np.isnan(m) | ~np.isfinite(c).all(axis=1)
        if redo.any():
            rows, params = rows[redo], [x[redo] for x in params]
            m[redo], p[redo] = self._calls(rows, params, finite=True)
            c[redo] = self._columns(rows, p[redo])[0]
        return m, c, p

    def coarse(self, rows: np.ndarray):
        """:meth:`scan` of the rows over the coarse grid: GRID points per
        axis of each row's search box."""
        return self.scan(rows, _grid_params(np.linspace(self.lo[rows], self.hi[rows], GRID)))

    def _calls(self, rows: np.ndarray, params: list[np.ndarray], finite: bool):
        """:meth:`_best` over the rows, in calls of at most MAX_CHART_POINTS
        points."""
        points = math.prod(np.broadcast_shapes(*(p.shape[1:] for p in params)))
        step = max(1, MAX_CHART_POINTS // points)
        parts = [self._best(rows[i:i + step], [p[i:i + step] for p in params], finite)
                 for i in range(0, max(len(rows), 1), step)]
        return tuple(np.concatenate(x) for x in zip(*parts))

    def _best(self, rows: np.ndarray, params: list[np.ndarray], finite: bool):
        """One scorer call: the slack and the parameters of each row's first
        best point; the slack is NaN where the row holds a NaN.  Without
        ``finite`` no point is masked; with it, singular and non-finite
        points score -inf."""
        full = np.broadcast(*params).shape
        S = full[0]
        n, dim = self.n, self.dim
        params = [np.ascontiguousarray(x) for x in params]  # C-ordered, <= 66 kB a call
        data = self.row_data[:, rows].reshape((2 * n + 1, S) + (1,) * (len(full) - 1))
        D, dv, sc2 = data[:n], data[n:2 * n], data[-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cols, singular = _chart(D, sc2 if finite else None, params, self._work_arrays(full))
            if finite:
                for col in cols:
                    singular |= ~np.isfinite(col)
            # Each derived column becomes its slack term d_k - c_k in place,
            # and the first of them the slack: the minimum of those terms,
            # then of the leading parameters' terms (taken at their shape),
            # then of the last one's.  The order of a minimum shows only in
            # the sign of a zero and the payload of a NaN.  d_k - c_k is -0.0
            # only where d_k is, and a row with a NaN slack is scored again,
            # so unless d holds a -0.0 the slack keeps the bits of the
            # minimum taken in column order.
            terms = [np.subtract(dk, col, out=col) for dk, col in zip(dv[dim:], cols[dim:])]
            s = terms[0]
            for t in terms[1:]:
                np.minimum(s, t, out=s)
            lead = dv[0] - cols[0]
            for dk, col in zip(dv[1:dim - 1], cols[1:dim - 1]):
                lead = np.minimum(lead, dk - col)
            np.minimum(s, lead, out=s)
            np.minimum(s, dv[dim - 1] - cols[dim - 1], out=s)
            if finite:
                np.copyto(s, -np.inf, where=singular)
        # The first maximum of each row in C order; argmax stops at the first
        # NaN, so a row that holds one gets a NaN slack.
        score = s.reshape(S, math.prod(full[1:]))
        first = np.arange(S)
        k = score.argmax(axis=1)
        at = np.unravel_index(k, full[1:])  # parameter i varies along axis i + 1
        p = np.stack([x.reshape(S, g)[first, a] for x, g, a in zip(params, full[1:], at)], axis=-1)
        return score[first, k], p

    def _columns(self, rows: np.ndarray, p: np.ndarray):
        """Coefficients c of each row's chart point p, in polygon order, and
        whether the point is singular."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cols, singular = _chart(self.delta[rows].T, self.sc2[rows], list(p.T))
        c = np.empty((len(rows), self.n))
        c[np.arange(len(rows))[:, None], self.roll[rows]] = np.stack(cols, axis=1)
        return c, singular

    def _work_arrays(self, shape: tuple):
        """Work arrays of one shape, kept for the next call: the derived
        columns, which become their slack terms and the slack, and the
        singular mask, written only when rows are scored again.  All shapes
        share one set of buffers, grown to the largest size asked for."""
        views = self._views.get(shape)
        if views is None:
            size = math.prod(shape)
            if self._work[1].size < size:
                self._work = (np.empty((self.n - self.dim, size)),
                              np.empty(size, dtype=bool))
                self._views = {}
            work, mask = (w[..., :size] for w in self._work)
            views = self._views[shape] = [w.reshape(shape) for w in (*work, mask)]
        return views

    def refine(self, start, span: np.ndarray):
        """Shrinking local grids around each row's regular start point, the
        rounds in sequence and each over all those rows at once.  Returns,
        per row, the start's and the refinement's coefficients (rows x 2 x
        n) and which of the two are regular points."""
        m, c, center = start
        idx = np.flatnonzero(m > -np.inf)
        center, span = center[idx], span[idx]
        best_m, best_c = np.full(len(idx), -np.inf), np.empty((len(idx), self.n))
        for _ in range(ZOOM_ROUNDS):
            axes = np.linspace(center - span, center + span, ZOOM_GRID)
            mz, cz, p = self.scan(idx, _grid_params(axes))
            better = mz > best_m
            best_m[better], best_c[better] = mz[better], cz[better]
            center = np.where(better[:, None], p, center)
            span = span / 4.0
        zoom_found, zoom_c = np.zeros(len(m), dtype=bool), np.empty_like(c)
        zoom_found[idx], zoom_c[idx] = best_m > -np.inf, best_c
        return np.stack([c, zoom_c], axis=1), np.stack([m > -np.inf, zoom_found], axis=1)


def _candidates_chart(polys: PolygonStack) -> tuple[np.ndarray, np.ndarray]:
    """Chart candidates of pentagons, or of hexagons, and the index of the
    polygon of each: per polygon, the coarse sweep's best regular point of
    each chart followed by its refinement, in chart order."""
    charts = ChartSweep(polys)
    n = charts.n
    c, keep = charts.refine(charts.coarse(np.arange(len(charts.lo))),
                            (charts.hi - charts.lo) / (GRID - 1))
    keep = keep.ravel()
    return c.reshape(-1, n)[keep], np.repeat(np.arange(len(polys)), 2 * n)[keep]


def convex_element_sweep(polys: Sequence[OrbitPolygon], slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Per polygon of one n, 5 or 6, whether one of its candidates, c = -d
    and then each chart's coarse winner, charts in order, is a convex
    integral element with min(d - c) > slack scale^2; and the first such c,
    a row of NaN where none is.  The charts are built only for the polygons
    that -d leaves open, and chart s is scanned only for those still open.
    Each candidate and its classification keep the bits they have in
    :func:`convex_element_search_batch`, of which it is a candidate: that
    search finds an element, and its slack is at least the candidate's.
    The sweep decides on the stack's columns and makes no polygon or
    element object."""
    if not len(polys):
        return np.zeros(0, dtype=bool), np.zeros((0, 0))
    polys = stack_polygons(polys)
    _require_locally_convex(polys)
    if polys.n not in (5, 6):
        raise UnsupportedPeriod("chart sweep implemented for n in {5, 6}")
    n, sc2 = polys.n, _scale2(polys)
    decided, found = np.zeros(len(polys), dtype=bool), np.full((len(polys), n), np.nan)

    def settle(cands: np.ndarray, owner: np.ndarray) -> None:
        """Decide the polygons ``owner`` (rows of the stack) whose most
        convex candidate row clears the slack."""
        win, margin = _most_convex(polys, sc2, cands, owner)
        # cands <= d + eps rejects NaN rows, so the margins are not NaN.
        hit = win[margin / sc2[owner[win]] > slack]
        decided[owner[hit]] = True
        found[owner[hit]] = cands[hit]

    settle(-polys.dvec, np.arange(len(polys)))
    group = np.flatnonzero(~decided)
    if group.size:
        charts, todo = ChartSweep(polys.take(group)), np.arange(len(group))
        for s in range(n):
            m, c, _ = charts.coarse(todo * n + s)
            regular = np.flatnonzero(m > -np.inf)
            settle(c[regular], group[todo[regular]])
            todo = todo[~decided[group[todo]]]
            if not todo.size:
                break
    return decided, found
