"""Reference copies of the sequential sampler, polygon derive, chart scorer and
sight-root bisection.

The package draws polygons in lock-step batches (``lab.sample_orbit_polygons``)
and derives them as stacks (``geometry.derive_orbit_polygons``).  These are
the one-polygon-at-a-time versions the batches replaced, kept as they were
so that tests can require the same bits and the same draws from each
generator.  Two changes: ``rejected``, when given, counts the reasons the
sequential loop rejected an attempt, and the closure's failed tries; and
``spiked_62``, the one-generator draw of the paradoxical scan's spiked
hexagons (``lab._spiked_62``), now draws a length scale and a first vertex,
as every sampled polygon does.  ``random_trapezoid`` is the n4 verifier's
trapezoid with the retry loop that the batch (``lab._random_trapezoids``)
dropped.

``chart_best`` is the chart scorer that ``ChartSweep.scan`` replaced: it
masks every column for regularity and finiteness, broadcasts over tensor
grids laid out in chart order (``grid_params``), and takes one argmax.  It
evaluates the package's chart, so that the scorer is compared bit for bit.

``most_convex`` is the one-polygon candidate selection that the stacked one
(``elements._most_convex_each``) replaced: it walks the candidates by
falling slack and classifies each through ``make_element`` until one is a
convex integral element.

``make_element``, ``special_element_minus``, ``special_element_plus`` and
``certify_null`` are the numpy classification of one polygon that the
package's plain-float pass replaced: each test is a numpy expression over
the polygon's arrays, the monodromy residual is the stacked
``elements.monodromy_residuals`` of a one-row stack, and the null residual
and its bound are the stacked ``_null_residual`` and ``_null_bound``.  One
change: a NaN null residual fails the certificate (``not resid <= bound``),
as it does in ``elements.special_plus_certified``; it passed before.

``candidates_n4`` is the n = 4 search's sweep of the conic over the search
box, 21 points a branch, that the closed form (``elements._candidates_n4``)
replaced.  It is kept as an oracle: both give the same element.
``search_box`` is the one-polygon form of that box, lo <= c <= d.

``_chart_n5`` and ``_chart_n6`` are the hand-derived pentagon and hexagon
charts that the chart from the monodromy (``elements._chart``) replaced.
They fix the same coordinates, c_0 ... c_{n-4}, and are kept as an oracle
for it.  The hexagon chart also masks its rational part q = 0, the slice
c_0 c_1 = delta_0 delta_2, where the variety is regular.

``bisect_crossing`` is the 60-halving bisection of the sight function on a
chord that the closed-form root (``dynamics._sight_root``) replaced, in the
array form that the support reference once used.  It is kept as an oracle
for the closed form.

``identity_residual_n5`` and ``identity_residual_n6`` are the (5,2) and
(6,2) sign-contradiction identities that the verifiers once probed on one
float variety point per trial.  They index plain sequences, so on Fraction
data their residual is exact.

``variety_equations_n4``, ``variety_equations_n5`` and
``variety_equations_n6`` are the paper's displayed equations of the variety
(the rank n - 2 locus of C(c)) for n = 4, 5, 6, and ``variety_residual_rel``
is their largest residual, each scaled by its biggest term.  The package
decides integrality by the monodromy alone (``elements.monodromy_residual``);
these equations are kept as an oracle for it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from outerlab.elements import (
    GRID,
    INTEGRAL_TOL,
    IntegralElement,
    _alternating,
    _chart,
    _coefficients,
    _null_bound,
    _null_residual,
    convexity_tol,
    monodromy_residuals,
)
from outerlab.errors import (
    DegeneratePolygon,
    OddPeriod,
    SamplerExhausted,
    ValidationFailed,
    WrongPeriod,
)
from outerlab.geometry import WINDING_TOL, OrbitPolygon, det2, inner2
from outerlab.lab import ANGLE_MARGIN, LENGTH_FLOOR


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def derive_orbit_polygon(vertices, convexity_tol: float | None = None) -> OrbitPolygon:
    z = np.asarray(vertices, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 or len(z) < 3:
        raise DegeneratePolygon("need at least 3 plane points")
    if not np.all(np.isfinite(z)):
        raise DegeneratePolygon("vertices must be finite")

    zn = np.roll(z, -1, axis=0)
    r = (z - zn) / 2.0
    rbar = (z + zn) / 2.0
    s = np.hypot(r[:, 0], r[:, 1])
    smax = float(np.max(s))
    if smax == 0.0 or np.any(s <= 1e-15 * smax):
        raise DegeneratePolygon("repeated consecutive vertices")

    rp = np.roll(r, 1, axis=0)   # r_{i-1}
    rn = np.roll(r, -1, axis=0)  # r_{i+1}
    delta = det2(rp, r)
    dvec = det2(rp, rn)

    exterior = np.arctan2(delta, inner2(rp, r))
    alpha = np.pi - exterior

    turns = float(np.sum(exterior)) / (2.0 * np.pi)
    m = int(round(turns))
    if abs(turns - m) >= WINDING_TOL:
        raise DegeneratePolygon(
            f"turning angles sum to {turns:.12f} revolutions, not an integer"
        )

    if convexity_tol is None:
        convexity_tol = 1e-12 * smax * smax
    locally_convex = bool(np.all(delta > convexity_tol))

    return OrbitPolygon(
        vertices=_freeze(z.copy()),
        r=_freeze(r),
        rbar=_freeze(rbar),
        s=_freeze(s),
        delta=_freeze(delta),
        dvec=_freeze(dvec),
        alpha=_freeze(alpha),
        exterior=_freeze(exterior),
        winding=m,
        locally_convex=locally_convex,
    )


def vertices(z0: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.cumsum(np.vstack([z0, -2.0 * r[:-1]]), axis=0)


def positive_closure(U: np.ndarray, rng: np.random.Generator,
                     rejected: Optional[Counter] = None) -> Optional[np.ndarray]:
    gram = U @ U.T
    for _ in range(4):
        w = rng.lognormal(0.0, 0.4, U.shape[1])
        s = w - U.T @ np.linalg.solve(gram, U @ w)
        if np.all(s < 0):
            s = -s
        if s.min() > LENGTH_FLOOR * np.abs(s).max():
            return s
        if rejected is not None:
            rejected["closure retry"] += 1
    return None


def sample_orbit_polygon(n: int, m: int, rng: np.random.Generator,
                         attempts: int = 10_000,
                         rejected: Optional[Counter] = None) -> OrbitPolygon:
    rejected = Counter() if rejected is None else rejected
    xbar = 2.0 * m / n
    head = min(xbar, 1.0 - xbar)
    for attempt in range(attempts):
        hi = 0.65 if attempt < attempts // 2 else 0.35
        spread = rng.uniform(0.15, hi)
        g = rng.normal(0.0, 1.0, n)
        g -= g.mean()
        x = xbar + spread * head * g
        if x.min() <= ANGLE_MARGIN or x.max() >= 1.0 - ANGLE_MARGIN:
            rejected["angle wall"] += 1
            continue
        delta = np.pi * x
        phi = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(delta)
        U = np.stack([np.cos(phi), np.sin(phi)])
        s = positive_closure(U, rng, rejected)
        if s is None:
            rejected["non-positive closure"] += 1
            continue
        s = s * rng.lognormal(0.0, 0.25)
        poly = derive_orbit_polygon(vertices(rng.uniform(-1.0, 1.0, 2), s[:, None] * U.T))
        if poly.locally_convex and poly.winding == m:
            return poly
        rejected["convexity or winding"] += 1
    raise SamplerExhausted(f"no ({n},{m}) polygon within {attempts} attempts")


def spiked_62(rng: np.random.Generator) -> Optional[OrbitPolygon]:
    e1 = rng.uniform(0.02, 0.5)
    g0, g2 = rng.uniform(0.05, 0.6, 2)
    a = np.empty(6)
    a[1] = np.pi - e1
    a[0] = e1 + g0
    a[2] = e1 + g2
    rest = 2.0 * np.pi - a[0] - a[1] - a[2]
    if rest <= 0.1:
        return None
    a[3:] = rng.dirichlet(np.ones(3)) * rest
    if np.any(a <= ANGLE_MARGIN) or np.any(a >= np.pi - ANGLE_MARGIN):
        return None
    delta = np.pi - a
    phi = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(delta)
    U = np.stack([np.cos(phi), np.sin(phi)])
    s = positive_closure(U, rng)
    if s is None:
        return None
    s = s * rng.lognormal(0.0, 0.25)
    poly = derive_orbit_polygon(vertices(rng.uniform(-1.0, 1.0, 2), s[:, None] * U.T))
    if poly.locally_convex and poly.winding == 2:
        return poly
    return None


def random_trapezoid(rng: np.random.Generator) -> OrbitPolygon:
    for _ in range(100):
        a = rng.uniform(0.8, 1.6)
        b = rng.uniform(0.3, 0.95) * a
        shift = rng.uniform(-0.3, 0.3)
        h = rng.uniform(0.5, 1.5)
        z = np.array([[-a, 0.0], [a, 0.0], [shift + b, h], [shift - b, h]])
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        poly = derive_orbit_polygon(z @ rot.T)
        if poly.locally_convex and poly.winding == 1:
            return poly
    raise SamplerExhausted("trapezoid construction failed")


def search_box(poly: OrbitPolygon) -> tuple[np.ndarray, np.ndarray]:
    """The box lo <= c <= d that the search samples; its lower side is a
    heuristic bound, not a proved one."""
    return -3.0 * np.abs(poly.dvec) - 3.0 * np.mean(poly.delta), poly.dvec


def candidates_n4(poly: OrbitPolygon) -> list[np.ndarray]:
    """Conic sweep c = (t, K/t, -t, -K/t) plus its degenerate branches."""
    D = poly.delta
    lo, d = search_box(poly)
    K = D[0] * D[2] - D[1] * D[3]
    sc2 = poly.scale**2
    tiny = 1e-12 * sc2
    cands = [d.copy()]
    for t in np.linspace(lo[0], d[0], GRID):
        if abs(t) > tiny:
            cands.append(np.array([t, K / t, -t, -K / t]))
    for t in np.linspace(lo[1], d[1], GRID):
        if abs(t) > tiny:
            cands.append(np.array([K / t, t, -K / t, -t]))
    if abs(K) <= tiny * sc2:
        # degenerate conic: the union of the two coordinate lines
        cands.append(np.array([d[0], 0.0, -d[0], 0.0]))
        cands.append(np.array([0.0, d[1], 0.0, -d[1]]))
    return cands


def _chart_n5(D, sc2, c1, c2):
    c4 = (c1 * c2 - D[0] * D[2]) / D[1]
    ok = np.abs(c4) > 1e-12 * sc2
    safe = np.where(ok, c4, 1.0)
    return [c1, c2, (c1 * D[3] + D[2] * D[4]) / safe, c4,
            (c2 * D[4] + D[3] * D[0]) / safe], ok


def _chart_n6(D, sc2, c1, c2, c3):
    q = -D[4] * (c1 * c2 - D[0] * D[2]) / D[1]
    ok = np.abs(q) > 1e-12 * sc2 * sc2
    qs = np.where(ok, q, 1.0)
    c5 = (D[4] * c1 * D[3] + c3 * qs) / (D[4] * D[2])
    regular = np.abs(c5) > 1e-12 * sc2
    c4 = (qs + D[3] * D[5]) / np.where(regular, c5, 1.0)
    c6 = D[4] * (c4 * D[0] - D[5] * c2) / qs
    return [c1, c2, c3, c4, c5, c6], ok & regular


_CHARTS = {5: _chart_n5, 6: _chart_n6}


def bisect_crossing(a, b, ta, tb, z, ga):
    """Root of the sight function det(q - z, t) on the chord a-b, with the
    tangent t interpolated linearly, by 60 halvings; ga is its value at a."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        q = (1 - mid) * a + mid * b
        tq = (1 - mid) * ta + mid * tb
        if (det2(q - z, tq) > 0) == (ga > 0):
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return (1 - mid) * a + mid * b


def grid_params(axes: np.ndarray) -> list[np.ndarray]:
    """Tensor grids in chart order: ``axes[:, s, a]`` holds the samples of
    coordinate a on the s-th chart, and coordinate a lies on axis a + 1."""
    g, S, dim = axes.shape
    return [axes[:, :, a].T.reshape((S,) + (1,) * a + (g,) + (1,) * (dim - 1 - a))
            for a in range(dim)]


def chart_best(charts, rows: np.ndarray, params: list[np.ndarray]):
    """(slack, c, params) of the best regular point per row of a
    ``ChartSweep``; ties go to the first point in the C order of the
    parameter arrays' broadcast shape."""
    S = len(rows)
    ext = (charts.n, S) + (1,) * (np.ndim(params[0]) - 1)
    D, dv = (x[rows].T.reshape(ext) for x in (charts.delta, charts.dvec))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cols, singular = _chart(D, charts.sc2[rows].reshape(ext[1:]), params)
    ok = ~singular
    slack = dv[0] - cols[0]
    for dk, col in zip(dv, cols):
        ok = ok & np.isfinite(col)
        slack = np.minimum(slack, dk - col)
    shape = ok.shape
    score = np.where(ok, slack, -np.inf).reshape(S, math.prod(shape[1:]))
    k = np.argmax(score, axis=1)
    at = np.unravel_index(k, shape[1:])
    first = np.arange(S)
    win = np.stack([col[(first,) + tuple(i if size > 1 else 0
                                         for i, size in zip(at, col.shape[1:]))]
                    for col in cols], axis=1)
    c = np.empty_like(win)
    c[first[:, None], charts.roll[rows]] = win
    return score[first, k], c, win[:, :charts.dim]


def most_convex(poly: OrbitPolygon, cands: np.ndarray) -> Optional[IntegralElement]:
    """The convex integral element of largest slack min(d - c) among the
    candidate rows, ties to the first row; None when no row is one."""
    margins = np.min(poly.dvec - cands, axis=1)
    eps = convexity_tol(poly)
    for k in np.argsort(-margins, kind="stable"):
        if margins[k] < -eps:
            break
        el = make_element(poly, cands[k])
        if el.is_valid and el.is_convex:
            return el
    return None


def make_element(poly: OrbitPolygon, c, tol: float = INTEGRAL_TOL,
                 convex_tol: float | None = None) -> IntegralElement:
    c = _coefficients(poly, c).copy()
    n = poly.n
    valid = bool(monodromy_residuals(poly.delta[None], c[None])[0] <= tol)
    eps = convexity_tol(poly) if convex_tol is None else convex_tol
    convex = valid and bool(np.all(c <= poly.dvec + eps))
    special_tol = 1e-9 * poly.scale**2
    minus = bool(np.max(np.abs(c + poly.dvec)) <= special_tol)
    plus = n % 2 == 0 and bool(np.max(np.abs(c - poly.dvec)) <= special_tol)
    return IntegralElement(base=poly, c=c, is_valid=valid, is_convex=convex,
                           is_special_minus=minus, is_special_plus=plus)


def special_element_minus(poly: OrbitPolygon, tol: float = INTEGRAL_TOL) -> IntegralElement:
    poly.require_locally_convex()
    el = make_element(poly, -poly.dvec, tol)
    certify_null(poly, el, poly.r)
    return el


def special_element_plus(poly: OrbitPolygon, tol: float = INTEGRAL_TOL) -> IntegralElement:
    if poly.n % 2:
        raise OddPeriod("c = +d is an integral element only for even n")
    poly.require_locally_convex()
    el = make_element(poly, poly.dvec, tol)
    certify_null(poly, el, _alternating(poly.r))
    return el


def certify_null(poly: OrbitPolygon, el: IntegralElement, vecs: np.ndarray):
    if not el.is_valid:
        raise ValidationFailed(
            f"special element has rank margin {el.rank_margin:.3e}; "
            "input polygon is numerically degenerate"
        )
    resid = float(_null_residual(poly.delta, el.c, vecs))
    bound = float(_null_bound(poly.delta, el.c, vecs))
    if not resid <= bound:
        raise ValidationFailed(f"null-vector residual {resid:.3e} exceeds {bound:.3e}")


def identity_residual_n5(poly, c) -> float:
    """Relative residual of c_1 c_2 - d_1 d_2 = (c_4 + d_4) delta_2 (variety
    points only); this is the sign-contradiction identity for (5, 2)."""
    d, D = poly.dvec, poly.delta
    lhs = c[0] * c[1] - d[0] * d[1]
    rhs = (c[3] + d[3]) * D[1]
    mag = max(abs(c[0] * c[1]), abs(d[0] * d[1]), abs(rhs), 1e-300)
    return abs(lhs - rhs) / mag


def identity_residual_n6(poly, c) -> float:
    """Relative residual of D_5 (c_1 c_2 - d_1 d_2) + D_2 (c_4 c_5 - d_4 d_5) = 0."""
    d, D = poly.dvec, poly.delta
    t1 = D[4] * (c[0] * c[1] - d[0] * d[1])
    t2 = D[1] * (c[3] * c[4] - d[3] * d[4])
    mag = max(abs(D[4] * c[0] * c[1]), abs(D[4] * d[0] * d[1]),
              abs(D[1] * c[3] * c[4]), abs(D[1] * d[3] * d[4]), 1e-300)
    return abs(t1 + t2) / mag


def variety_equations_n4(poly: OrbitPolygon, c) -> np.ndarray:
    """Residuals (c_1 + c_3, c_2 + c_4, c_1 c_2 + D_2 D_4 - D_1 D_3)."""
    if poly.n != 4:
        raise WrongPeriod("n = 4 required")
    c = np.asarray(c, dtype=float)
    D = poly.delta
    return np.array([
        c[0] + c[2],
        c[1] + c[3],
        c[0] * c[1] + D[1] * D[3] - D[0] * D[2],
    ])


def variety_equations_n5(poly: OrbitPolygon, c) -> np.ndarray:
    """The five cyclic shifts of c_i c_{i+1} - c_{i+3} D_{i+1} - D_i D_{i+2}."""
    if poly.n != 5:
        raise WrongPeriod("n = 5 required")
    c = np.asarray(c, dtype=float)
    D = poly.delta
    k = np.arange(5)
    return (c[k] * c[(k + 1) % 5]
            - c[(k + 3) % 5] * D[(k + 1) % 5]
            - D[k] * D[(k + 2) % 5])


def variety_equations_n6(poly: OrbitPolygon, c) -> np.ndarray:
    """Both displayed hexagon equations and their six cyclic shifts (12 total).

    The system is redundant; the variety it cuts out is the rank n - 2 locus.
    """
    if poly.n != 6:
        raise WrongPeriod("n = 6 required")
    c = np.asarray(c, dtype=float)
    D = poly.delta
    k = np.arange(6)
    ab = c[(3 + k) % 6] * c[(4 + k) % 6] - D[(3 + k) % 6] * D[(5 + k) % 6]
    e1 = D[(4 + k) % 6] * (c[k] * c[(1 + k) % 6] - D[k] * D[(2 + k) % 6]) \
        + D[(1 + k) % 6] * ab
    e2 = D[(4 + k) % 6] * (c[k] * D[(3 + k) % 6] - c[(4 + k) % 6] * D[(2 + k) % 6]) \
        + c[(2 + k) % 6] * ab
    return np.concatenate([e1, e2])


@np.errstate(over="ignore", invalid="ignore")
def variety_residual_rel(poly: OrbitPolygon, c) -> float:
    """Largest equation residual, each normalized by its biggest term.

    The equations for different n have different polynomial degrees, so a
    per-equation relative measure is the only scale-free choice.  inf when a
    term overflows, as in :func:`monodromy_residual`: the residual and its
    term would both be inf, and their quotient NaN.
    """
    c = np.asarray(c, dtype=float)
    D = poly.delta
    n = poly.n
    if n == 4:
        res = variety_equations_n4(poly, c)
        mags = np.array([
            max(abs(c[0]), abs(c[2])),
            max(abs(c[1]), abs(c[3])),
            max(abs(c[0] * c[1]), abs(D[1] * D[3]), abs(D[0] * D[2])),
        ])
    elif n == 5:
        res = variety_equations_n5(poly, c)
        k = np.arange(5)
        mags = np.max(np.abs(np.stack([
            c[k] * c[(k + 1) % 5],
            c[(k + 3) % 5] * D[(k + 1) % 5],
            D[k] * D[(k + 2) % 5],
        ])), axis=0)
    elif n == 6:
        res = variety_equations_n6(poly, c)
        k = np.arange(6)
        ab = np.abs(c[(3 + k) % 6] * c[(4 + k) % 6]) \
            + np.abs(D[(3 + k) % 6] * D[(5 + k) % 6])
        m1 = np.max(np.abs(np.stack([
            D[(4 + k) % 6] * c[k] * c[(1 + k) % 6],
            D[(4 + k) % 6] * D[k] * D[(2 + k) % 6],
            D[(1 + k) % 6] * ab,
        ])), axis=0)
        m2 = np.max(np.abs(np.stack([
            D[(4 + k) % 6] * c[k] * D[(3 + k) % 6],
            D[(4 + k) % 6] * c[(4 + k) % 6] * D[(2 + k) % 6],
            c[(2 + k) % 6] * ab,
        ])), axis=0)
        mags = np.concatenate([m1, m2])
    else:
        raise WrongPeriod("explicit equations exist only for n in {4, 5, 6}")
    if not (np.isfinite(res).all() and np.isfinite(mags).all()):
        return math.inf
    floor = 1e-300
    return float(np.max(np.abs(res) / np.maximum(mags, floor)))
