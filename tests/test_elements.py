"""Rank tests, variety equations, charts, curvature transfer, search."""

import functools
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import outerlab
from outerlab.elements import (
    INTEGRAL_TOL,
    ChartSweep,
    CurvatureProfile,
    _candidates_chart,
    _alternating,
    _candidates_n4,
    _certify_null,
    _grid_params,
    _null_bound,
    _null_residual,
    _variety_point,
    build_matrix_C,
    classify_paradoxical,
    convex_element_search,
    convex_element_search_batch,
    convexity_tol,
    curvature_from_element,
    element_from_curvature,
    make_element,
    monodromy_residual,
    monodromy_residuals,
    numerical_rank,
    paradox_margin,
    paradox_margins,
    special_element_minus,
    special_element_plus,
    special_plus_certified,
    variety_point_n5,
    variety_point_n6,
)
from outerlab.dynamics import ConvexCurve, iterate
from outerlab.errors import (
    NotConvexElement,
    NotLocallyConvex,
    OddPeriod,
    OuterLabError,
    UnsupportedPeriod,
    ValidationFailed,
    WrongPeriod,
    WrongPeriodOrWinding,
)
from outerlab.geometry import derive_orbit_polygon, regular_star
from outerlab import lab
from outerlab.lab import ANGLE_MARGIN, LENGTH_FLOOR, OrbitSampler, sample_orbit_polygon

import reference
from reference import (
    variety_equations_n4,
    variety_equations_n5,
    variety_equations_n6,
    variety_residual_rel,
)


def test_matrix_layout_square(square):
    # unit square: all local areas 1, so the zero vector gives the cyclic
    # 0/1 band matrix
    M = build_matrix_C(square, np.zeros(4)).entries
    want = np.array(
        [
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(M, want)
    assert numerical_rank(M) == 2


def test_matrix_layout_general(sampled):
    poly = sampled[(5, 1)][0]
    c = np.arange(5.0)
    M = build_matrix_C(poly, c).entries
    for j in range(5):
        assert M[j, j] == c[j]
        assert M[j, (j + 1) % 5] == poly.delta[j]
        assert M[j, (j - 1) % 5] == poly.delta[(j + 1) % 5]
    # off-band entries vanish
    assert np.count_nonzero(M) <= 15


def test_matrix_rejects_wrong_length(square):
    with pytest.raises(WrongPeriod):
        build_matrix_C(square, np.zeros(5))


def test_matrix_requires_local_convexity():
    dart = derive_orbit_polygon([[0.0, 0.0], [2.0, 1.0], [0.0, 0.5], [-2.0, 1.0]])
    with pytest.raises(NotLocallyConvex):
        build_matrix_C(dart, np.zeros(4))


def test_numerical_rank_reference_cases():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.zeros((3, 3))) == 0
    v = np.array([[1.0], [2.0], [3.0]])
    assert numerical_rank(v @ v.T) == 1
    # near-rank-deficient, threshold decides
    M = np.diag([1.0, 1.0, 1e-12])
    assert numerical_rank(M, 1e-9) == 2
    assert numerical_rank(M, 1e-15) == 3


def test_triangle_unique_element(triangle):
    # the only integral element of a triangle: c_i = delta_{i+1} (area data),
    # here all equal to half the triangle area
    cstar = np.roll(triangle.delta, 1)
    el = make_element(triangle, cstar)
    assert el.is_valid
    assert not el.is_convex  # c = +|delta| > d = -|delta|
    M = build_matrix_C(triangle, cstar).entries
    assert numerical_rank(M) == 1  # n - 2
    # all rows proportional for the equilateral case
    assert np.allclose(M[0], M[1]) and np.allclose(M[1], M[2])
    # any perturbation off the element restores full rank
    assert not make_element(triangle, cstar * np.array([1.0, 1.0, 1.01])).is_valid


def test_special_minus_across_periods(sampled):
    for (n, m), polys in sampled.items():
        el = special_element_minus(polys[0])
        assert el.is_valid
        assert el.is_special_minus
        assert el.rank_margin > 1e-6
        assert np.array_equal(el.c, -polys[0].dvec)


def test_special_plus_even_periods(sampled):
    for (n, m), polys in sampled.items():
        if n % 2:
            with pytest.raises(OddPeriod):
                special_element_plus(polys[0])
        else:
            el = special_element_plus(polys[0])
            assert el.is_valid
            assert el.is_special_plus
            assert el.is_convex  # c = d sits on the corner of the box


def test_null_vectors_of_special_elements(sampled):
    # C(-d) r = 0 and, for even n, C(+d) (-1)^j r_j = 0
    for (n, m), polys in sampled.items():
        poly = polys[1]
        M = build_matrix_C(poly, -poly.dvec).entries
        resid = np.max(np.abs(M @ poly.r))
        assert resid < 1e-10 * poly.scale**3
        if n % 2 == 0:
            signs = (-1.0) ** np.arange(n)
            Mp = build_matrix_C(poly, poly.dvec.copy()).entries
            resid = np.max(np.abs(Mp @ (signs[:, None] * poly.r)))
            assert resid < 1e-10 * poly.scale**3


def test_variety_equations_vanish_on_specials(sampled):
    for n, builder in ((4, variety_equations_n4), (5, variety_equations_n5),
                       (6, variety_equations_n6)):
        poly = sampled[(n, 1)][2]
        assert variety_residual_rel(poly, -poly.dvec) < 1e-12
        res = builder(poly, -poly.dvec)
        assert np.max(np.abs(res)) < 1e-10 * poly.scale ** (4 if n < 6 else 6)
        if n % 2 == 0:
            assert variety_residual_rel(poly, poly.dvec) < 1e-12


def test_variety_equations_wrong_period(square):
    with pytest.raises(WrongPeriod):
        variety_equations_n5(square, np.zeros(4))
    seven = derive_orbit_polygon(
        np.column_stack(
            [np.cos(2 * np.pi * np.arange(7) / 7), np.sin(2 * np.pi * np.arange(7) / 7)]
        )
    )
    with pytest.raises(WrongPeriod):
        variety_residual_rel(seven, np.zeros(7))


def test_variety_residual_detects_perturbation(sampled):
    poly = sampled[(5, 2)][0]
    c = -poly.dvec.copy()
    c[0] += 1e-3 * poly.scale**2
    assert variety_residual_rel(poly, c) > 1e-5
    assert not make_element(poly, c).is_valid


def test_chart_reconstructs_specials_n5(sampled):
    for poly in sampled[(5, 2)][:5]:
        d = poly.dvec
        c, ok = variety_point_n5(poly, -d[0], -d[1])
        assert ok
        assert np.allclose(c, -d, rtol=1e-9, atol=1e-12 * poly.scale**2)


def test_chart_reconstructs_specials_n6(sampled):
    for poly in sampled[(6, 2)][:5]:
        d = poly.dvec
        c, ok = variety_point_n6(poly, -d[0], -d[1], -d[2])
        assert ok
        assert np.allclose(c, -d, rtol=1e-9, atol=1e-12 * poly.scale**2)
        c, ok = variety_point_n6(poly, d[0], d[1], d[2])
        assert ok
        assert np.allclose(c, d, rtol=1e-9, atol=1e-12 * poly.scale**2)


def test_chart_points_are_integral(sampled):
    # every regular chart value must land on the rank n - 2 locus; n = 7
    # and 8 have no public wrapper and go through the private chart
    rng = np.random.default_rng(7)
    for key in ((5, 1), (6, 1), (7, 2), (7, 3), (8, 1), (8, 3)):
        poly = sampled[key][3]
        n, dim = poly.n, poly.n - 3
        span = np.abs(poly.dvec).max() + poly.scale**2
        for shift in range(n):
            params = rng.uniform(-span, span, size=(8, dim))
            if n == 5:
                c, ok = variety_point_n5(poly, params[:, 0], params[:, 1], shift)
            elif n == 6:
                c, ok = variety_point_n6(
                    poly, params[:, 0], params[:, 1], params[:, 2], shift
                )
            else:
                c, ok = _variety_point(poly, list(params.T), shift)
            assert ok.any()
            for cc in c[ok]:
                assert make_element(poly, cc).is_valid


@pytest.mark.parametrize("key", [(5, 1), (5, 2), (6, 1), (6, 2)])
def test_chart_matches_the_hand_derived_charts(sampled, key):
    # the chart from the monodromy and the hand-derived charts it replaced
    # fix the same coordinates; wherever both are regular they agree to
    # round-off, on every shift, over the search box
    rng = np.random.default_rng(43)
    point = variety_point_n5 if key[0] == 5 else variety_point_n6
    for poly in sampled[key][:5]:
        n, sc2 = poly.n, poly.scale**2
        lo, hi = reference.search_box(poly)
        for s in range(n):
            params = list(rng.uniform(np.roll(lo, -s)[:n - 3], np.roll(hi, -s)[:n - 3],
                                      size=(200, n - 3)).T)
            c, ok = point(poly, *params, shift=s)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                cols, hand_ok = reference._CHARTS[n](np.roll(poly.delta, -s), sc2, *params)
            want = np.roll(np.stack(cols, axis=-1), s, axis=-1)
            both = ok & hand_ok & np.isfinite(want).all(axis=-1)
            assert both.sum() >= 195
            size = np.maximum(np.abs(want[both]).max(axis=-1), sc2)
            assert np.all(np.abs(c[both] - want[both]).max(axis=-1) <= 1e-12 * size)


def test_hexagon_chart_is_regular_where_the_hand_chart_was_not(sampled):
    # c_0 c_1 = delta_0 delta_2 zeroes the hand hexagon chart's rational
    # part q, which it masked; there c_4 = delta_3 c_0 / delta_2, so the
    # chart from the monodromy is regular and its points are integral
    for key in ((6, 1), (6, 2)):
        for poly in sampled[key][:10]:
            for s in range(6):
                D = np.roll(poly.delta, -s)
                c0 = np.array([1.0, -1.0, 2.0, -0.5]) * D[0]
                c1 = np.array([1.0, -1.0, 0.5, -2.0]) * D[2]  # c0 c1 = D0 D2 exactly
                c2 = poly.scale**2 * np.array([0.3, -1.2, 2.0, 0.0])
                c, ok = variety_point_n6(poly, c0, c1, c2, shift=s)
                assert ok.all()
                for cc in c:
                    assert monodromy_residual(poly, cc) <= INTEGRAL_TOL


def _dense_best(poly, shift, params):
    """Reference chart scorer: stack every point, mask, argmax over the
    regular ones.  ``params`` is (N, dim)."""
    point = variety_point_n5 if poly.n == 5 else variety_point_n6
    c, ok = point(poly, *params.T, shift=shift)
    if not np.any(ok):
        return -np.inf, None, None
    c = c[ok]
    margins = np.min(poly.dvec - c, axis=-1)
    k = int(np.argmax(margins))
    return float(margins[k]), c[k], params[ok][k]


def _chart_axes(poly, charts, rng):
    """Per-shift axis sets (g, n, dim): the coarse grid, a zoom-sized grid,
    and the coarse grid plus two nodes where the chart degenerates."""
    n, dim = poly.n, poly.n - 3
    lo, hi = charts.lo, charts.hi
    coarse = np.linspace(lo, hi, 21)
    center = rng.uniform(lo, hi)
    zoom = np.linspace(center - (hi - lo) / 20, center + (hi - lo) / 20, 9)
    # second extra node: products overflow, so columns go non-finite
    extra = np.full((2, n, dim), 1e200)
    for s in range(n):
        D = np.roll(poly.delta, -s)
        # c1 c2 = D0 D2: the pentagon chart's pole c4 = 0; regular on hexagons
        extra[0, s, :2] = D[0], D[2]
        if dim == 3:
            # a c3 that makes c5 vanish at the first (c1, c2) grid node
            c1, c2 = coarse[0, s, 0], coarse[0, s, 1]
            extra[0, s, 2] = c1 * D[1] * D[3] / (c1 * c2 - D[0] * D[2])
    return {"coarse": coarse, "zoom": zoom,
            "degenerate": np.concatenate([coarse, extra])}


@pytest.mark.parametrize("key", [(5, 1), (5, 2), (6, 1), (6, 2)])
def test_chart_scorer_matches_dense_reference(sampled, key):
    # the column-wise scorer must reproduce the stacked evaluation bit for
    # bit, ties included, on grids, all shifts at once
    rng = np.random.default_rng(31)
    with np.errstate(over="ignore", invalid="ignore"):
        _check_chart_scorer(sampled[key][:3], rng)


def _check_chart_scorer(polys, rng):
    for poly in polys:
        n, dim = poly.n, poly.n - 3
        point = variety_point_n5 if n == 5 else variety_point_n6
        charts = ChartSweep(poly)
        shifts = np.arange(n)
        batches = {}
        for name, axes in _chart_axes(poly, charts, rng).items():
            nodes = [np.stack(np.meshgrid(*axes[:, s].T, indexing="ij"), axis=-1)
                     for s in shifts]
            batches[name] = (_grid_params(axes), [x.reshape(-1, dim) for x in nodes])

        for name, (params, dense) in batches.items():
            m, c, p = charts.scan(shifts, params)
            for s in shifts:
                want_m, want_c, want_p = _dense_best(poly, s, dense[s])
                assert m[s] == want_m, (name, s)
                if want_c is None:
                    continue
                assert np.array_equal(c[s], want_c), (name, s)
                assert np.array_equal(p[s], want_p), (name, s)

        # the degenerate nodes really are masked out
        for s in shifts:
            _, ok = point(poly, *batches["degenerate"][1][s].T, shift=s)
            ok = ok.reshape((23,) * dim)
            assert not ok[-1, -1].any()  # the overflowing node
            if dim == 2:
                assert not ok[-2, -2]  # c1 c2 = D0 D2: c4 = 0
            else:
                assert ok[-2, -2].all()  # c1 c2 = D0 D2 is no pole here
                assert not ok[0, 0, -2]  # c5 = 0
                assert ok[0, 0, :-2].any()


@pytest.mark.parametrize("key", [(5, 1), (5, 2), (6, 1), (6, 2)])
def test_chart_scorer_matches_stacked_reference(sampled, key):
    # the scorer keeps every bit of the stacked, fully masked scorer it
    # replaced (m, c and p; c only where a regular point exists), on several
    # polygons' charts at once, and warns nothing: the degenerate grid's
    # overflowing node sends hexagon rows through the re-mask of non-finite
    # winners
    rng = np.random.default_rng(37)
    polys = sampled[key][3:6]
    n, dim = key[0], key[0] - 3
    charts = ChartSweep(*polys)
    rows = np.arange(n * len(polys))
    passes = []
    scorer = charts._best

    def spy(rows, params, finite):
        passes.append(finite)
        return scorer(rows, params, finite)

    charts._best = spy
    per_poly = [_chart_axes(p, ChartSweep(p), rng) for p in polys]
    batches = {name: (_grid_params(axes), reference.grid_params(axes))
               for name in per_poly[0]
               for axes in [np.concatenate([a[name] for a in per_poly], axis=1)]}
    for name, (params, stacked) in batches.items():
        m, c, p = charts.scan(rows, params)
        with np.errstate(over="ignore", invalid="ignore"):
            want_m, want_c, want_p = reference.chart_best(charts, rows, stacked)
        found = want_m > -np.inf
        assert m.tobytes() == want_m.tobytes(), name
        assert p.tobytes() == want_p.tobytes(), name
        assert c[found].tobytes() == want_c[found].tobytes(), name
        assert found.any(), name
    if n == 6:
        assert True in passes
    assert False in passes
    # no rows still give results of the right widths
    m, c, p = charts.scan(rows[:0], [x[:0] for x in batches["coarse"][0]])
    assert (m.shape, c.shape, p.shape) == ((0,), (0, n), (0, dim))


@pytest.mark.parametrize("key", [(5, 1), (5, 2), (6, 1), (6, 2)])
def test_chart_scan_results_do_not_depend_on_the_call_size(sampled, monkeypatch, key):
    # the same rows scored one row per call (a budget below one chart), at
    # the default budget and all in one call give the same bits; the kept
    # work arrays stay within the budget, or within one row when a row
    # alone exceeds it
    rng = np.random.default_rng(41)
    polys = sampled[key][6:9]
    n = key[0]
    rows = np.arange(n * len(polys))
    per_poly = [_chart_axes(p, ChartSweep(p), rng) for p in polys]
    batches = {name: _grid_params(np.concatenate([a[name] for a in per_poly], axis=1))
               for name in per_poly[0]}
    points = {name: np.prod(np.broadcast_shapes(*(x.shape[1:] for x in params)))
              for name, params in batches.items()}
    budgets = {"below one chart": min(points.values()) - 1,
               "default": outerlab.elements.MAX_CHART_POINTS,
               "all rows": len(rows) * max(points.values())}
    results, rescored = {}, set()
    for budget, size in budgets.items():
        monkeypatch.setattr(outerlab.elements, "MAX_CHART_POINTS", size)
        charts = ChartSweep(*polys)
        calls = []
        scorer = charts._best

        def spy(rows, params, finite):
            calls.append((len(rows), finite))
            return scorer(rows, params, finite)

        charts._best = spy
        largest_row = 0
        for name, params in batches.items():
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results[budget, name] = charts.scan(rows, params)
            first_pass = [r for r, finite in calls if not finite]
            rescored |= {name for _, finite in calls if finite}
            assert sum(first_pass) == len(rows)
            assert max(first_pass) == min(len(rows), max(1, size // points[name]))
            largest_row = max(largest_row, points[name])
            assert charts._work[1].size <= max(size, largest_row)
            assert charts._work[0].size == 3 * charts._work[1].size
    assert n == 5 or "degenerate" in rescored
    for name in batches:
        m, c, p = results["default", name]
        assert (m > -np.inf).any()
        for budget in ("below one chart", "all rows"):
            m2, c2, p2 = results[budget, name]
            assert m.tobytes() == m2.tobytes() and np.all(m == m2)
            assert c.tobytes() == c2.tobytes() and np.all(c[m > -np.inf] == c2[m > -np.inf])
            assert p.tobytes() == p2.tobytes() and np.all(p == p2)


def test_chart_scorer_ties_go_to_first_point():
    # on a regular hexagon's chart, c1 far above d1 makes d1 - c1 the
    # smallest slack on whole (c2, c3) planes; two c1 nodes share the least
    # such c1, so both planes tie at the grid's best, and the winner must be
    # the first of those points in C order over (c1, c2, c3)
    poly = derive_orbit_polygon(regular_star(6, 1))
    charts = ChartSweep(poly)
    d, D = poly.dvec, poly.delta
    sc2 = poly.scale**2
    r = np.sqrt(D[1] * D[3])  # c2 c3 = D2 D4 takes c1 out of c5
    c1 = d[0] + 10.0 * sc2 * np.array([4.0, 1.0, 3.0, 1.0, 2.0])
    c23 = -r + 1e-3 * sc2 * np.linspace(-1.0, 1.0, 5)
    axes = np.stack([c1, c23, c23], axis=-1)[:, None, :]
    nodes = np.stack(np.meshgrid(c1, c23, c23, indexing="ij"), axis=-1).reshape(-1, 3)
    cols, ok = variety_point_n6(poly, *nodes.T)
    slack = np.min(d - cols, axis=1).reshape(5, 5, 5)
    assert ok.all()
    assert np.all(slack[1] == d[0] - c1[1]) and np.all(slack[3] == slack[1])
    assert slack.max() == slack[1, 0, 0]
    m, c, p = charts.scan(np.array([0]), _grid_params(axes))
    assert m[0] == slack[1, 0, 0]
    assert np.array_equal(p[0], [c1[1], c23[0], c23[0]])
    assert np.array_equal(c[0], cols[25])
    assert _dense_best(poly, 0, nodes)[0] == m[0]


def test_chart_scan_rescores_a_singular_winner():
    # the first pass masks no pole.  On the lattice hexagon every delta_i
    # and d_i is 1, so chart 0 reads c4 = c0 - c2 (c0 c1 - 1),
    # c3 = (2 - c0 c1) / c4 and c5 = (2 - c1 c2) / c4, exactly at these
    # nodes.  With c0 = -0.0 and c1 = -0.5, c2 = -0.0 is the pole c4 = -0.0
    # with c3 = c5 = -inf, and c2 = -1e-13 lies inside the pole's mask with
    # finite columns; both score d0 - c0 = 1 unmasked, above c2 = 0.5
    # (rows 0 and 1) and tied with c2 = -0.5 (rows 2 and 3), which comes
    # after them in C order.  Every row must be scored again, and the
    # masked winner returned: the regular node.
    poly = derive_orbit_polygon(np.array([[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]],
                                         dtype=float))
    assert np.all(poly.delta == 1.0) and np.all(poly.dvec == 1.0)
    charts = ChartSweep(poly)
    poles, regular = [-0.0, -1e-13, -0.0, -1e-13], [0.5, 0.5, -0.5, -0.5]
    axes = np.array([[[-0.0, -0.5, pole] for pole in poles],
                     [[-0.0, -0.5, reg] for reg in regular]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row, (pole, reg) in enumerate(zip(poles, regular)):
            c, ok = variety_point_n6(poly, -0.0, -0.5, np.array([pole, reg]))
            slack = np.min(poly.dvec - c, axis=1)
            assert ok.tolist() == [False, True]
            assert np.isfinite(c[0]).all() == (pole != 0.0)
            assert slack[0] == 1.0 and (slack[0] > slack[1] if row < 2 else slack[1] == 1.0)
        rows = np.zeros(len(poles), dtype=int)
        passes = []
        scorer = charts._best

        def spy(rows, params, finite):
            passes.append((len(rows), finite))
            return scorer(rows, params, finite)

        charts._best = spy
        m, c, p = charts.scan(rows, _grid_params(axes))
    assert passes == [(4, False), (4, True)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want_m, want_c, want_p = reference.chart_best(charts, rows, reference.grid_params(axes))
    assert m.tobytes() == want_m.tobytes()
    assert c.tobytes() == want_c.tobytes()
    assert p.tobytes() == want_p.tobytes()
    assert p[:, 2].tolist() == regular


def test_variety_point_singular_nodes_are_quiet(sampled):
    # the chart's one pole is c_{n-2} = 0: c1 c2 = D0 D2 on pentagons (the
    # second node only nearly), and on hexagons, where those nodes are
    # regular, a c3 that zeroes c5 at the last two; the divisions by zero
    # raise no warning, and the singular nodes come back not ok
    for key in ((5, 1), (5, 2), (6, 1), (6, 2)):
        poly = sampled[key][0]
        n = poly.n
        for s in range(n):
            D = np.roll(poly.delta, -s)
            c1 = np.array([1.0, 1.0, 1.0, -1.0]) * D[0]
            c2 = np.array([1.0, 1.0 + 1e-13, -1.0, 1.0]) * D[2]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if n == 5:
                    _, ok = variety_point_n5(poly, c1, c2, shift=s)
                    assert ok.tolist() == [False, False, True, True]
                    continue
                _, ok = variety_point_n6(poly, c1, c2, poly.scale**2, shift=s)
                assert ok.all()
                c3 = c1[2:] * D[1] * D[3] / (c1[2:] * c2[2:] - D[0] * D[2])
                _, ok = variety_point_n6(poly, c1[2:], c2[2:], c3, shift=s)
                assert not ok.any()


def test_convexity_box_gate(square, sampled):
    assert make_element(square, square.dvec.copy()).is_convex  # c = d corner
    poly = sampled[(4, 1)][0]
    # -d is integral but infeasible once some d_i < 0 (generic quadrilateral)
    if np.any(poly.dvec < -convexity_tol(poly)):
        el = make_element(poly, -poly.dvec)
        assert el.is_valid and not el.is_convex
    # off the variety: not integral, so not convex although it meets c <= d
    el = make_element(poly, poly.dvec - np.array([0.3, 0.0, 0.0, 0.0]) * poly.scale**2)
    assert not el.is_valid and not el.is_convex


def test_quadrilateral_skip_sum_is_zero(sampled):
    # d_1 + d_3 = 0 = d_2 + d_4 for any closed quadrilateral
    for poly in sampled[(4, 1)]:
        folded = poly.dvec + np.roll(poly.dvec, 2)
        assert np.max(np.abs(folded)) < 1e-12 * poly.scale**2


def test_curvature_unit_square(square):
    # the transfer formula needs feasibility only: c = -2 on every edge of
    # the unit square gives curvature 1 at all four midpoints
    c = np.full(4, -2.0)
    prof = curvature_from_element(square, c)
    assert np.allclose(prof.kappa, 1.0, rtol=1e-14)
    back = element_from_curvature(square, prof)
    assert np.allclose(back, c, rtol=1e-14)
    # an integral element off the corner exists but is never convex
    c = np.array([-2.0, 0.0, 2.0, 0.0])
    el = make_element(square, c)
    assert el.is_valid and not el.is_convex


def test_curvature_corner_is_infinite(square, sampled):
    prof = curvature_from_element(square, square.dvec.copy())
    assert np.all(np.isinf(prof.kappa))
    poly = sampled[(6, 1)][0]
    prof = curvature_from_element(poly, poly.dvec.copy())
    assert np.all(np.isinf(prof.kappa))


def test_curvature_rejects_infeasible(sampled):
    poly = sampled[(5, 1)][0]
    c = poly.dvec + 0.1 * poly.scale**2
    with pytest.raises(NotConvexElement):
        curvature_from_element(poly, c)


def test_curvature_profile_validation():
    with pytest.raises(ValidationFailed):
        CurvatureProfile(kappa=np.array([1.0, -2.0, 3.0]))
    CurvatureProfile(kappa=np.array([1.0, np.inf, 3.0]))  # corners are fine
    for bad in (np.nan, -np.inf, 0.0):
        with pytest.raises(ValidationFailed):
            CurvatureProfile(kappa=np.array([1.0, bad, 3.0]))


def test_curvature_transfer_rejects_nan(sampled):
    # a NaN curvature fails k > 0: the transfer raises instead of handing
    # an all-NaN profile, or a NaN entry of c, to the caller
    poly = sampled[(6, 1)][0]
    with pytest.raises(ValidationFailed):
        curvature_from_element(poly, [np.nan] * poly.n)
    kappa = np.full(poly.n, 1.0 / poly.scale)
    kappa[2] = np.nan
    with pytest.raises(ValidationFailed):
        element_from_curvature(poly, CurvatureProfile(kappa=kappa))
    kappa[2] = np.inf  # a corner
    c = element_from_curvature(poly, CurvatureProfile(kappa=kappa))
    assert np.isfinite(c).all() and c[2] == poly.dvec[2]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_curvature_round_trip(sampled, data):
    key = data.draw(st.sampled_from(sorted(sampled)))
    poly = sampled[key][data.draw(st.integers(0, 9))]
    n = poly.n
    logk = data.draw(
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n)
    )
    corner = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kappa = np.exp(np.array(logk)) / poly.scale
    kappa[np.array(corner)] = np.inf
    c = element_from_curvature(poly, CurvatureProfile(kappa=kappa))
    back = curvature_from_element(poly, c).kappa
    finite = np.isfinite(kappa)
    assert np.array_equal(finite, np.isfinite(back))
    assert np.allclose(back[finite], kappa[finite], rtol=1e-10)


def test_paradox_classification(sampled):
    with pytest.raises(WrongPeriodOrWinding):
        paradox_margin(sampled[(6, 1)][0])
    with pytest.raises(WrongPeriodOrWinding):
        paradox_margin(sampled[(5, 2)][0])
    # margin equals the best over vertices of the worse adjacent pair sum
    poly = sampled[(6, 2)][0]
    a = poly.alpha
    pair = a + np.roll(a, -1) - np.pi
    want = max(min(pair[i - 1], pair[i]) for i in range(6))
    assert np.isclose(paradox_margin(poly), want, rtol=1e-12)
    assert classify_paradoxical(poly) == (want > 0)


def test_stacked_paradox_margins_keep_the_bits_of_one_polygon(sampled):
    # the one-polygon formula that the stack replaced, on sampler draws and
    # on spiked hexagons, of which about half are paradoxical
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(11).spawn(300)]
    polys = lab.sample_orbit_polygons(6, 2, rngs)
    spiked = lab._spiked_62([np.random.default_rng(s) for s in range(300)])
    polys += [p for p in spiked if p is not None]
    want = []
    for p in polys:
        a = p.alpha
        want.append(float(np.max(np.minimum(np.roll(a, 1) + a - np.pi,
                                            a + np.roll(a, -1) - np.pi))))
    assert paradox_margins(polys).tolist() == want
    assert any(w > 0 for w in want) and any(w < 0 for w in want)
    assert paradox_margins([]).shape == (0,)
    with pytest.raises(WrongPeriodOrWinding):
        paradox_margins(polys[:2] + sampled[(6, 1)][:1])


def test_search_triangle_never_convex(sampled):
    for poly in sampled[(3, 1)]:
        assert convex_element_search(poly) is None


def test_search_quadrilateral_finds_corner(sampled):
    for poly in sampled[(4, 1)][:10]:
        el = convex_element_search(poly)
        assert el is not None and el.is_convex
        # corner element c = d is always available for even n
        gap = np.min(poly.dvec - el.c)
        assert gap > -convexity_tol(poly)


def test_search_respects_unsupported_period():
    ang = 2 * np.pi * np.arange(7) / 7
    poly = derive_orbit_polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
    with pytest.raises(UnsupportedPeriod):
        convex_element_search(poly)


def test_search_star_pentagon_empty(sampled):
    # doubly wound pentagons have all d_i < 0: the convex box is empty of
    # variety points
    for poly in sampled[(5, 2)][:10]:
        assert np.all(poly.dvec < 0)
        assert convex_element_search(poly) is None


def test_search_simple_pentagon_succeeds(sampled):
    for poly in sampled[(5, 1)][:10]:
        el = convex_element_search(poly)
        assert el is not None
        assert el.is_valid and el.is_convex
        assert np.all(el.c <= poly.dvec + convexity_tol(poly))


def test_search_hexagon_interior_beats_corner(sampled):
    # at least one simply wound hexagon in the pool should carry an element
    # strictly inside the box, and the search must prefer it to c = d
    best = 0.0
    for poly in sampled[(6, 1)]:
        el = convex_element_search(poly)
        assert el is not None
        best = max(best, float(np.max(np.abs(el.c - poly.dvec))) / poly.scale**2)
    assert best > 1e-3


def test_search_is_deterministic(sampled):
    poly = sampled[(6, 1)][4]
    a = convex_element_search(poly)
    b = convex_element_search(poly)
    assert a is not None and b is not None
    assert np.array_equal(a.c, b.c)


def _batch_cases():
    """Polygons mixing (5,1), (5,2), (6,1) and (6,2) in a shuffled order.
    Each coarse stage spans several scorer calls (5 of pentagons, 12 of
    hexagons); each zoom round fits in one.  How the rows are split into
    calls is checked by test_chart_scan_results_do_not_depend_on_the_call_size."""
    kinds = {(5, 1): 24, (5, 2): 56, (6, 1): 4, (6, 2): 4}
    polys = []
    for (n, m), count in kinds.items():
        sampler = OrbitSampler(n, m, seed=700 + 10 * n + m)
        polys += [sample_orbit_polygon(sampler) for _ in range(count)]
    order = np.random.default_rng(70).permutation(len(polys))
    return [polys[k] for k in order]


def _digest(els):
    h = hashlib.sha256()
    for el in els:
        h.update(b"none" if el is None else el.c.tobytes())
    return h.hexdigest()


# sha256 of the single-polygon results on _batch_cases(), computed with the
# search before its effort became fixed, every case at the default effort
# (numpy 2.4, x86-64 Linux).  It pins what each polygon alone returns, so a
# change that moves both paths alike (ties to the last maximum, a coarser
# grid) fails here as well.  Re-pinned (from 9f00c022...) when the chart
# from the monodromy replaced the hand-derived charts: all 88 cases kept
# their found/None pattern (32 found), and c moved by at most 1.4e-15
# relative.
BATCH_CASES_SHA256 = "f1b0f44b60895e21dda47db8e5fb4b01af6c78039169a4d15fe5f483bad9a3ff"


def test_batched_search_matches_single_searches():
    cases = _batch_cases()
    single = [convex_element_search(p) for p in cases]
    assert _digest(single) == BATCH_CASES_SHA256
    batched = convex_element_search_batch(cases)
    assert len(batched) == len(cases)
    for poly, want, got in zip(cases, single, batched):
        assert (want is None) == (got is None)
        if want is not None:
            assert got.base is poly
            assert np.array_equal(got.c, want.c)
    assert {el is None for el in batched} == {True, False}
    assert convex_element_search_batch([]) == []


def test_n4_closed_form_gives_the_sweeps_element():
    # the closed form keeps, in their order, the rows of the old sweep
    # (reference.candidates_n4) that the convexity box can pass: d, the
    # conic's points at c_0 = d_0 and at c_1 = d_1, and the degenerate lines;
    # so the selection picks the same element from both, bit for bit.  On
    # every polygon here that element is c = d.
    polys = [derive_orbit_polygon(z) for z in (
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],       # square
        [[0, 0], [2, 0], [3, 1], [1, 1]],           # parallelogram
        [[-1, 0], [1, 0], [0.5, 1], [-0.5, 1]])]    # trapezoid
    for seed in (1, 7, 11, 1729):
        rngs = lab._spawned_rngs(seed, 250)
        polys += lab.sample_orbit_polygons(4, 1, rngs[:200]) + lab._random_trapezoids(rngs[200:])
    sweeps = [reference.candidates_n4(poly) for poly in polys]
    for poly, sweep in zip(polys, sweeps):
        rows, at = [c.tobytes() for c in sweep], -1
        for c in _candidates_n4(poly):
            at = rows.index(c.tobytes(), at + 1)  # a ValueError if it is not there
    owner = np.repeat(np.arange(len(polys)), [len(sweep) for sweep in sweeps])
    want = outerlab.elements._most_convex_each(polys, np.concatenate(sweeps), owner)
    got = convex_element_search_batch(polys)
    assert any(len(_candidates_n4(p)) >= 4 for p in polys)  # degenerate lines
    for poly, w, g in zip(polys, want, got):
        assert g.c.tobytes() == w.c.tobytes() == poly.dvec.tobytes()
        assert (g.is_special_minus, g.is_special_plus) == (w.is_special_minus, w.is_special_plus)


def _selection_sets(poly, rng):
    """Three candidate sets of one polygon for the selection, and a row
    that ties an integral element: the search's own rows behind an invalid
    top row, that tie, NaN rows and the element; then variety points of
    slack within a few eps = convexity_tol of 0, above and below -eps (the
    conic, or the chart at c_0 = d_0 + t and d elsewhere); then those of
    them below -eps."""
    n, d, D, eps = poly.n, poly.dvec, poly.delta, convexity_tol(poly)
    own = (reference.candidates_n4(poly) if n == 4 else
           list(_candidates_chart([poly])[0]) + [-d] + ([d] if n == 6 else []))
    base = d if n % 2 == 0 else -d  # an integral element
    j = int(np.argmax(d - base))  # an entry off the argmin of the slack
    tie = base.copy()
    tie[j] = np.nextafter(tie[j], -np.inf)  # the same slack, other bits
    made = [tie, base.copy(), np.full(n, np.nan), np.where(np.arange(n) == 1, np.nan, base)]
    made = [made[k] for k in rng.permutation(len(made))]
    a = d[0] + eps * np.array([-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0])
    # and the floor's float neighbours, where d - c >= -eps and c <= d + eps part
    a = rng.permutation(np.append(a, np.nextafter(a[-3], [-np.inf, np.inf])))
    if n == 4:
        K = D[0] * D[2] - D[1] * D[3]
        near = np.stack([a, K / a, -a, -K / a], axis=1)
    else:
        near = _variety_point(poly, [a] + [np.full_like(a, x) for x in d[1:n - 3]], 0)[0]
    invalid = d - poly.scale**2  # the top slack, off the variety
    below = near[np.min(d - near, axis=1) < -eps]
    return [np.array([invalid] + made + own), near, below], tie


@pytest.mark.parametrize("n", [4, 5, 6])
def test_stacked_selection_matches_the_one_polygon_loop(sampled, n):
    # the stacked selection keeps the bits of the one-polygon loop it
    # replaced (reference.most_convex): the same row, c and flags, or None,
    # with the rows of the polygons interleaved
    rng = np.random.default_rng(53 + n)
    polys, sets, ties = [], [], []
    for poly in (p for m in range(1, (n + 1) // 2) for p in sampled[(n, m)][:6]):
        rows, tie = _selection_sets(poly, rng)
        polys += [poly] * len(rows)
        sets += rows
        ties.append(tie.tobytes())
    owner = np.repeat(np.arange(len(polys)), [len(r) for r in sets])
    slots = np.argsort(rng.permutation(owner), kind="stable")
    cands = np.empty((len(owner), n))
    cands[slots], owner[slots] = np.concatenate(sets), owner.copy()
    got = outerlab.elements._most_convex_each(polys, cands, owner)
    seen = set()
    for k, (poly, rows, el) in enumerate(zip(polys, sets, got)):
        want = reference.most_convex(poly, rows)
        assert (el is None) == (want is None)
        if k % 3 == 2:
            seen.add(("valid below", any(make_element(poly, c).is_valid for c in rows)))
        if want is None:
            continue
        assert el.base is poly
        assert el.c.tobytes() == want.c.tobytes()
        assert [el.is_valid, el.is_convex, el.is_special_minus, el.is_special_plus] == [
            want.is_valid, want.is_convex, want.is_special_minus, want.is_special_plus]
        seen.add(("found", k % 3))
        seen.add(("tie", el.c.tobytes() in ties))
        if k % 3 == 0:
            assert not make_element(poly, rows[0]).is_valid
        if k % 3 == 1:
            seen.add(("inside", -convexity_tol(poly) <= np.min(poly.dvec - el.c) < 0))
    assert ("found", 0) in seen and ("found", 2) not in seen
    if n % 2 == 0:
        # a tie, a winner within the floor and integral rows below it were met
        assert {("tie", True), ("inside", True), ("valid below", True)} <= seen
        assert ("inside", False) not in seen
    found = [el.c for el in got if el is not None]
    assert all(c.flags.owndata for c in found)
    assert not any(np.shares_memory(a, b) for a in found for b in found + [cands] if a is not b)


# ---------------------------------------------------------------------------
# Monodromy integrality test against the SVD reference

PAIRS_3_12 = [(n, m) for n in range(3, 13) for m in range(1, (n - 1) // 2 + 1)]

# The verdicts are compared outside this band of the reference distance
# (see _reference).  The two tests measure different things: near the
# variety, the ratio of the scaled monodromy residual to the reference
# distance spans ten decades over these cases (5e-18 to 1.4e-8), and the
# verdicts disagree at reference distances from 1.2e-5 to 280.  The band
# leaves a factor of about 4 on each side.  It is fixed here, not derived
# from the threshold under test, so a threshold moved 100x either way meets
# decided cases that it gets wrong.
REFERENCE_BAND = (3e-6, 1e3)


def _reference(poly, c):
    """The classification that the monodromy test replaced: rank n - 2 at
    the relative singular-value threshold 1e-9 and, on n = 4, 5, 6, the
    variety residual at most 1e-8.  Returns (verdict, distance), where the
    distance is the larger of the two measures over its threshold, so the
    verdict turns near distance 1."""
    n = poly.n
    M = build_matrix_C(poly, c).entries
    sv = np.linalg.svd(M, compute_uv=False)
    valid = numerical_rank(M, 1e-9) == n - 2
    dist = sv[n - 2] / sv[0] / 1e-9
    if n in (4, 5, 6):
        var = variety_residual_rel(poly, c)
        valid = valid and var <= 1e-8
        dist = max(dist, var / 1e-8)
    return valid, dist


def _skinny_pool(n, m, draws=60):
    """The first draw of a sampler and its draws closest to the angle floor
    and to the length floor."""
    sampler = OrbitSampler(n, m, seed=4000 + 10 * n + m)
    polys = [sample_orbit_polygon(sampler) for _ in range(draws)]
    turn = [min(x.min(), 1.0 - x.max()) for x in (p.exterior / np.pi for p in polys)]
    length = [p.s.min() / p.s.max() for p in polys]
    return polys[0], polys[int(np.argmin(turn))], polys[int(np.argmin(length))]


@functools.cache
def _skinny_pool_cached(n, m):
    return _skinny_pool(n, m)


def _oracle_cases():
    """(poly, c) pairs: exact elements, conic and chart candidates, and -d
    with one entry moved by 1e-2, 1e-3, 1e-6 and a decade sweep down to
    1e-13 of max|d|."""
    eps = sorted({1e-2, 1e-3, 1e-6, *10.0 ** -np.arange(4, 14)}, reverse=True)
    floors = [np.inf, np.inf]
    for n, m in PAIRS_3_12:
        for poly in _skinny_pool_cached(n, m):
            x = poly.exterior / np.pi
            floors[0] = min(floors[0], min(x.min(), 1.0 - x.max()) / ANGLE_MARGIN)
            floors[1] = min(floors[1], poly.s.min() / poly.s.max() / LENGTH_FLOOR)
            d = poly.dvec
            yield poly, -d
            if n % 2 == 0:
                yield poly, d.copy()
            if n == 4:
                yield from ((poly, c) for c in reference.candidates_n4(poly))
            if n in (5, 6):
                yield from ((poly, c) for c in _candidates_chart([poly])[0])
            for j in range(n):
                for e in eps:
                    c = -d.copy()
                    c[j] += e * np.max(np.abs(d))
                    yield poly, c
    # the pool reaches within a small factor of both sampler floors
    assert floors[0] < 3.0 and floors[1] < 3.0, floors


def test_monodromy_verdict_matches_svd_reference():
    lo, hi = REFERENCE_BAND
    near = {True: 0, False: 0}
    cases = 0
    for poly, c in _oracle_cases():
        want, dist = _reference(poly, c)
        if lo < dist < hi:
            continue
        cases += 1
        r = monodromy_residual(poly, c)
        assert make_element(poly, c).is_valid == want, (poly.n, poly.winding, c, dist, r)
        # count the cases decided within 100x of the threshold, on either side
        if INTEGRAL_TOL / 100 < r <= 100 * INTEGRAL_TOL:
            near[want] += 1
    assert cases > 2500
    # a threshold moved 100x either way meets decided cases it gets wrong
    assert near[True] > 0 and near[False] > 0, near


def _outcome(fn, *args):
    """The element's c bits, flags and base, or the error's type and text."""
    try:
        el = fn(*args)
    except OuterLabError as exc:
        return type(exc), str(exc)
    if el is None:
        return None
    flags = (el.is_valid, el.is_convex, el.is_special_minus, el.is_special_plus)
    assert all(type(f) is bool for f in flags)
    return el.c.tobytes(), flags, el.base


def _classification_vectors(poly):
    """c = -d and +d, -d with one entry moved by 1e-2, 1e-6 and 1e-13 of
    max|d|, d with one entry half and twice the convexity slack above,
    -d with one entry +0.0, -0.0, NaN, +inf or -inf, and a normal draw."""
    d, n = poly.dvec, poly.n
    big, eps = np.max(np.abs(d)), convexity_tol(poly)
    rng = np.random.default_rng(n)
    yield -d
    yield d.copy()
    for j in (0, n // 2):
        for e in (1e-2, 1e-6, 1e-13):
            c = -d.copy()
            c[j] += e * big
            yield c
        for e in (0.5, 2.0):
            c = d.copy()
            c[j] += e * eps
            yield c
        for x in (0.0, -0.0, np.nan, np.inf, -np.inf):
            c = -d.copy()
            c[j] = x
            yield c
    yield rng.normal(size=n) * poly.scale**2


def test_one_polygon_classification_matches_the_numpy_reference():
    # the plain-float classification keeps every flag, c bit and raised
    # error of the numpy classification it replaced (reference), on
    # sampler draws for n = 3..12 with the draws closest to the angle and
    # length floors, at the default tolerances and at tight ones
    verdicts = set()
    for n, m in PAIRS_3_12:
        for poly in _skinny_pool_cached(n, m):
            for c in _classification_vectors(poly):
                for tols in ((), (INTEGRAL_TOL, None), (1e-16, 0.0)):
                    got = _outcome(make_element, poly, c, *tols)
                    assert got == _outcome(reference.make_element, poly, c, *tols), (n, m, c, tols)
                    verdicts.add(got[1])
            for tol in (INTEGRAL_TOL, 1e-17):
                for fn in ("special_element_minus", "special_element_plus"):
                    got = _outcome(getattr(outerlab.elements, fn), poly, tol)
                    assert got == _outcome(getattr(reference, fn), poly, tol), (n, m, fn, tol)
                    verdicts.add(got[0])
    # valid and invalid, convex and not, both specials, and every error met
    assert {(True, True, False, True), (True, False, True, False), (False, False, False, False),
            (True, True, False, False), OddPeriod, ValidationFailed} <= verdicts, verdicts
    square = derive_orbit_polygon([[0, 0], [1, 0], [1, 1], [0, 1]][::-1])
    for fn in ("make_element", "special_element_minus", "special_element_plus"):
        args = (square, np.zeros(4)) if fn == "make_element" else (square,)
        assert _outcome(getattr(outerlab.elements, fn), *args) == (
            NotLocallyConvex, str(pytest.raises(NotLocallyConvex, getattr(reference, fn), *args).value))
    poly = _skinny_pool_cached(5, 2)[0]
    assert _outcome(make_element, poly, np.zeros(4)) == _outcome(reference.make_element, poly, np.zeros(4))


def _null_vectors(poly):
    """The half-edge vectors, moved by 1e-6 of the scale, and with one entry
    +0.0, -0.0, NaN, +inf or -inf."""
    yield poly.r
    yield poly.r + 1e-6 * poly.scale
    for x in (0.0, -0.0, np.nan, np.inf, -np.inf):
        v = poly.r.copy()
        v[1, 0] = x
        yield v


def test_null_certificate_matches_the_numpy_reference():
    for n, m in PAIRS_3_12:
        for poly in _skinny_pool_cached(n, m):
            for el in [special_element_minus(poly)] + ([special_element_plus(poly)] if n % 2 == 0 else []):
                for vecs in _null_vectors(poly):
                    for alternate in (False, True):
                        got = _outcome(_certify_null, poly, el, vecs, alternate)
                        want = _outcome(reference.certify_null, poly, el,
                                        _alternating(vecs) if alternate else vecs)
                        assert got == want, (n, m, vecs, alternate)


def test_null_certificates_fail_a_nan_residual(sampled):
    # a NaN residual fails the one-polygon certificate, as it fails the
    # stacked one (special_plus_certified compares with <=)
    poly = sampled[(6, 2)][0]
    el = special_element_plus(poly)
    vecs = _alternating(poly.r)
    _certify_null(poly, el, vecs)
    bad = vecs.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValidationFailed, match="null-vector residual nan"):
        _certify_null(poly, el, bad)
    assert not _null_residual(poly.delta, el.c, bad) <= _null_bound(poly.delta, el.c, bad)
    with pytest.raises(ValidationFailed, match="null-vector residual nan"):
        _certify_null(poly, el, np.full_like(vecs, np.nan))


def test_null_residual_matches_dense_product(sampled):
    rng = np.random.default_rng(5)
    for (n, m), polys in sampled.items():
        poly = polys[0]
        c = rng.normal(size=n) * poly.scale**2
        vecs = rng.normal(size=(n, 3))
        dense = np.max(np.abs(build_matrix_C(poly, c).entries @ vecs))
        assert np.isclose(_null_residual(poly.delta, c, vecs), dense, rtol=1e-12, atol=0.0)
        # on the special elements both are round-off of the same size
        want = np.max(np.abs(build_matrix_C(poly, -poly.dvec).entries @ poly.r))
        got = _null_residual(poly.delta, -poly.dvec, poly.r)
        assert got <= 1e-10 * poly.scale**3 and want <= 1e-10 * poly.scale**3


def test_overflowed_monodromy_is_not_integral(sampled):
    # the scale prod max(1, |p| + |q|) overflowed to inf and read the
    # residual as 0, so these vectors were integral elements; the variety
    # residual and its largest term were both inf, and their quotient NaN
    star = sample_orbit_polygon(OrbitSampler(n=5, m=2, seed=7))  # `outerlab sample 5 2 --seed 7`
    for poly in sampled[(5, 2)][:3] + [star]:
        for c in ([1e155, 1e155, 1.0, 1.0, 1.0], [1e160, -1e160, 0.0, 0.0, 0.0]):
            assert monodromy_residual(poly, c) == np.inf
            assert monodromy_residuals(poly.delta[None], np.array([c])).tolist() == [np.inf]
            assert not make_element(poly, c).is_valid
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert variety_residual_rel(poly, c) == np.inf


def test_stacked_monodromy_keeps_the_bits(sampled):
    rng = np.random.default_rng(17)
    for (n, m), polys in sampled.items():
        delta = np.stack([p.delta for p in polys])
        for c in (np.stack([p.dvec for p in polys]), -np.stack([p.dvec for p in polys]),
                  rng.normal(size=delta.shape) * delta):
            want = [monodromy_residual(p, cj) for p, cj in zip(polys, c)]
            assert monodromy_residuals(delta, c).tolist() == want


def test_stacked_null_residual_keeps_the_bits(sampled):
    rng = np.random.default_rng(19)
    for (n, m), polys in sampled.items():
        delta = np.stack([p.delta for p in polys])
        c = rng.normal(size=delta.shape)
        vecs = rng.normal(size=(len(polys), n, 2))
        want = [_null_residual(p.delta, cj, v) for p, cj, v in zip(polys, c, vecs)]
        assert _null_residual(delta, c, vecs).tolist() == want


def _plus_certifies(poly, tol):
    try:
        special_element_plus(poly, tol)
    except ValidationFailed:
        return False
    return True


def test_stacked_corner_check_matches_special_element_plus(sampled):
    # the (6,2) verifier checks c = +d on its certified trials as one stack
    for polys in ([*sampled[(6, 1)], *sampled[(6, 2)]], sampled[(8, 3)], sampled[(4, 1)]):
        assert special_plus_certified(polys).all()
        # at the median residual as tolerance, about half the stack fails
        tol = float(np.median([monodromy_residual(p, p.dvec) for p in polys]))
        want = [_plus_certifies(p, tol) for p in polys]
        assert 0 < sum(want) < len(want)
        assert special_plus_certified(polys, tol).tolist() == want
    assert special_plus_certified([]).tolist() == []
    with pytest.raises(OddPeriod):
        special_plus_certified(sampled[(5, 2)][:1])


def test_array_dataclasses_compare_by_identity(square):
    # ndarray fields make field-wise == ambiguous; these classes compare and
    # hash by identity instead
    curve = ConvexCurve.circle(samples=8)
    el = make_element(square, square.dvec.copy())
    objects = [
        (curve, ConvexCurve.circle(samples=8)),
        (square, derive_orbit_polygon(square.vertices)),
        (el, make_element(square, square.dvec.copy())),
        (build_matrix_C(square, np.zeros(4)), build_matrix_C(square, np.zeros(4))),
        (CurvatureProfile(kappa=np.ones(4)), CurvatureProfile(kappa=np.ones(4))),
        (iterate(curve, np.array([2.0, 0.0]), steps=3), iterate(curve, np.array([2.0, 0.0]), steps=3)),
    ]
    for a, b in objects:
        assert a == a and not (a == b) and a != b
        assert len({a, b, a}) == 2


def test_element_owns_its_coefficients(sampled):
    poly = sampled[(6, 2)][0]
    c = -poly.dvec
    el = make_element(poly, c)
    c[0] += poly.scale**2  # the caller reuses its array
    assert np.array_equal(el.c, -poly.dvec)
    assert el.is_valid and el.rank_margin > 1e-6


def test_public_names_resolve():
    # a name left in __all__ after its object is gone breaks star imports
    missing = [name for name in outerlab.__all__ if not hasattr(outerlab, name)]
    assert not missing, missing
