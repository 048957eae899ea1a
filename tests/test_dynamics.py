"""Outer map: support points, orientation, periods, singular detection.

The triangle period-6 orbit used here was worked out by hand: starting at
(0, -1) below the apex-up equilateral triangle, six reflections through
alternating vertices close the hexagon exactly, winding around twice.
"""

import dataclasses
import hashlib
import json
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from outerlab import dynamics
from outerlab.dynamics import (
    SINGULAR_ABORT,
    SINGULAR_FLAG,
    ConvexCurve,
    OrbitRecord,
    _sight_root,
    _support,
    iterate,
    orbit_polygon,
    outer_map,
    tangency_point,
)
from outerlab.errors import (
    DegeneratePolygon,
    InputError,
    InsideCurve,
    NotPeriodic,
    SingularLine,
    SingularOrbit,
    ValidationFailed,
)
from outerlab.geometry import derive_orbit_polygon, det2, inner2, regular_star
from outerlab.jsonio import record_to_dict

from conftest import SQUARE_VERTICES, TRIANGLE_VERTICES
from reference import bisect_crossing

SQRT3 = np.sqrt(3.0)

# one full revolution of the hand-checked orbit
TRIANGLE_ORBIT = np.array(
    [
        [0.0, -1.0],
        [SQRT3, 0.0],
        [-SQRT3, 2.0],
        [0.0, -3.0],
        [SQRT3, 2.0],
        [-SQRT3, 0.0],
    ]
)


@pytest.fixture(scope="module")
def tri_curve():
    return ConvexCurve.polygon(TRIANGLE_VERTICES)


@pytest.fixture(scope="module")
def sq_curve():
    return ConvexCurve.polygon(SQUARE_VERTICES)


@pytest.fixture(scope="module")
def circle():
    return ConvexCurve.circle(radius=1.0, samples=4096)


def test_curve_validation_rejects_nonconvex():
    with pytest.raises(InputError):
        ConvexCurve.polygon([[0.0, 0.0], [2.0, 1.0], [0.0, 0.5], [-2.0, 1.0]])
    with pytest.raises(InputError):
        ConvexCurve.polygon([[0.0, 0.0], [1.0, 0.0]])


def test_curve_validation_rejects_unknown_kinds():
    # a kind other than polygon or smooth was accepted, and iterate then
    # died with a bare ValueError in _sight_flips
    for kind in ("foo", "Polygon", None):
        with pytest.raises(InputError, match="unknown curve kind"):
            ConvexCurve(kind=kind, points=SQUARE_VERTICES)


def test_curve_validation_rejects_multiple_windings():
    # Every turn of a star polygon is to the left, but the boundary goes
    # round more than once.
    for n, m in ((5, 2), (7, 2), (7, 3)):
        with pytest.raises(InputError, match="wind"):
            ConvexCurve.polygon(regular_star(n, m))
    assert ConvexCurve.polygon(regular_star(7, 1)).diameter > 0
    th = np.linspace(0.0, 4.0 * np.pi, 63, endpoint=False)
    twice = np.column_stack([2.0 * np.cos(th), np.sin(th)])
    with pytest.raises(InputError, match="wind"):
        ConvexCurve.smooth(twice)
    with pytest.raises(InputError, match="wind"):
        ConvexCurve.smooth(twice, np.column_stack([-2.0 * np.sin(th), np.cos(th)]))


def test_curves_whose_products_overflow_are_rejected():
    # the NaN cross products passed the convexity test, and iterate then
    # died with an OverflowError from diameter**2
    square = 1e160 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for make in (lambda: ConvexCurve.circle(radius=1e160),
                     lambda: ConvexCurve.polygon(square),
                     lambda: ConvexCurve.circle(radius=1e154)):
            with pytest.raises(InputError, match="too large"):
                make()


def test_tiny_curves_name_underflow():
    # their edge cross products underflow to 0, which read as a flat turn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert ConvexCurve.circle(radius=1e-154).diameter > 0
        for radius in (1e-160, 1e-200):
            with pytest.raises(InputError, match="too small: its edge products underflow"):
                ConvexCurve.circle(radius=radius)
        with pytest.raises(InputError, match="strictly convex and counterclockwise"):
            ConvexCurve.polygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])


def test_curve_basic_queries(sq_curve):
    assert sq_curve.contains([0.0, 0.0])
    assert sq_curve.contains([1.0, 1.0])  # boundary counts as inside
    assert not sq_curve.contains([1.5, 0.0])
    assert sq_curve.distance_to_boundary([2.0, 0.0]) == pytest.approx(1.0)
    assert sq_curve.distance_to_boundary([0.5, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_square_tangency_oracle(sq_curve):
    p = tangency_point(sq_curve, [2.0, 0.5])
    assert np.allclose(p, [1.0, 1.0])
    assert np.allclose(outer_map(sq_curve, [2.0, 0.5]), [0.0, 1.5])


def test_curve_stays_left_of_the_ray(sq_curve, circle):
    rng = np.random.default_rng(3)
    for curve in (sq_curve, circle):
        for _ in range(50):
            ang = rng.uniform(0, 2 * np.pi)
            z = np.array([np.cos(ang), np.sin(ang)]) * rng.uniform(1.7, 6.0)
            f = outer_map(curve, z)
            # every sampled boundary point sits on or left of the oriented ray
            side = det2(f - z, curve.points - z)
            assert np.min(side) > -1e-6 * curve.diameter**2
            # the tangency point is the midpoint of the reflection
            assert np.allclose((z + f) / 2.0, tangency_point(curve, z))


def test_circle_tangency_geometry(circle):
    p = tangency_point(circle, [2.0, 0.0])
    # |p| = 1 and the left-side convention picks the upper tangent point
    assert abs(np.hypot(*p) - 1.0) < 1e-6
    assert np.allclose(p, [0.5, SQRT3 / 2.0], atol=1e-4)
    # tangency: the radius is orthogonal to the sight line
    assert abs(np.dot(p, p - np.array([2.0, 0.0]))) < 1e-4


def test_inside_start_rejected(sq_curve, circle):
    with pytest.raises(InsideCurve):
        outer_map(sq_curve, [0.2, -0.3])
    with pytest.raises(InsideCurve):
        tangency_point(circle, [0.0, 0.0])


def test_singular_line_on_edge_extension(tri_curve):
    # (-2, -1/2) continues the bottom edge to the left: the supporting line
    # with the triangle on the left contains two vertices
    with pytest.raises(SingularLine):
        tangency_point(tri_curve, [-2.0, -0.5])
    with pytest.raises(SingularOrbit) as err:
        iterate(tri_curve, [-2.0, -0.5], steps=10)
    assert err.value.step == 0
    # from the mirrored point the edge line is a secant on the right side of
    # the sight ray, so the map is regular there
    assert np.allclose(tangency_point(tri_curve, [2.0, -0.5]), [0.0, 1.0])


def test_singular_orbit_mid_flight(tri_curve):
    # one reflection through the right vertex sends this start onto the
    # extension of the left edge, so the orbit aborts at step 1 instead of 0
    z = np.array([SQRT3 / 2.0, -3.5])
    w = outer_map(tri_curve, z)
    assert np.allclose(w, [SQRT3 / 2.0, 2.5])
    with pytest.raises(SingularOrbit) as err:
        iterate(tri_curve, z, steps=10)
    assert err.value.step == 1


def test_triangle_period_six(tri_curve):
    rec = iterate(tri_curve, [0.0, -1.0], steps=50)
    assert rec.period == 6
    assert rec.winding == 2
    assert rec.closure_residual == 0.0  # reflections through vertices are exact
    assert not rec.singular_flag
    assert np.allclose(rec.points[:6], TRIANGLE_ORBIT)
    # the recorded tail continues past the closure point
    assert np.array_equal(rec.points[6], rec.start)


def test_triangle_orbit_polygon_certified(tri_curve):
    rec = iterate(tri_curve, [0.0, -1.0], steps=50)
    poly = orbit_polygon(rec, curve=tri_curve)
    assert poly.n == 6
    assert poly.winding == 2
    assert poly.locally_convex
    # midpoints are the tangency points: here the triangle's vertices
    mids = poly.rbar
    dists = [tri_curve.distance_to_boundary(q) for q in mids]
    assert max(dists) < 1e-14


def test_perturbed_starts_keep_period(tri_curve):
    diam = tri_curve.diameter
    for k in range(6):
        ang = 2 * np.pi * k / 6 + 0.1
        z = TRIANGLE_ORBIT[0] + 1e-3 * diam * np.array([np.cos(ang), np.sin(ang)])
        rec = iterate(tri_curve, z, steps=100)
        assert rec.period == 6
        assert rec.winding == 2
        assert rec.closure_residual < 1e-9 * diam


def test_period_certification_needs_return(sq_curve):
    # a far start cannot close up in 8 steps: each double step translates
    # by at most twice the curve diameter
    rec = iterate(sq_curve, [10.1, 0.37], steps=8)
    assert rec.period is None
    assert rec.winding is None
    with pytest.raises(NotPeriodic):
        orbit_polygon(rec)


def test_iterate_input_validation(sq_curve):
    with pytest.raises(InputError):
        iterate(sq_curve, [3.0, 0.0], steps=0)
    # An infinite tol would certify any return as a period; NaN, zero or a
    # negative tol could never certify one.
    for tol in (np.inf, np.nan, 0.0, -1.0, -np.inf):
        with pytest.raises(InputError, match="tolerance"):
            iterate(sq_curve, [2.3, 0.7], steps=20, tol=tol)


def test_nonfinite_start_rejected(sq_curve, circle):
    for curve in (sq_curve, circle):
        for z in ([np.inf, 0.0], [np.nan, 1.0], [0.0, -np.inf]):
            with pytest.raises(InputError, match="finite"):
                iterate(curve, z, steps=3)
            with pytest.raises(InputError, match="finite"):
                outer_map(curve, z)
            with pytest.raises(InputError, match="finite"):
                tangency_point(curve, z)


def test_start_points_are_checked_alike_in_every_form(sq_curve):
    # a float64 (2,) array, the common start, is checked in plain floats
    # and kept as it is; every other form is converted first, and a bad
    # point of any form raises the same InputError
    z = np.array([2.3, 0.7])
    assert dynamics._plane_point(z) is z
    assert iterate(sq_curve, z, steps=3).start is z
    for good in ([2.3, 0.7], (2.3, 0.7), np.array([2.3, 0.7], dtype=np.float32),
                 np.array([2, 1]), z[::-1][::-1]):
        assert dynamics._plane_point(good).dtype == np.float64
    strided = np.array([[2.3, 9.0], [0.7, 9.0]])[:, 0]
    assert dynamics._plane_point(strided) is strided
    for bad in (np.array([np.nan, 0.7]), np.array([2.3, -np.inf]), np.array([np.inf, np.nan], dtype=np.float32),
                [0.0, np.nan], np.zeros(3), np.zeros((1, 2)), [1.0], np.array(2.0)):
        with pytest.raises(InputError, match="one finite plane point"):
            dynamics._plane_point(bad)
        with pytest.raises(InputError, match="one finite plane point"):
            iterate(sq_curve, bad, steps=1)


def test_smooth_curve_rejects_bad_tangents():
    th = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    tan = np.column_stack([-np.sin(th), np.cos(th)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any 0/0
        with pytest.raises(InputError, match="tangents"):
            ConvexCurve.smooth(pts, np.zeros_like(pts))
        for value in (0.0, np.nan, np.inf):
            bad = tan.copy()
            bad[5] = value
            with pytest.raises(InputError, match="tangents"):
                ConvexCurve.smooth(pts, bad)


def test_orbit_polygon_midpoint_gate(tri_curve, sq_curve):
    rec = iterate(tri_curve, [0.0, -1.0], steps=20)
    # against the wrong curve the midpoints are far from the boundary
    with pytest.raises(ValidationFailed):
        orbit_polygon(rec, curve=sq_curve)


def test_smooth_curve_without_tangents():
    th = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    pts = np.column_stack([2.0 * np.cos(th), np.sin(th)])  # ellipse
    curve = ConvexCurve.smooth(pts)  # tangents by central differences
    z = np.array([4.0, 1.0])
    f = outer_map(curve, z)
    p = (z + f) / 2.0
    assert curve.distance_to_boundary(p) < 1e-4
    side = det2(f - z, curve.points - z)
    assert np.min(side) > -1e-4 * curve.diameter**2


def test_circle_orbit_stays_on_invariant_ring(circle):
    # outer map around a circle preserves the distance to the center
    z = np.array([1.5, 0.4])
    radius = np.hypot(*z)
    for _ in range(25):
        z = outer_map(circle, z)
        assert abs(np.hypot(*z) - radius) < 1e-4


# Reference support: the per-vertex loop and the closed-form sight root on
# numpy scalars that the vectorized and plain-float forms in outerlab.dynamics
# replace.  Both must give the same support point and margin, bit for bit.


def _ref_support_polygon(curve, z):
    v = curve.points
    u = v - z
    best = 0
    for j in range(1, len(v)):
        if u[best, 0] * u[j, 1] - u[best, 1] * u[j, 0] < 0.0:
            best = j
    cross = det2(u[best], u)
    norms = np.hypot(u[:, 0], u[:, 1]) * float(np.hypot(*u[best]))
    sines = cross / norms
    sines[best] = np.inf
    margin = float(np.min(np.abs(sines)))
    if np.min(sines) < -SINGULAR_ABORT:
        raise SingularLine("no single clockwise-most vertex; z sees a tie")
    return v[best].copy(), margin


def _ref_support_smooth(curve, z):
    p = curve.points
    t = curve.tangents
    g = det2(p - z, t)
    sign = np.sign(g)
    nzi = np.nonzero(sign != 0)[0]
    if nzi.size < 2:
        raise SingularLine("sight function vanishes along the whole boundary")
    s = sign[nzi]
    flips = np.nonzero(s != np.roll(s, -1))[0]
    if len(flips) != 2:
        raise SingularLine("tangency condition is not a pair of simple roots")
    centroid = np.mean(p, axis=0)
    chosen = None
    for f in flips:
        k = int(nzi[f])
        k2 = int(nzi[(f + 1) % nzi.size])
        gap = (k2 - k) % len(p)
        if gap > 1:
            q = p[(k + gap // 2) % len(p)]
        else:
            q = _ref_sight_root(p[k], p[k2], t[k], t[k2], z, g[k], g[k2])
        if det2(q - z, centroid - z) > 0:
            chosen = q
    if chosen is None:
        raise SingularLine("no supporting point with the curve on the left")
    lo, hi = np.min(p, axis=0), np.max(p, axis=0)
    diameter = float(np.hypot(*(hi - lo)))
    u = p - z
    uc = chosen - z
    sines = det2(uc, u) / (np.hypot(*uc) * np.hypot(u[:, 0], u[:, 1]))
    ahead = inner2(u, uc) > 0
    far = np.hypot(*(p - chosen).T) > 2.0 * diameter / len(p) * 4.0
    mask = ahead & far
    margin = float(np.min(np.abs(sines[mask]))) if np.any(mask) else 1.0
    return chosen, margin


def _ref_sight_root(a, b, ta, tb, z, ga, gb):
    m = det2(a - z, tb) + det2(b - z, ta)
    k = max(abs(ga), abs(gb), abs(m))
    ua, ub, um = ga / k, gb / k, m / k
    r = np.sqrt(um * um - 4.0 * ua * ub)
    q = -0.5 * (um + r) if um >= 0.0 else 0.5 * (r - um)
    s = ua / (ua + q) if (q > 0.0) == (ga > 0.0) else q / (q + ub)
    return a + s * (b - a)


def _ref_support(curve, z):
    p = curve.points
    lo, hi = np.min(p, axis=0), np.max(p, axis=0)
    diameter = float(np.hypot(*(hi - lo)))
    side = det2(np.roll(p, -1, axis=0) - p, z - p)
    if np.all(side >= -1e-12 * diameter**2):
        raise InsideCurve("the outer map needs a point strictly outside the curve")
    if curve.kind == "polygon":
        q, margin = _ref_support_polygon(curve, z)
    else:
        q, margin = _ref_support_smooth(curve, z)
    if margin <= SINGULAR_ABORT:
        raise SingularLine("supporting line meets the curve in more than one point")
    return q, margin


def _ref_distance(curve, q):
    a = curve.points
    b = np.roll(a, -1, axis=0)
    ab = b - a
    tt = np.clip(np.sum((q - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    proj = a + tt[:, None] * ab
    return float(np.min(np.hypot(*(q - proj).T)))


def _outcome(fn, curve, z):
    try:
        q, margin = fn(curve, z)
    except (InsideCurve, SingularLine) as exc:
        return type(exc)
    return q.tolist(), margin


def _assert_support_matches(curve, starts):
    """Same point and margin (==), or the same exception, at every start;
    returns how many starts gave a regular support point."""
    regular = 0
    for z in starts:
        got = _outcome(_support, curve, z)
        assert got == _outcome(_ref_support, curve, z), z.tolist()
        regular += isinstance(got, tuple)
    return regular


def _random_convex_polygon(rng):
    k = int(rng.integers(3, 13))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    shear = np.array([[rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)],
                      [0.0, rng.uniform(0.5, 2.0)]])
    return ConvexCurve.polygon(ring @ shear.T + rng.normal(size=2))


def _starts_around(curve, rng, count, lo=0.8, hi=4.0):
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    rad = 0.5 * curve.diameter * rng.uniform(lo, hi, count)
    return curve.centroid + rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


def test_orbit_polygon_reuses_the_winding_polygon(tri_curve, monkeypatch):
    # iterate derives the orbit polygon once, for the winding; orbit_polygon
    # returns that polygon, and a record built by hand gets its own
    derived = []

    def counting(vertices, *args):
        derived.append(len(vertices))
        return derive_orbit_polygon(vertices, *args)

    monkeypatch.setattr(dynamics, "derive_orbit_polygon", counting)
    rec = iterate(tri_curve, [0.0, -1.0], steps=50)
    poly = orbit_polygon(rec, curve=tri_curve)
    assert derived == [6]
    assert poly is rec.polygon and poly.winding == rec.winding == 2
    assert "polygon" not in repr(rec) and "polygon" not in record_to_dict(rec)
    fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    by_hand = OrbitRecord(**{**fields, "polygon": None})
    again = orbit_polygon(by_hand, curve=tri_curve)
    assert derived == [6, 6]
    assert again is not poly
    assert np.array_equal(again.vertices, poly.vertices)
    assert np.array_equal(again.dvec, poly.dvec)
    # hand-built points that make no polygon still fail in the derive
    flat = OrbitRecord(**{**fields, "points": np.zeros((7, 2)), "polygon": None})
    with pytest.raises(DegeneratePolygon):
        orbit_polygon(flat)


def _ref_iterate(curve, z0, steps):
    """The loop on numpy pairs that iterate's plain-float loop replaces,
    stepping with _ref_support: (points, period, winding, closure residual,
    singular flag), or ("SingularOrbit", step)."""
    z0 = np.asarray(z0, dtype=float)
    tol = 1e-9 * curve.diameter
    pts, period, closure, flagged = [z0], None, np.inf, False
    z = z0
    for k in range(1, steps + 1):
        try:
            p, margin = _ref_support(curve, z)
        except SingularLine:
            return "SingularOrbit", k - 1
        flagged = flagged or margin < SINGULAR_FLAG
        z = 2.0 * p - z
        pts.append(z)
        resid = float(np.hypot(*(z - z0)))
        if resid < tol and k >= 3:
            try:
                p2, _ = _ref_support(curve, z)
            except SingularLine:
                return "SingularOrbit", k
            if np.hypot(*(2.0 * p2 - z - pts[1])) < 2.0 * tol:
                period, closure = k, resid
                break
    winding = None
    if period is not None:
        try:
            winding = derive_orbit_polygon(np.asarray(pts[:period])).winding
        except DegeneratePolygon:
            pass
    return np.asarray(pts), period, winding, closure, flagged


def _assert_record_matches(curve, z0, steps):
    """iterate gives the reference loop's record, bit for bit, or aborts at
    the same step; returns the reference outcome."""
    want = _ref_iterate(curve, z0, steps)
    try:
        rec = iterate(curve, z0, steps)
    except SingularOrbit as exc:
        assert want == ("SingularOrbit", exc.step), z0
        return want
    pts, period, winding, closure, flagged = want
    assert np.array_equal(rec.points, pts), z0
    assert (rec.period, rec.winding, rec.closure_residual, rec.singular_flag) == (
        period, winding, closure, flagged), z0
    return want


def _lattice_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ConvexCurve.polygon(ref["polygon"]), ref["starts"]


def test_iterate_matches_reference_on_lattice_orbits():
    curve, starts = _lattice_reference()
    for entry in starts:
        want = _assert_record_matches(curve, entry["start"], 1000)
        assert want[1:3] == (entry["period"], entry["winding"])


def test_iterate_matches_reference_on_random_polygons():
    rng = np.random.default_rng(31)
    outcomes = []
    for _ in range(30):
        try:
            curve = _random_convex_polygon(rng)
        except InputError:
            continue
        # Behind the tail of an edge the support line holds the whole edge:
        # the orbit aborts there, and just off that line the step is flagged.
        e = curve.edges[0]
        tail = curve.points[0] - 1.5 * e
        off = 3e-9 * curve.diameter * np.array([-e[1], e[0]]) / np.hypot(*e)
        starts = [*_starts_around(curve, rng, 4, 1.2, 6.0), tail, tail + off]
        outcomes += [_assert_record_matches(curve, z0, 200) for z0 in starts]
    singular = [w for w in outcomes if isinstance(w[0], str)]
    regular = [w for w in outcomes if not isinstance(w[0], str)]
    assert len(singular) >= 25
    assert 0 < sum(w[1] is not None for w in regular) < len(regular)
    assert 0 < sum(w[4] for w in regular) < len(regular)


@pytest.mark.parametrize("n", [48, 1000])
def test_iterate_matches_reference_on_regular_polygons(n):
    curve = ConvexCurve.polygon(regular_star(n, 1, radius=3.0, phase=0.1))
    rng = np.random.default_rng(n)
    for z0 in [(7.3, 1.1), *_starts_around(curve, rng, 3, 1.1, 4.0)]:
        _assert_record_matches(curve, z0, 200)


def _count_full_passes(monkeypatch):
    """Spy on the numpy pass over every edge side, which the hinted
    polygon step and the smooth step's binary search skip."""
    calls = []
    real = dynamics._sides

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_sides", spy)
    return calls


def _hinted_steps(curve, z0, steps):
    """(zx, zy, far) at every step of iterate's orbit from z0 after the
    first: far is the support vertex of the step before."""
    out, far = [], -1
    for zx, zy in iterate(curve, z0, steps).points.tolist()[:-1]:
        if far >= 0:
            out.append((zx, zy, far))
        far = dynamics._support_xy(curve, zx, zy)[3]
    return out


def test_one_full_pass_per_iterate_call(monkeypatch):
    curve, starts = _lattice_reference()
    calls = _count_full_passes(monkeypatch)
    for entry in starts:
        calls.clear()
        rec = iterate(curve, entry["start"], 1000)
        assert rec.period == entry["period"]
        assert len(calls) == 1, entry["start"]


def test_hinted_step_keeps_the_bits_of_the_full_pass(monkeypatch):
    # point, margin and vertex, ==, on every step of the reference orbits
    # and of orbits around regular 48- and 1000-gons; no hint misses
    curve, starts = _lattice_reference()
    cases = [(curve, entry["start"], 1000) for entry in starts]
    for n in (48, 1000):
        regular = ConvexCurve.polygon(regular_star(n, 1, radius=3.0, phase=0.1))
        cases += [(regular, z0, 300) for z0 in ((7.3, 1.1), (4.1, -2.9), (-3.3, 5.2))]
    calls = _count_full_passes(monkeypatch)
    steps = 0
    for c, z0, cap in cases:
        for zx, zy, far in _hinted_steps(c, z0, cap):
            calls.clear()
            got = dynamics._support_xy(c, zx, zy, far)
            assert calls == []
            assert got == dynamics._support_xy(c, zx, zy), (zx, zy)
            steps += 1
    assert steps > 8000


def test_hinted_margin_at_the_far_vertex(monkeypatch):
    # Close to a curve the far vertex can hold the smallest sine: just
    # outside an edge (the far vertex then neighbours the support vertex)
    # and below the kite's nearly flat vertex (two vertices from it).  The
    # far vertex is read off the sides here.
    rng = np.random.default_rng(43)
    kite = ConvexCurve.polygon([[-1.0, 0.0], [0.0, -0.05], [1.0, 0.0], [0.0, 1.0]])
    below = np.column_stack([rng.uniform(-0.3, 0.3, 100), -0.05 - 10.0 ** rng.uniform(-4, -1, 100)])
    cases = [(kite, below)]
    curves = [_lattice_reference()[0], ConvexCurve.polygon(SQUARE_VERTICES)]
    curves += [ConvexCurve.polygon(regular_star(n, 1, radius=3.0, phase=0.1)) for n in (12, 48)]
    for curve in curves:
        e = curve.edges
        normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.sqrt(curve.edge_len2)[:, None]
        push = curve.diameter * 10.0 ** rng.uniform(-6.0, -1.0, (len(e), 1))
        cases.append((curve, curve.points + rng.uniform(0.2, 0.8, (len(e), 1)) * e + push * normal))
    calls = _count_full_passes(monkeypatch)
    at_far = {1: 0, 2: 0}
    for curve, starts in cases:
        n = len(curve.points)
        for z in starts:
            zx, zy = z.tolist()
            faces = curve.sides(z) < 0.0
            far = int(np.flatnonzero(faces & ~np.roll(faces, 1))[0])
            try:
                want = dynamics._support_xy(curve, zx, zy)
            except SingularLine:
                continue
            calls.clear()
            assert dynamics._support_xy(curve, zx, zy, far) == want, (zx, zy)
            assert calls == []
            u = curve.points - z
            sines = np.abs(det2(u[want[3]], u)) / np.hypot(u[:, 0], u[:, 1])
            sines[want[3]] = np.inf
            if int(np.argmin(sines)) == far:
                at_far[min((want[3] - far) % n, (far - want[3]) % n)] += 1
    assert at_far[1] > 20 and at_far[2] > 20


def test_wrong_hint_falls_back_to_the_full_pass(monkeypatch):
    curve, starts = _lattice_reference()
    calls = _count_full_passes(monkeypatch)
    n = len(curve.points)
    for entry in starts[::8]:
        for zx, zy, far in _hinted_steps(curve, entry["start"], 1000)[:6]:
            q, margin = _ref_support(curve, np.array([zx, zy]))
            for wrong in range(n):
                if wrong == far:
                    continue
                calls.clear()
                qx, qy, got, _ = dynamics._support_xy(curve, zx, zy, wrong)
                assert len(calls) == 1
                assert ([qx, qy], got) == (q.tolist(), margin)


def test_hinted_step_within_inside_tol_takes_the_full_pass(monkeypatch, sq_curve):
    # the hint holds (edge 3, on x = 1, faces z, edge 2 does not) but no
    # side is below inside_tol: the full pass decides, and z counts as inside
    z = (1.0 + 1e-14, 0.5)
    side = sq_curve.sides(np.array(z))
    assert side[2] >= 0.0 > side[3] >= sq_curve.inside_tol
    calls = _count_full_passes(monkeypatch)
    with pytest.raises(InsideCurve):
        dynamics._support_xy(sq_curve, *z, 3)
    assert len(calls) == 1


def test_support_matches_reference_on_random_polygons():
    rng = np.random.default_rng(2024)
    regular = total = 0
    for _ in range(60):
        try:
            curve = _random_convex_polygon(rng)
        except InputError:  # two angles too close for strict convexity
            continue
        starts = _starts_around(curve, rng, 20)
        regular += _assert_support_matches(curve, starts)
        total += len(starts)
        # just outside an edge: inside by tolerance, singular, then regular
        e = curve.edges
        normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.sqrt(curve.edge_len2)[:, None]
        push = curve.diameter * 10.0 ** rng.uniform(-15.0, -3.0, (len(e), 1))
        _assert_support_matches(curve, curve.points + 0.5 * e + push * normal)
    assert regular > total // 2


def test_support_matches_reference_on_lattice_polygon():
    curve, starts = _lattice_reference()
    for entry in starts:
        z = np.asarray(entry["start"], dtype=float)
        orbit = [z]
        for _ in range(min(entry["period"], 24)):
            q, _ = _ref_support(curve, z)
            z = 2.0 * q - z
            orbit.append(z)
        assert _assert_support_matches(curve, orbit) == len(orbit)
    rng = np.random.default_rng(7)
    _assert_support_matches(curve, _starts_around(curve, rng, 200, 0.9, 3.0))


def test_support_matches_reference_on_a_regular_200_gon():
    curve = ConvexCurve.polygon(regular_star(200, 1, radius=3.0, phase=0.1))
    rng = np.random.default_rng(37)
    starts = _starts_around(curve, rng, 300, 0.9, 4.0)
    assert _assert_support_matches(curve, starts) > 200


def test_support_matches_reference_on_smooth_curves():
    rng = np.random.default_rng(11)
    circle = ConvexCurve.circle()
    th = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    ellipse = ConvexCurve.smooth(np.column_stack([2.0 * np.cos(th), np.sin(th)]))
    for curve in (circle, ellipse):
        starts = _starts_around(curve, rng, 30, 1.05, 3.0)
        assert _assert_support_matches(curve, starts) == len(starts)
        pick = curve.points[rng.integers(0, len(curve.points), 10)]
        inside = curve.centroid + rng.uniform(0.0, 0.95, (10, 1)) * (pick - curve.centroid)
        assert _assert_support_matches(curve, inside) == 0
    # The tangent x = 1 touches the unit circle exactly at the sample (1, 0):
    # the sight function is exactly zero there, no root is solved.
    assert _assert_support_matches(circle, [np.array([1.0, -2.0])]) == 1
    assert tangency_point(circle, [1.0, -2.0]).tolist() == [1.0, 0.0]


def _ellipse(samples=1024):
    th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return ConvexCurve.smooth(np.column_stack([2.0 * np.cos(th), np.sin(th)]))


def _count_root_solves(monkeypatch):
    calls = []
    real = dynamics._sight_root

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_sight_root", spy)
    return calls


def test_support_matches_reference_near_smooth_curves(monkeypatch):
    # Within 1e-7..1e-3 diameters of the curve both roots can sit on chords
    # that reach the z -> centroid line; the guard then solves both.
    calls = _count_root_solves(monkeypatch)
    rng = np.random.default_rng(19)
    solves = set()
    for curve in (ConvexCurve.circle(), _ellipse()):
        for z in _starts_near(curve, rng, 150):
            before = len(calls)
            if _assert_support_matches(curve, [z]):
                solves.add(len(calls) - before)
    assert solves == {1, 2}


def test_support_matches_reference_on_a_coarse_circle():
    rng = np.random.default_rng(23)
    curve = ConvexCurve.circle(samples=16)
    starts = _starts_around(curve, rng, 200, 1.05, 6.0)
    assert _assert_support_matches(curve, starts) == len(starts)
    near = _starts_around(curve, rng, 100, 0.95, 1.05)
    _assert_support_matches(curve, near)


def _thin_ellipse():
    """A 500:1 ellipse on 400 samples: near its tips many samples lie within
    the margin's reach of the support point."""
    th = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    return ConvexCurve.smooth(np.column_stack([500.0 * np.cos(th), np.sin(th)]))


def _uneven_ellipse():
    """A 3:1 ellipse sampled unevenly (spacings differ by a factor of 9),
    with central-difference tangents."""
    t = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    th = t + 0.8 * np.sin(t)
    return ConvexCurve.smooth(np.column_stack([3.0 * np.cos(th), np.sin(th)]))


def _turned_circle(turn=0.3):
    """A 512-sample circle whose tangents are turned by `turn`: the support
    point lies about 25 samples from the polygon's own tangent vertex, so on
    one side the far samples start with a run of negative sines."""
    circle = ConvexCurve.circle(samples=512)
    c, s = np.cos(turn), np.sin(turn)
    return ConvexCurve.smooth(circle.points, circle.tangents @ np.array([[c, s], [-s, c]]))


def _margin_curves():
    return [_thin_ellipse(), _uneven_ellipse(), _turned_circle(0.3), _turned_circle(-0.3),
            ConvexCurve.circle(samples=16), ConvexCurve.circle(samples=64)]


def _starts_near(curve, rng, count, lo=-7.0, hi=-3.0):
    """Starts 10^lo .. 10^hi diameters outside the chords of the curve."""
    e = curve.edges
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.sqrt(curve.edge_len2)[:, None]
    k = rng.integers(0, len(e), count)
    push = curve.diameter * 10.0 ** rng.uniform(lo, hi, (count, 1))
    return curve.points[k] + rng.uniform(0.0, 1.0, (count, 1)) * e[k] + push * normal[k]


def test_support_matches_reference_on_thin_uneven_and_coarse_curves():
    # near the coarse circles most starts see a tie: the same exception
    rng = np.random.default_rng(41)
    regular = 0
    for curve in _margin_curves():
        far = _starts_around(curve, rng, 60, 1.0, 5.0)
        assert _assert_support_matches(curve, far) > 30
        regular += _assert_support_matches(curve, _starts_near(curve, rng, 60))
    assert regular > 80


def _whole_curve_margin(curve, z, q):
    """The margin formula of _ref_support_smooth, on every sample."""
    u = curve.points - z
    uc = q - z
    sines = det2(uc, u) / (np.hypot(*uc) * np.hypot(u[:, 0], u[:, 1]))
    far = np.hypot(*(curve.points - q).T) > 2.0 * curve.diameter / len(u) * 4.0
    mask = (inner2(u, uc) > 0) & far
    return float(np.min(np.abs(sines[mask]))) if np.any(mask) else 1.0


def test_windowed_margin_equals_the_whole_curve_pass():
    # Over 10 000 regular starts, far and near, through both bracket
    # finders (the turned circles take the full pass).  Distant starts along
    # the thin ellipse's axis see its flat sides nearly edge-on, with
    # margins down to 1e-12; the margin is read before the abort test, so
    # those are compared as well.
    rng = np.random.default_rng(43)
    cases = [(curve, np.concatenate([_starts_around(curve, rng, 1500, 1.0, 5.0),
                                     _starts_near(curve, rng, 1000)]))
             for curve in [*_margin_curves(), ConvexCurve.circle()]]
    sign = rng.choice([-1.0, 1.0], 500)
    axis = np.column_stack([sign * 10.0 ** rng.uniform(3.0, 9.0, 500), rng.uniform(-1.5, 1.5, 500)])
    cases.append((cases[0][0], axis))
    compared, smallest = 0, 1.0
    for curve, starts in cases:
        for z in starts:
            if curve.contains(z):
                continue
            try:
                *q, margin, _ = dynamics._support_smooth(curve, *z.tolist())
            except SingularLine:
                continue
            assert margin == _whole_curve_margin(curve, z, np.array(q)), z.tolist()
            compared += 1
            smallest = min(smallest, margin)
    assert compared >= 10_000
    assert smallest < SINGULAR_ABORT


def _count_walked(monkeypatch):
    """The number of samples each margin walk reads, in call order."""
    reads = []
    real = dynamics._margin_walk

    def spy(*args):
        margin, read = real(*args)
        reads.append(read)
        return margin, read

    monkeypatch.setattr(dynamics, "_margin_walk", spy)
    return reads


def test_margin_reads_the_samples_next_to_the_support_point(monkeypatch):
    rng = np.random.default_rng(47)
    reads = _count_walked(monkeypatch)
    circle = ConvexCurve.circle()
    for z in _starts_around(circle, rng, 40, 1.05, 4.0):
        del reads[:]
        assert _assert_support_matches(circle, [z]) == 1
        assert len(reads) == 2 and 0 < sum(reads) <= 2 * 64
    # near a tip of the thin ellipse more than 16 samples on a side lie
    # within reach of q: the walk goes on, and the margin still matches
    thin = _thin_ellipse()
    widened = 0
    for z in [*_starts_around(thin, rng, 30, 1.05, 3.0), *_starts_near(thin, rng, 30)]:
        del reads[:]
        if _assert_support_matches(thin, [z]):
            assert len(reads) == 2 and sum(reads) < len(thin.points)
            widened += max(reads) > 16
    assert widened > 10


def test_sight_premise_holds_where_tangents_lie_between_chords():
    # central differences on a strictly convex sampling and the analytic
    # tangents of the circle and the ellipse lie between their chords; the
    # turned tangents do not, and a polygon has no tangents
    th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    analytic = ConvexCurve.smooth(np.column_stack([2.0 * np.cos(th), np.sin(th)]),
                                  np.column_stack([-2.0 * np.sin(th), np.cos(th)]))
    for curve in (ConvexCurve.circle(), ConvexCurve.circle(samples=16), _ellipse(),
                  _thin_ellipse(), _uneven_ellipse(), analytic):
        ang, first = curve.sight_angles
        assert len(ang) == len(curve.points) and ang == sorted(ang)
        c = curve.points[first] - curve.centroid
        assert ang[0] == np.arctan2(c[1], c[0])
    for curve in (_turned_circle(0.3), _turned_circle(-0.3), ConvexCurve.polygon(SQUARE_VERTICES)):
        assert curve.sight_angles is None


def test_far_smooth_starts_take_no_full_pass(monkeypatch):
    rng = np.random.default_rng(53)
    calls = _count_full_passes(monkeypatch)
    for curve in (ConvexCurve.circle(), _ellipse(), _uneven_ellipse()):
        for z in _starts_around(curve, rng, 100, 1.5, 6.0):
            if curve.contains(z):
                continue
            del calls[:]
            assert _assert_support_matches(curve, [z]) == 1
            assert calls == [], z.tolist()
    # every step around a turned circle takes the full pass (with the
    # tangents turned by +0.3 the orbit spirals inward, with -0.3 outward)
    turned = _turned_circle(0.3)
    for z in _starts_around(turned, rng, 40, 1.5, 6.0):
        del calls[:]
        assert _assert_support_matches(turned, [z]) == 1
        assert len(calls) == 1
    del calls[:]
    iterate(_turned_circle(-0.3), [1.7, 0.4], steps=40)
    assert len(calls) == 40


def test_binary_search_brackets_come_in_the_full_pass_order():
    # _support_smooth reads the brackets in order: where both roots pass the
    # centroid test the later one wins, so _sight_run must return the full
    # pass's (k, k2, g_k, g_k2) tuples in the same order, with the same bits
    rng = np.random.default_rng(59)
    decided = 0
    for curve in (ConvexCurve.circle(), ConvexCurve.circle(samples=16), _ellipse()):
        far = _starts_around(curve, rng, 250, 1.05, 6.0)
        near = _starts_near(curve, rng, 250)
        for zx, zy in np.concatenate([far, near]).tolist():
            run = dynamics._sight_run(curve, zx, zy)
            if run is not None:
                assert run == dynamics._sight_flips(curve, zx, zy), (zx, zy)
                decided += 1
    assert decided > 1000


def test_smooth_step_within_inside_tol_takes_the_full_pass(monkeypatch):
    # 1e-10 diameters out along the normal of a sample's tangent, z lies
    # right of that tangent (g < 0 there) but within inside_tol of every
    # chord: the binary search may not decide, the full pass finds z inside
    circle = ConvexCurve.circle()
    calls = _count_full_passes(monkeypatch)
    for k in range(0, 2048, 97):
        p, t = circle.points[k], circle.tangents[k]
        z = p + 1e-10 * circle.diameter * np.array([t[1], -t[0]])
        assert det2(p - z, t) < 0.0
        assert np.all(circle.sides(z) >= circle.inside_tol)
        del calls[:]
        with pytest.raises(InsideCurve):
            _support(circle, z)
        assert len(calls) == 1


def _circle_with_exact_axes(samples):
    """The sampled unit circle with its axis samples and their tangents
    exact: a start on an axis tangent sees the sight function exactly 0."""
    circle = ConvexCurve.circle(samples=samples)
    pts, tan = circle.points.copy(), circle.tangents.copy()
    pts[np.abs(pts) < 1e-15] = 0.0
    tan[np.abs(tan) < 1e-15] = 0.0
    return ConvexCurve.smooth(pts, tan)


def test_support_at_an_exact_sample_tangency(monkeypatch):
    calls = _count_root_solves(monkeypatch)
    passes = _count_full_passes(monkeypatch)
    for samples in (16, 64, 2048):
        curve = _circle_with_exact_axes(samples)
        for s in (0.5, 2.0, 3.0, 40.0):
            touch = {(1.0, -s): [1.0, 0.0], (s, 1.0): [0.0, 1.0],
                     (-1.0, s): [-1.0, 0.0], (-s, -1.0): [0.0, -1.0]}
            for z, q in touch.items():
                z = np.array(z)
                # the chosen root is the zero sample itself; the other
                # bracket lies wholly on the wrong side and is skipped
                assert _assert_support_matches(curve, [z]) == 1
                assert tangency_point(curve, z).tolist() == q
                # mirrored through q, the zero sample is the other root
                assert _assert_support_matches(curve, [2.0 * np.array(q) - z]) == 1
    # one solve per pair of calls: the mirrored start's chosen root
    assert len(calls) == 3 * 4 * 4
    # a bracket of the binary search ends on the zero sample: every call
    # takes the full pass, which brackets the crossing across the zero
    assert len(passes) == 3 * 4 * 4 * 3


def test_guard_solves_a_bracket_that_touches_the_centroid_line(monkeypatch):
    # Just off the curve on an axis, the axis sample shared by both brackets
    # lies within round-off of the z -> centroid line: neither bracket may
    # be skipped, whatever the sign of the det at that sample.
    calls = _count_root_solves(monkeypatch)
    curve = _circle_with_exact_axes(2048)
    for delta in (1e-7, 1e-6, 3e-6):
        for eta in (1e-20, 0.0, -1e-20):
            r = 1.0 + delta
            for z in ([r, eta], [-r, eta], [eta, r], [eta, -r]):
                del calls[:]
                assert _assert_support_matches(curve, [np.array(z)]) == 1
                assert len(calls) == 2, z


def test_one_root_solve_per_regular_step(monkeypatch):
    calls = _count_root_solves(monkeypatch)
    rng = np.random.default_rng(29)
    for curve in (ConvexCurve.circle(), _ellipse()):
        for z0 in _starts_around(curve, rng, 15, 1.1, 3.0):
            del calls[:]
            rec = iterate(curve, z0, steps=8)
            assert len(rec.points) == 9 and len(calls) == 8
            assert _assert_support_matches(curve, rec.points[:-1]) == 8


def _exact_sight_point(a, b, ta, tb, zx, zy):
    """The chord point at the positive root of the sight quadratic, from
    the float inputs taken exactly, in decimal at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        ax, ay, bx, by, tax, tay, tbx, tby, zx, zy = map(Decimal, (*a, *b, *ta, *tb, zx, zy))
        ga = (ax - zx) * tay - (ay - zy) * tax
        gb = (bx - zx) * tby - (by - zy) * tbx
        m = (ax - zx) * tby - (ay - zy) * tbx + (bx - zx) * tay - (by - zy) * tax
        r = (m * m - 4 * ga * gb).sqrt()
        # ga gb < 0: one root is positive
        t = max((-m + r) / (2 * gb), (-m - r) / (2 * gb))
        s = t / (1 + t)
        return (1 - s) * ax + s * bx, (1 - s) * ay + s * by


def _ulp(a, b):
    """The ulp of the largest |coordinate| of the points a and b."""
    return np.spacing(max(map(abs, a + b)))


def _solved_brackets(calls, curve, starts):
    """The arguments of every root solve made for the starts' supports."""
    for z in starts:
        del calls[:]
        try:
            _support(curve, z)
        except SingularLine:
            pass
        yield from list(calls)


def test_sight_root_is_within_two_ulp_of_the_exact_root(monkeypatch):
    # The bound is 2 ulp of the largest |coordinate| of the chord ends.  The
    # bisection oracle meets it on far starts.  Near the curve its halvings
    # compare the sight function at rounded chord points, an error that
    # grows as z nears the curve (up to about 1.7e3 ulp on such starts),
    # while the closed form reads the chord ends alone.
    calls = _count_root_solves(monkeypatch)
    rng = np.random.default_rng(31)
    curves = [ConvexCurve.circle(), ConvexCurve.circle(samples=16), _ellipse(), _thin_ellipse()]
    brackets = 0
    for curve in curves:
        far = _starts_around(curve, rng, 60, 1.05, 6.0)
        near = _starts_near(curve, rng, 100, -8.0, -1.0)
        for args in _solved_brackets(calls, curve, np.concatenate([far, near])):
            q = _sight_root(*args)
            exact = _exact_sight_point(*args[:6])
            assert max(abs(Decimal(q[j]) - exact[j]) for j in (0, 1)) <= 2 * _ulp(*args[:2])
            brackets += 1
        for args in _solved_brackets(calls, curve, far):
            a, b, ta, tb, zx, zy, ga, _ = args
            oracle = bisect_crossing(*map(np.array, (a, b, ta, tb, (zx, zy))), ga)
            assert np.max(np.abs(np.subtract(_sight_root(*args), oracle))) <= 2 * _ulp(a, b)
    assert brackets > 450


@pytest.mark.parametrize("radius", [1e150, 1e-150])
def test_smooth_orbit_at_extreme_scales(radius):
    curve = ConvexCurve.circle(radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = iterate(curve, [1.7 * radius, 0.4 * radius], steps=20)
    assert len(rec.points) == 21 and np.all(np.isfinite(rec.points))
    r = np.hypot(rec.points[:, 0], rec.points[:, 1]) / radius
    assert np.max(np.abs(r - r[0])) < 1e-9


# Points of the two smooth orbits that CI runs through the command line:
# the 2048-sample circle from (1.7, 0.4) and the 400-sample 500:1 ellipse
# from (-499.9, 0.5), 500 steps each.  Any change to their bits shows here.
# Re-pin only after a diff of one step at a time against the parent, each
# version's support point from the same z: the ellipse orbit grows a
# last-bit move to several hundred within its 500 steps.
SMOOTH_ORBITS_SHA256 = "7655f36d2af17c2bb411b306238add9cc5dc743829406cd9b9781680338c28f6"


def test_smooth_orbits_keep_their_bits():
    h = hashlib.sha256()
    for curve, z0 in ((ConvexCurve.circle(), (1.7, 0.4)), (_thin_ellipse(), (-499.9, 0.5))):
        h.update(iterate(curve, z0, steps=500).points.tobytes())
    assert h.hexdigest() == SMOOTH_ORBITS_SHA256


def test_edge_extension_is_singular_in_both_supports():
    rng = np.random.default_rng(5)
    curves = [ConvexCurve.polygon(TRIANGLE_VERTICES), ConvexCurve.polygon(SQUARE_VERTICES)]
    curves += [_random_convex_polygon(rng) for _ in range(6)]
    for curve in curves:
        v, e = curve.points, curve.edges
        for k in range(len(v)):
            # behind the edge's tail, the support line contains the edge
            z = v[k] - rng.uniform(0.2, 3.0) * e[k]
            with pytest.raises(SingularLine):
                _support(curve, z)
            with pytest.raises(SingularLine):
                _ref_support(curve, z)
            # beyond its head the edge's line is a secant, and the map is regular
            z = v[(k + 1) % len(v)] + rng.uniform(0.2, 3.0) * e[k]
            assert _assert_support_matches(curve, [z]) == 1


def test_distance_to_boundary_array_matches_points():
    rng = np.random.default_rng(13)
    th = np.linspace(0.0, 2.0 * np.pi, 700, endpoint=False)
    curves = [
        ConvexCurve.polygon(SQUARE_VERTICES),
        ConvexCurve.polygon(TRIANGLE_VERTICES),
        ConvexCurve.smooth(np.column_stack([2.0 * np.cos(th), np.sin(th)])),
    ]
    for curve in curves:
        q = rng.normal(scale=curve.diameter, size=(3, 7, 2))
        got = curve.distance_to_boundary(q)
        assert got.shape == (3, 7)
        want = [[curve.distance_to_boundary(x) for x in row] for row in q]
        assert isinstance(want[0][0], float)
        assert got.tolist() == want
        assert want == [[_ref_distance(curve, x) for x in row] for row in q]


def test_circle_map_against_exact_rotation():
    # Around a circle of radius 1 the exact map keeps r = |z| and turns z
    # counterclockwise by 2 arccos(1/r).  The sampled model reflects through
    # a chord point q with the interpolated tangent; on a circle that tangent
    # is q turned by 90 degrees, so q.z = |q|^2 and |z| is kept exactly,
    # while the turn is 2 arccos(|q|/r).  With |q| >= cos(pi/N) this exceeds
    # the exact turn by at most 2 (1 - cos(pi/N)) / sqrt(r^2 - 1), which the
    # chord midpoints reach (measured: up to 3.6e-6 at N = 2048 for these
    # starts).  1e-12 absorbs round-off in the angle itself.
    samples = 2048
    circle = ConvexCurve.circle(1.0, samples=samples)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(6):
        r0 = rng.uniform(1.1, 3.0)
        a = rng.uniform(0.0, 2.0 * np.pi)
        rec = iterate(circle, r0 * np.array([np.cos(a), np.sin(a)]), steps=40)
        z, w = rec.points[:-1], rec.points[1:]
        r = np.hypot(z[:, 0], z[:, 1])
        turn = np.arctan2(det2(z, w), inner2(z, w))
        err = turn - 2.0 * np.arccos(1.0 / r)
        bound = 2.0 * (1.0 - np.cos(np.pi / samples)) / np.sqrt(r**2 - 1.0)
        assert np.all(err >= -1e-12)
        assert np.all(err <= bound + 1e-12)
        assert np.max(np.abs(np.hypot(*rec.points.T) - r0)) < 1e-9
        worst = max(worst, float(np.max(err)))
    assert 1e-6 < worst < 1e-5


def _period_counts(vertices):
    curve = ConvexCurve.polygon(vertices)
    counts = {}
    grid = np.linspace(-3.0, 3.0, 21)
    for x in grid:
        for y in grid:
            if curve.contains([x, y]):
                continue
            try:
                key = iterate(curve, [x, y], 60).period
            except SingularOrbit:
                key = "singular"
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_period_four_needs_a_parallelogram():
    # Period-4 orbits fill open sets only when four corners form a
    # parallelogram (Tumanov-Zharnitsky): on a 21 x 21 grid of starts the
    # square has them, a trapezoid and a generic quadrilateral have none.
    square = _period_counts([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert square == {4: 168, 8: 144, "singular": 80}
    trapezoid = _period_counts([[-1.2, -1], [1.2, -1], [0.7, 1], [-0.7, 1]])
    assert trapezoid == {8: 6, None: 338, "singular": 54}
    quad = _period_counts([[-1.1, -0.9], [1.3, -1], [0.8, 1.2], [-0.9, 0.7]])
    assert quad == {6: 56, 8: 19, 10: 24, 14: 23, 36: 24, None: 243, "singular": 5}
