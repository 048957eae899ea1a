"""Outer map: support points, orientation, periods, singular detection.

The triangle period-6 orbit used here was worked out by hand: starting at
(0, -1) below the apex-up equilateral triangle, six reflections through
alternating vertices close the hexagon exactly, winding around twice.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from outerlab import dynamics
from outerlab.dynamics import (
    SINGULAR_ABORT,
    SINGULAR_FLAG,
    ConvexCurve,
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

from conftest import SQUARE_VERTICES, TRIANGLE_VERTICES

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


# Reference support: the per-vertex loop and the bisection on numpy scalars
# that the vectorized and plain-float forms in outerlab.dynamics replace.
# Both must give the same support point and margin, bit for bit.


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
            a, b = p[k], p[k2]
            ta, tb = t[k], t[k2]
            ga = g[k]
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                q = (1 - mid) * a + mid * b
                tq = (1 - mid) * ta + mid * tb
                gm = det2(q - z, tq)
                if (gm > 0) == (ga > 0):
                    lo = mid
                    ga = gm
                else:
                    hi = mid
            q = (1 - 0.5 * (lo + hi)) * a + 0.5 * (lo + hi) * b
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


def test_iterate_matches_reference_on_lattice_orbits():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    curve = ConvexCurve.polygon(ref["polygon"])
    for entry in ref["starts"]:
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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    curve = ConvexCurve.polygon(ref["polygon"])
    for entry in ref["starts"]:
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
    # the sight function is exactly zero there, the bisection is skipped.
    assert _assert_support_matches(circle, [np.array([1.0, -2.0])]) == 1
    assert tangency_point(circle, [1.0, -2.0]).tolist() == [1.0, 0.0]


def _ellipse(samples=1024):
    th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return ConvexCurve.smooth(np.column_stack([2.0 * np.cos(th), np.sin(th)]))


def _count_bisections(monkeypatch):
    calls = []
    real = dynamics._bisect_crossing

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "_bisect_crossing", spy)
    return calls


def test_support_matches_reference_near_smooth_curves(monkeypatch):
    # Within 1e-7..1e-3 diameters of the curve both roots can sit on chords
    # that reach the z -> centroid line; the guard then bisects both.
    calls = _count_bisections(monkeypatch)
    rng = np.random.default_rng(19)
    bisections = set()
    for curve in (ConvexCurve.circle(), _ellipse()):
        e = curve.edges
        normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.sqrt(curve.edge_len2)[:, None]
        k = rng.integers(0, len(e), 150)
        push = curve.diameter * 10.0 ** rng.uniform(-7.0, -3.0, (150, 1))
        starts = curve.points[k] + rng.uniform(0.0, 1.0, (150, 1)) * e[k] + push * normal[k]
        for z in starts:
            before = len(calls)
            if _assert_support_matches(curve, [z]):
                bisections.add(len(calls) - before)
    assert bisections == {1, 2}


def test_support_matches_reference_on_a_coarse_circle():
    rng = np.random.default_rng(23)
    curve = ConvexCurve.circle(samples=16)
    starts = _starts_around(curve, rng, 200, 1.05, 6.0)
    assert _assert_support_matches(curve, starts) == len(starts)
    near = _starts_around(curve, rng, 100, 0.95, 1.05)
    _assert_support_matches(curve, near)


def _circle_with_exact_axes(samples):
    """The sampled unit circle with its axis samples and their tangents
    exact: a start on an axis tangent sees the sight function exactly 0."""
    circle = ConvexCurve.circle(samples=samples)
    pts, tan = circle.points.copy(), circle.tangents.copy()
    pts[np.abs(pts) < 1e-15] = 0.0
    tan[np.abs(tan) < 1e-15] = 0.0
    return ConvexCurve.smooth(pts, tan)


def test_support_at_an_exact_sample_tangency(monkeypatch):
    calls = _count_bisections(monkeypatch)
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
    # one bisection per pair of calls: the mirrored start's chosen root
    assert len(calls) == 3 * 4 * 4


def test_guard_bisects_a_bracket_that_touches_the_centroid_line(monkeypatch):
    # Just off the curve on an axis, the axis sample shared by both brackets
    # lies within round-off of the z -> centroid line: neither bracket may
    # be skipped, whatever the sign of the det at that sample.
    calls = _count_bisections(monkeypatch)
    curve = _circle_with_exact_axes(2048)
    for delta in (1e-7, 1e-6, 3e-6):
        for eta in (1e-20, 0.0, -1e-20):
            r = 1.0 + delta
            for z in ([r, eta], [-r, eta], [eta, r], [eta, -r]):
                del calls[:]
                assert _assert_support_matches(curve, [np.array(z)]) == 1
                assert len(calls) == 2, z


def test_one_bisection_per_regular_step(monkeypatch):
    calls = _count_bisections(monkeypatch)
    rng = np.random.default_rng(29)
    for curve in (ConvexCurve.circle(), _ellipse()):
        for z0 in _starts_around(curve, rng, 15, 1.1, 3.0):
            del calls[:]
            rec = iterate(curve, z0, steps=8)
            assert len(rec.points) == 9 and len(calls) == 8
            assert _assert_support_matches(curve, rec.points[:-1]) == 8


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
