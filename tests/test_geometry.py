"""Derived-data invariants: half-edges, local areas, angles, winding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outerlab.errors import DegeneratePolygon, NotLocallyConvex
from outerlab.geometry import (
    MAX_COORDINATE,
    derive_orbit_polygon,
    derive_orbit_polygons,
    det2,
    diameter,
    inner2,
    polygon_area,
    regular_star,
)

import reference

SQRT3 = np.sqrt(3.0)


def planar_vectors(k):
    # k random nonzero plane vectors with coordinates spanning ~9 decades
    return st.lists(
        st.tuples(
            st.floats(-1e3, 1e3, allow_nan=False, width=64),
            st.floats(-1e3, 1e3, allow_nan=False, width=64),
        ).filter(lambda v: abs(v[0]) + abs(v[1]) > 1e-6),
        min_size=k,
        max_size=k,
    ).map(np.asarray)


def test_det2_inner2_basics():
    assert det2([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert det2([0.0, 1.0], [1.0, 0.0]) == -1.0
    assert inner2([3.0, 4.0], [3.0, 4.0]) == 25.0
    # broadcasting over stacks of vectors
    u = np.array([[1.0, 0.0], [0.0, 2.0]])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(det2(u, v), [1.0, -2.0])
    assert np.allclose(inner2(u, v), [0.0, 0.0])


@given(planar_vectors(3))
@settings(max_examples=200)
def test_multilinear_cofactor_identity(rs):
    # det(b,c) a - det(a,c) b + det(a,b) c = 0 for any plane vectors
    a, b, c = rs
    res = det2(b, c) * a - det2(a, c) * b + det2(a, b) * c
    scale = max(np.abs(rs).max() ** 3, 1e-30)
    assert np.max(np.abs(res)) < 1e-12 * scale


@given(planar_vectors(3))
@settings(max_examples=200)
def test_area_product_identity(rs):
    # det(b,c) <a,b> + det(a,b) <b,c> = |b|^2 det(a,c)
    a, b, c = rs
    lhs = det2(b, c) * inner2(a, b) + det2(a, b) * inner2(b, c)
    rhs = inner2(b, b) * det2(a, c)
    scale = max(np.abs(rs).max() ** 4, 1e-30)
    assert abs(lhs - rhs) < 1e-12 * scale


def test_equilateral_triangle_derived_data(triangle):
    # area 3 sqrt(3) / 4; local areas are half of it, skip determinants the
    # negative of that
    assert triangle.n == 3
    assert triangle.winding == 1
    assert triangle.locally_convex
    want = 3.0 * SQRT3 / 8.0
    assert np.allclose(triangle.delta, want, rtol=1e-14)
    assert np.allclose(triangle.dvec, -want, rtol=1e-14)
    assert np.allclose(triangle.alpha, np.pi / 3.0, rtol=1e-14)
    assert np.isclose(polygon_area(triangle.vertices), 2.0 * want, rtol=1e-14)


def test_square_derived_data(square):
    assert square.winding == 1
    assert np.allclose(square.s, 1.0)
    assert np.allclose(square.delta, 1.0)
    assert np.allclose(square.dvec, 0.0, atol=1e-15)
    assert np.allclose(square.alpha, np.pi / 2.0)


def test_half_edges_are_exact(square):
    z = square.vertices
    zn = np.roll(z, -1, axis=0)
    # exact fp identities, no tolerance
    assert np.array_equal(square.r, (z - zn) / 2.0)
    assert np.array_equal(square.rbar, (z + zn) / 2.0)
    assert np.array_equal(np.sum(square.r, axis=0), np.zeros(2))


def test_pentagram_winding_and_signs(pentagram):
    assert pentagram.n == 5
    assert pentagram.winding == 2
    assert pentagram.locally_convex
    assert np.allclose(pentagram.alpha, np.pi / 5.0, rtol=1e-12)
    # skip determinants of the doubly wound pentagon are all negative
    assert np.all(pentagram.dvec < 0)


@pytest.mark.parametrize(
    "n,m",
    [(n, m) for n in range(3, 13) for m in range(1, n) if np.gcd(n, m) == 1 and 2 * m < n],
)
def test_star_polygon_winding(n, m):
    poly = derive_orbit_polygon(regular_star(n, m, phase=0.3))
    assert poly.winding == m
    assert poly.is_admissible


def test_winding_rejects_gcd_violations():
    with pytest.raises(DegeneratePolygon):
        regular_star(6, 2)


def test_three_term_vector_identity(sampled):
    # delta_{i+2} r_i - d_{i+1} r_{i+1} + delta_{i+1} r_{i+2} = 0 cyclically
    for polys in sampled.values():
        for poly in polys:
            res = (
                np.roll(poly.delta, -2)[:, None] * poly.r
                - np.roll(poly.dvec, -1)[:, None] * np.roll(poly.r, -1, axis=0)
                + np.roll(poly.delta, -1)[:, None] * np.roll(poly.r, -2, axis=0)
            )
            assert np.max(np.abs(res)) < 1e-12 * poly.scale**3


def test_skip_determinant_angle_form(sampled):
    # d_i = -s_{i-1} s_{i+1} sin(alpha_i + alpha_{i+1})
    for polys in sampled.values():
        for poly in polys:
            rhs = (
                -np.roll(poly.s, 1)
                * np.roll(poly.s, -1)
                * np.sin(poly.alpha + np.roll(poly.alpha, -1))
            )
            assert np.allclose(poly.dvec, rhs, atol=1e-12 * poly.scale**2)


def test_turning_sums_to_winding(sampled):
    for (n, m), polys in sampled.items():
        for poly in polys:
            assert poly.winding == m
            total = float(np.sum(poly.exterior))
            assert abs(total - 2.0 * np.pi * m) < 1e-9


def test_degenerate_inputs_raise():
    with pytest.raises(DegeneratePolygon):
        derive_orbit_polygon([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegeneratePolygon):
        derive_orbit_polygon([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegeneratePolygon):
        derive_orbit_polygon([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]])


def test_nonconvex_polygon_is_flagged_not_rejected():
    # a dart: one reflex vertex
    dart = [[0.0, 0.0], [2.0, 1.0], [0.0, 0.5], [-2.0, 1.0]]
    poly = derive_orbit_polygon(dart)
    assert not poly.locally_convex
    assert not poly.is_admissible
    with pytest.raises(NotLocallyConvex):
        poly.require_locally_convex()


def test_clockwise_traversal_is_not_locally_convex(square):
    poly = derive_orbit_polygon(square.vertices[::-1])
    assert poly.winding == -1
    assert not poly.locally_convex


def test_arrays_are_frozen(triangle):
    with pytest.raises(ValueError):
        triangle.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        triangle.delta[0] = 5.0


def test_diameter():
    pts = [[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]
    assert diameter(pts) == 5.0


FIELDS = ("vertices", "r", "rbar", "s", "delta", "dvec", "alpha", "exterior")


def assert_same_polygon(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.winding, a.locally_convex) == (b.winding, b.locally_convex)


def test_stack_matches_sequential_derive():
    # the derive of a (k, n, 2) stack is the sequential derive (kept in
    # tests/reference.py) of each polygon, bit for bit: stars, convex and
    # clockwise polygons, and noisy ones that are not locally convex
    rng = np.random.default_rng(21)
    for n in range(3, 13):
        stack = []
        for m in range(1, (n + 1) // 2):
            if np.gcd(n, m) == 1:
                star = regular_star(n, m, radius=rng.uniform(0.1, 10.0), phase=rng.uniform(0, 7))
                stack += [star, star[::-1], star + 0.05 * rng.normal(size=(n, 2))]
        stack = np.array(stack)
        derived = derive_orbit_polygons(stack)
        assert len(derived) == len(stack)
        for poly, z in zip(derived, stack):
            assert_same_polygon(poly, reference.derive_orbit_polygon(z))
            assert_same_polygon(derive_orbit_polygon(z), poly)
            assert not poly.vertices.flags.writeable and not poly.dvec.flags.writeable
    assert derive_orbit_polygons(np.empty((0, 5, 2))) == []


def test_derive_fills_in_the_scale():
    # derive_orbit_polygons fills the cached scale from its own maximum: the
    # bits of float(s.max()), a Python float; a polygon built by hand still
    # computes it on first read
    rng = np.random.default_rng(29)
    stack = [regular_star(n, m, radius=rng.uniform(0.1, 10.0), phase=rng.uniform(0, 7))
             + 0.05 * rng.normal(size=(n, 2)) for n, m in [(5, 1), (5, 2)] * 25]
    for poly in derive_orbit_polygons(np.array(stack)) + [derive_orbit_polygon(stack[0])]:
        filled = vars(poly)["scale"]
        assert type(filled) is float and filled == float(poly.s.max())
    by_hand = reference.derive_orbit_polygon(stack[0])
    assert "scale" not in vars(by_hand)
    assert by_hand.scale == float(by_hand.s.max()) and vars(by_hand)["scale"] == by_hand.scale


def test_vertices_whose_products_overflow_are_rejected():
    # the half-edges of 1e308 overflowed to inf, with a RuntimeWarning, and
    # read as "repeated consecutive vertices"
    big = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for z in ([[1e308, 0], [-1e308, 0], [0, 1e308]], 1e155 * big,
                  np.nextafter(MAX_COORDINATE, np.inf) * big):
            with pytest.raises(DegeneratePolygon, match="too large: their edge products overflow"):
                derive_orbit_polygon(z)
        with pytest.raises(DegeneratePolygon, match="too large"):
            derive_orbit_polygons(np.array([regular_star(3, 1), 1e200 * big]))
        # the largest accepted coordinate derives with finite products
        poly = derive_orbit_polygon(MAX_COORDINATE * big)
        assert poly.locally_convex and np.isfinite(poly.delta).all() and np.isfinite(poly.dvec).all()
        assert reference.derive_orbit_polygon(MAX_COORDINATE * big).delta.tobytes() == poly.delta.tobytes()


def test_stack_with_one_degenerate_polygon_raises():
    stack = np.array([regular_star(5, 2), regular_star(5, 1), regular_star(5, 2)])
    stack[1, 3] = stack[1, 2]  # a repeated consecutive vertex
    with pytest.raises(DegeneratePolygon, match="repeated"):
        derive_orbit_polygons(stack)
    with pytest.raises(DegeneratePolygon):
        derive_orbit_polygons(stack[0])  # one polygon is not a stack
