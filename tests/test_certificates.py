"""The sign certificates of (5,2) and (6,2) samples, checked exactly.

The identities behind the certificates are polynomial on the variety, so each
is checked in ``fractions.Fraction`` at random rational points
(Schwartz-Zippel: a rational function that is not identically zero vanishes
at a random point of a large grid with negligible probability).  Variety
points come from the rational charts, evaluated exactly, and the exact
monodromy confirms each one.
"""

import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import outerlab
from outerlab import elements, lab
from outerlab.elements import (
    convex_element_search,
    gap_signs,
    paradox_margin,
    skip_signs,
)
from outerlab.geometry import derive_orbit_polygon

import reference

IDENTITY = ((1, 0), (0, 1))


def det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def rational(rng):
    return Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**3)))


def rational_polygon(rng, n):
    """Local areas and skip determinants, as Fraction lists, of a closed
    polygon with random rational vertices."""
    z = [(rational(rng), rational(rng)) for _ in range(n)]
    r = [((x - u) / 2, (y - v) / 2) for (x, y), (u, v) in zip(z, z[1:] + z[:1])]
    return SimpleNamespace(delta=[det(r[i - 1], r[i]) for i in range(n)],
                           dvec=[det(r[i - 1], r[(i + 1) % n]) for i in range(n)])


def chart_point(poly, params, shift):
    """The exact point of the chart at ``shift`` (the formulas of
    ``reference._chart_n5`` and ``_chart_n6``), in polygon order."""
    n = len(poly.delta)
    D = poly.delta[shift:] + poly.delta[:shift]
    if n == 5:
        c1, c2 = params
        c4 = (c1 * c2 - D[0] * D[2]) / D[1]
        cols = [c1, c2, (c1 * D[3] + D[2] * D[4]) / c4, c4, (c2 * D[4] + D[3] * D[0]) / c4]
    else:
        c1, c2, c3 = params
        q = -D[4] * (c1 * c2 - D[0] * D[2]) / D[1]
        c5 = (c3 * q + D[4] * c1 * D[3]) / (D[4] * D[2])
        c4 = (q + D[3] * D[5]) / c5
        cols = [c1, c2, c3, c4, c5, D[4] * (c4 * D[0] - D[5] * c2) / q]
    return cols[n - shift:] + cols[:n - shift]


def mul(A, B):
    return tuple(tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2))
                 for i in range(2))


def inverse(A):
    det_a = det(A[0], A[1])
    return ((A[1][1] / det_a, -A[0][1] / det_a), (-A[1][0] / det_a, A[0][0] / det_a))


def factor(poly, j, cj):
    """T_j = [[0, 1], [-delta_{j+1}/delta_j, -c_j/delta_j]]."""
    D = poly.delta
    return ((0, 1), (-D[(j + 1) % len(D)] / D[j], -cj / D[j]))


def monodromy(poly, c):
    M = IDENTITY
    for j, cj in enumerate(c):
        M = mul(factor(poly, j, cj), M)
    return M


def rolled(poly, c, j):
    def roll(x):
        return x[j:] + x[:j]
    return SimpleNamespace(delta=roll(poly.delta), dvec=roll(poly.dvec)), roll(c)


@pytest.mark.parametrize("n", [5, 6])
def test_identities_vanish_exactly_on_the_variety(n):
    rng = np.random.default_rng(60 + n)
    identity = reference.identity_residual_n5 if n == 5 else reference.identity_residual_n6
    for trial in range(2 * n):
        poly = rational_polygon(rng, n)
        c = chart_point(poly, [rational(rng) for _ in range(n - 3)], shift=trial % n)
        assert monodromy(poly, c) == IDENTITY
        for j in range(n):  # every cyclic shift of the identity
            assert identity(*rolled(poly, c, j)) == 0
        # one entry off the variety: the monodromy and the identity see it
        off = [c[0] + 1] + c[1:]
        assert monodromy(poly, off) != IDENTITY
        assert identity(poly, off) != 0


@pytest.mark.parametrize("n,shift,zero", [(5, 3, 3), (6, 4, 4)])
def test_identities_hold_on_a_chart_singular_set(n, shift, zero):
    # chart 0 divides by c[zero]; the chart at `shift` takes c[zero] = 0 as
    # its first coordinate and reaches the points that chart 0 cannot
    rng = np.random.default_rng(70 + n)
    identity = reference.identity_residual_n5 if n == 5 else reference.identity_residual_n6
    for _ in range(4):
        poly = rational_polygon(rng, n)
        c = chart_point(poly, [Fraction(0)] + [rational(rng) for _ in range(n - 4)], shift)
        assert c[zero] == 0
        with pytest.raises(ZeroDivisionError):
            chart_point(poly, c[:n - 3], 0)
        assert monodromy(poly, c) == IDENTITY
        for j in range(n):
            assert identity(*rolled(poly, c, j)) == 0


def pinning_system(poly, k):
    """With c = d on the entries k, k+1, k+3, k+4, the monodromy
    T_5 (T_4 T_3) T_2(x) (T_1 T_0) = I, indices counted from k, reads
    T_2(x) - P^-1 T_5(y)^-1 Q^-1 = 0 with P = T_4 T_3 and Q = T_1 T_0.
    Returns that left side as a function of (x, y), flattened, and P, Q."""
    d = poly.dvec

    def T(j, cj):
        return factor(poly, (k + j) % 6, cj)

    def at(j):
        return d[(k + j) % 6]

    Q = mul(T(1, at(1)), T(0, at(0)))
    P = mul(T(4, at(4)), T(3, at(3)))

    def system(x, y):
        rhs = mul(mul(inverse(P), inverse(T(5, y))), inverse(Q))
        return [a - b for a, b in zip(sum(T(2, x), ()), sum(rhs, ()))]

    return system, P, Q


def coefficients(system):
    """(L0, L1, L2) of the affine system L0 + x L1 + y L2, checked to be affine."""
    L0 = system(0, 0)
    L1 = [a - b for a, b in zip(system(1, 0), L0)]
    L2 = [a - b for a, b in zip(system(0, 1), L0)]
    assert system(2, -3) == [a + 2 * b - 3 * e for a, b, e in zip(L0, L1, L2)]
    return L0, L1, L2


def rank_two(u, v):
    return any(u[i] * v[j] != u[j] * v[i] for i in range(4) for j in range(i + 1, 4))


def gaps(poly):
    d, D = poly.dvec, poly.delta
    return [d[i] * d[(i + 1) % 6] - D[i] * D[(i + 2) % 6] for i in range(6)]


def test_monodromy_pins_the_last_two_entries():
    rng = np.random.default_rng(80)
    for _ in range(6):
        poly = rational_polygon(rng, 6)
        d, D, g = poly.dvec, poly.delta, gaps(poly)
        assert monodromy(poly, d) == IDENTITY  # c = d is an element of every hexagon
        for k in range(6):
            system, P, Q = pinning_system(poly, k)
            L0, L1, L2 = coefficients(system)
            assert system(d[(k + 2) % 6], d[(k + 5) % 6]) == [0, 0, 0, 0]
            # x enters through the (2, 2) entry of T_2 alone (rank one), and
            # y through the (1, 1) entry of T_5^-1 alone
            assert [v != 0 for v in L1] == [False, False, False, True]
            T5 = [sum(inverse(factor(poly, (k + 5) % 6, y)), ()) for y in (0, 1)]
            assert [a != b for a, b in zip(*T5)] == [True, False, False, False]
            # the (2, 2) entries of Q and P are g_k and g_{k+3} over two local areas
            assert Q[1][1] * D[k] * D[(k + 1) % 6] == g[k]
            assert P[1][1] * D[(k + 3) % 6] * D[(k + 4) % 6] == g[(k + 3) % 6]
            # so the solution (d_{k+2}, d_{k+5}) is unique unless both vanish
            assert rank_two(L1, L2) == (g[k] != 0 or g[(k + 3) % 6] != 0)
            assert rank_two(L1, L2)


def degenerate_hexagon(s=(1, 2, 3, 3, 2, 1)):
    """A (6,2) polygon with every d_i < 0 and every g_i = 0, exactly: the
    half-edges r_j = s_j u_(j mod 3) on three directions that sum to zero
    (an affine image of 120 degree turns), closed since s_j + s_{j+3} is
    constant.  Its vertices are small integers."""
    u = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    r = np.array(s)[:, None] * u[np.arange(6) % 3]
    return derive_orbit_polygon(np.vstack([[0.0, 0.0], np.cumsum(-2.0 * r[:-1], axis=0)]))


def test_vanishing_gaps_lose_the_certificate():
    poly = degenerate_hexagon()
    assert poly.winding == 2 and poly.locally_convex
    exact = SimpleNamespace(delta=[Fraction(v) for v in poly.delta],
                            dvec=[Fraction(v) for v in poly.dvec])
    assert all(v < 0 for v in exact.dvec) and gaps(exact) == [0] * 6
    for k in range(6):
        system, _, _ = pinning_system(exact, k)
        L0, L1, L2 = coefficients(system)
        # c = d solves it, on a line of solutions: the last two entries are
        # not pinned (on this polygon the line leaves c <= d at c = d)
        assert system(exact.dvec[(k + 2) % 6], exact.dvec[(k + 5) % 6]) == [0, 0, 0, 0]
        assert not rank_two(L1, L2)
    assert (skip_signs([poly]) == -1).all() and (gap_signs([poly]) == 0).all()
    certified, margin = lab._sign_certificates([poly])
    assert not certified[0] and margin[0] == np.inf
    # an uncertified trial is searched, as before the certificates
    el = convex_element_search(poly)
    assert el is not None and np.max(np.abs(el.c - poly.dvec)) <= 1e-8 * poly.scale**2


# Integer (6,2) hexagons whose edges z_1 - z_0 and z_5 - z_4 are antiparallel,
# so that alpha_0 + alpha_1 = pi and d_0 = 0 exactly, with the set
# B = {i : d_i >= 0} and the certificate's verdict that the case analysis of
# lab._sign_certificates predicts.
TIED_HEXAGONS = [
    ([[0, 0], [3, 5], [0, 2], [3, 3], [4, 8], [-3, -3]], {0}, True),
    # B = {0}, but g_1 = g_4 = 0: shift 1, the only one that B leaves, fails
    ([[0, 0], [-4, 0], [-9, -2], [-3, 0], [-7, 0], [-15, -6]], {0}, False),
    # two adjacent entries: no shift has its four entries negative
    ([[0, 0], [-1, 5], [-3, -1], [-1, 2], [-6, 8], [-2, -6]], {5, 0}, False),
    ([[0, 0], [6, -5], [10, -6], [4, -1], [10, -7], [12, -3]], {0, 1}, False),
]


@pytest.mark.parametrize("vertices,tied,certified", TIED_HEXAGONS)
def test_a_pair_sum_of_exactly_pi_is_certified_as_the_proof_says(vertices, tied, certified):
    poly = derive_orbit_polygon(np.array(vertices, dtype=float))
    assert poly.winding == 2 and poly.locally_convex
    exact = SimpleNamespace(delta=elements._exact_dets(poly, -1, 0),
                            dvec=elements._exact_dets(poly, -1, 1))
    d, g = exact.dvec, gaps(exact)
    assert d[0] == 0 and skip_signs([poly])[0, 0] == 0
    B = {i for i in range(6) if d[i] >= 0}
    assert B == tied
    # no two entries of B at distance 2 or 3; so B = {i}, or adjacent
    assert all((j - i) % 6 in (0, 1, 5) for i in B for j in B)
    if len(B) == 1:
        [i] = B
        k = (i + 1) % 6
        assert all(d[(k + j) % 6] < 0 for j in (0, 1, 3, 4))
        predicted = g[k] != 0 or g[(k + 3) % 6] != 0
    else:
        predicted = False  # every shift's four entries meet B
        # ... and the polygon is paradoxical up to the tie: a margin of 0
        assert abs(paradox_margin(poly)) < 1e-12
    assert predicted == certified
    assert lab._sign_certificates([poly])[0][0] == certified


def test_a_star_pentagon_at_the_angle_walls_is_certified():
    # four angles at the sampler's lower wall pi ANGLE_MARGIN (the upper wall
    # cannot be reached, since sum alpha = pi): the pair sums run from
    # 2 pi ANGLE_MARGIN to pi - 3 pi ANGLE_MARGIN, so every d_i < 0, and the
    # margin is the worst that any sampled star can have, -sin(2 pi ANGLE_MARGIN)
    m = lab.ANGLE_MARGIN
    x = np.array([1 - m, 1 - m, 1 - m, 1 - m, 4 * m])
    poly = lab._build(2, np.pi * x[None], np.array([True]), [np.random.default_rng(0)])[0]
    assert poly.winding == 2 and poly.is_admissible
    assert np.allclose(poly.alpha, np.pi * np.array([m, m, m, m, 1 - 4 * m]), rtol=1e-9)
    assert all(v < 0 for v in elements._exact_dets(poly, -1, 1))
    certified, margin = lab._sign_certificates([poly])
    assert certified[0]
    assert np.isclose(margin[0], -np.sin(2 * np.pi * m), rtol=1e-9)


def exact_signs(values):
    return np.array([(v > 0) - (v < 0) for v in values], dtype=float)


def sampled_polygons():
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(90).spawn(12)]
    return [p for n, m in ((5, 1), (5, 2), (6, 1), (6, 2), (7, 3))
            for p in lab.sample_orbit_polygons(n, m, rngs)]


def near_zero_polygons():
    """Polygons whose d_0 lies within a few ulps of 0: r_{n-1} and r_1
    parallel up to the rounding of one vertex, moved by -3 .. 3 ulps; and
    the degenerate hexagon (every g_i = 0) with one vertex so moved."""
    rng = np.random.default_rng(91)
    polys = []
    for _ in range(40):
        n = int(rng.choice([5, 6]))
        z = rng.uniform(-1.0, 1.0, (n, 2))
        z[2] = z[1] - rng.uniform(0.3, 2.0) * (z[n - 1] - z[0])
        for k in range(-3, 4):
            w = z.copy()
            w[2, 0] += k * np.spacing(w[2, 0])
            polys.append(derive_orbit_polygon(w))
    base = degenerate_hexagon().vertices
    for k in range(-3, 4):
        z = base.copy()
        z[2, 1] += k * np.spacing(z[2, 1])
        polys.append(derive_orbit_polygon(z))
    return polys


def test_float_signs_are_taken_only_outside_the_bound(monkeypatch):
    # every value reaches the sign helper with its bound; the bound must hold
    # against the exact value, and the helper's signs must be the exact ones
    seen = []
    real = elements._signs

    def spy(value, bound, exact):
        seen.append((value, bound, exact))
        return real(value, bound, exact)

    monkeypatch.setattr(elements, "_signs", spy)
    inside = wrong = 0
    for near, polys in ((False, sampled_polygons()), (True, near_zero_polygons())):
        for poly in polys:
            seen.clear()
            signs = [skip_signs([poly])[0]] + ([gap_signs([poly])[0]] if poly.n == 6 else [])
            for got, (value, bound, exact) in zip(signs, seen):
                values = exact(0)
                assert all(abs(Fraction(v) - e) <= Fraction(b)
                           for v, e, b in zip(value[0].tolist(), values, bound[0].tolist()))
                assert np.array_equal(got, exact_signs(values))
                unclear = ~(abs(value[0]) > bound[0])
                assert near or not unclear.any()  # sampled polygons never need Fraction
                inside += int(unclear.sum())
                wrong += int((np.sign(value[0]) != got).sum())
    # the near-zero polygons do reach the fallback, where a float sign can be wrong
    assert inside > 0 and wrong > 0


def test_signs_of_a_batch_are_the_signs_of_each_polygon():
    polys = [p for p in near_zero_polygons() if p.n == 6][:10] + [degenerate_hexagon()]
    assert np.array_equal(skip_signs(polys), np.vstack([skip_signs([p]) for p in polys]))
    assert np.array_equal(gap_signs(polys), np.vstack([gap_signs([p]) for p in polys]))


def test_fractions_is_imported_only_for_the_fallback():
    code = ("import sys; from outerlab.lab import verify_theorem_n52, verify_theorem_n62; "
            "verify_theorem_n52(20, controls=2); verify_theorem_n62(20, controls=2); "
            "print('fractions' in sys.modules)")
    src = os.path.dirname(os.path.dirname(outerlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
