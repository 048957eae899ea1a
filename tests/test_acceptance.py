"""Acceptance gate: nine numbered criteria, one verdict line each.

Criteria 3 to 6 drive the theorem verifiers at full trial counts; the rest
exercise the primitives directly.  Verdict lines are written through the
terminal reporter so they stay visible in a piped pytest run.
"""

import functools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import outerlab
from outerlab import cli
from outerlab.dynamics import ConvexCurve, iterate, orbit_polygon
from outerlab.elements import (
    CurvatureProfile,
    build_matrix_C,
    curvature_from_element,
    element_from_curvature,
    numerical_rank,
    special_element_minus,
    special_element_plus,
)
from outerlab.geometry import derive_orbit_polygon, det2, inner2
from outerlab.jsonio import dumps_canonical, report_to_dict
from outerlab.lab import (
    DEFAULT_SEED,
    OrbitSampler,
    sample_orbit_polygon,
    verify_theorem_n3,
    verify_theorem_n4,
    verify_theorem_n52,
    verify_theorem_n62,
)

from conftest import TRIANGLE_VERTICES


def _verdict(request, num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(line)
    else:
        print(line)
    assert ok, line


def test_criterion_1_identity_suite(request):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    N = 10_000

    # three random plane vectors per trial, magnitudes spanning ~9 decades
    u = rng.normal(size=(N, 3, 2)) * rng.lognormal(0.0, 2.0, size=(N, 1, 1))
    a, b, c = u[:, 0], u[:, 1], u[:, 2]
    dab, dac, dbc = det2(a, b), det2(a, c), det2(b, c)

    # multilinear cofactor identity det(b,c) a - det(a,c) b + det(a,b) c = 0
    terms = np.stack([dbc[:, None] * a, -dac[:, None] * b, dab[:, None] * c])
    res = np.max(np.abs(terms.sum(axis=0)), axis=-1)
    norm = np.maximum(np.max(np.abs(terms), axis=(0, 2)), 1e-300)
    rel_multi = float(np.max(res / norm))

    # area product identity det(b,c)<a,b> + det(a,b)<b,c> = |b|^2 det(a,c)
    lhs1 = dbc * inner2(a, b)
    lhs2 = dab * inner2(b, c)
    rhs = inner2(b, b) * dac
    norm = np.maximum(np.max(np.abs([lhs1, lhs2, rhs]), axis=0), 1e-300)
    rel_lemma = float(np.max(np.abs(lhs1 + lhs2 - rhs) / norm))

    # the cyclic identities on 10^4 random closed hexagons
    verts = rng.normal(size=(N, 6, 2)) * rng.lognormal(0.0, 1.0, size=(N, 1, 1))
    rel_vec = 0.0
    rel_angle = 0.0
    for v in verts:
        poly = derive_orbit_polygon(v)
        t1 = np.roll(poly.delta, -2)[:, None] * poly.r
        t2 = np.roll(poly.dvec, -1)[:, None] * np.roll(poly.r, -1, axis=0)
        t3 = np.roll(poly.delta, -1)[:, None] * np.roll(poly.r, -2, axis=0)
        res = np.abs(t1 - t2 + t3)
        norm = np.maximum(np.abs([t1, t2, t3]).max(axis=0), 1e-300)
        rel_vec = max(rel_vec, float(np.max(res / norm)))

        ss = np.roll(poly.s, 1) * np.roll(poly.s, -1)
        rhs = -ss * np.sin(poly.alpha + np.roll(poly.alpha, -1))
        rel_angle = max(rel_angle, float(np.max(np.abs(poly.dvec - rhs) / ss)))

    dt = time.perf_counter() - t0
    worst = max(rel_multi, rel_lemma, rel_vec, rel_angle)
    _verdict(
        request, 1, worst < 1e-10 and dt < 5.0,
        f"4 identities x {N} inputs, worst relative residual {worst:.2e} "
        f"(bound 1e-10), {dt:.2f}s (bound 5s)",
    )


def test_criterion_2_special_suite(request):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in range(3, 13):
        mmax = (n - 1) // 2
        sampler = OrbitSampler(n, 1, seed=200 + n)
        for k in range(100):
            sampler.m = 1 + k % mmax
            poly = sample_orbit_polygon(sampler)
            sc2 = poly.scale**2

            el = special_element_minus(poly)
            M = build_matrix_C(poly, el.c).entries
            assert numerical_rank(M) == n - 2
            resid = float(np.max(np.abs(M @ (poly.r / poly.scale))))
            worst = max(worst, resid / sc2)

            if n % 2 == 0:
                el = special_element_plus(poly)
                M = build_matrix_C(poly, el.c).entries
                assert numerical_rank(M) == n - 2
                signs = (-1.0) ** np.arange(n)
                v = signs[:, None] * poly.r / poly.scale
                resid = float(np.max(np.abs(M @ v)))
                worst = max(worst, resid / sc2)
            checked += 1
    dt = time.perf_counter() - t0
    _verdict(
        request, 2, worst < 1e-10 and dt < 10.0,
        f"rank n-2 on {checked} polygons (n = 3..12, both specials on even n), "
        f"worst null residual {worst:.2e} x scale^2 (bound 1e-10), "
        f"{dt:.2f}s (bound 10s)",
    )


def test_criterion_3_triangle_theorem(request):
    rep = verify_theorem_n3(trials=1000, seed=DEFAULT_SEED)
    _verdict(
        request, 3, rep.failures == 0 and rep.worst_margin < 1e-9,
        f"1000 triangles, 0 convex elements, worst half-area deviation "
        f"{rep.worst_margin:.2e} (bound 1e-9), failures {rep.failures}",
    )


def test_criterion_4_quadrilateral_theorem(request):
    rep = verify_theorem_n4(trials=1000, seed=DEFAULT_SEED)
    _verdict(
        request, 4, rep.failures == 0 and rep.worst_margin <= 1e-8,
        f"1000 quadrilaterals (every 5th a trapezoid), element pinned to d, "
        f"worst |c-d|/scale^2 = {rep.worst_margin:.2e} (bound 1e-8), "
        f"failures {rep.failures}",
    )


def test_criterion_5_star_pentagon_theorem(request):
    rep = verify_theorem_n52(trials=1000, seed=DEFAULT_SEED, controls=100)
    _verdict(
        request, 5, rep.failures == 0,
        f"1000 (5,2) samples: no convex element, certified exactly by all "
        f"d_i < 0; worst certificate margin max d_i/(s_(i-1) s_(i+1)) = "
        f"{rep.worst_margin:.3f} (negative = certified); 100/100 (5,1) "
        f"controls found one in the grid search; failures {rep.failures}",
    )


def test_criterion_6_star_hexagon_theorem(request):
    rep = verify_theorem_n62(trials=1000, seed=DEFAULT_SEED, controls=100)
    _verdict(
        request, 6, rep.failures == 0,
        f"1000 non-paradoxical (6,2) samples: c = d is the only convex "
        f"element; worst margin {rep.worst_margin:.2e} (negative = every "
        f"sample certified exactly by a sign shift; an uncertified one is "
        f"searched, with bound 1e-8 on |c-d|/scale^2); interior elements on "
        f"(6,1) controls confirmed; failures {rep.failures}",
    )


def test_criterion_7_triangle_dynamics(request):
    curve = ConvexCurve.polygon(TRIANGLE_VERTICES)
    diam = curve.diameter
    base = np.array([0.0, -1.0])
    starts = [base]
    for k in range(10):
        ang = 2.0 * np.pi * k / 10.0 + 0.05
        starts.append(base + 1e-3 * diam * np.array([np.cos(ang), np.sin(ang)]))
    worst_closure = 0.0
    worst_mid = 0.0
    for z0 in starts:
        rec = iterate(curve, z0, steps=200)
        assert rec.period == 6, f"period {rec.period} from start {z0}"
        assert rec.winding == 2
        worst_closure = max(worst_closure, rec.closure_residual)
        for k in range(rec.period):
            mid = (rec.points[k] + rec.points[k + 1]) / 2.0
            worst_mid = max(worst_mid, curve.distance_to_boundary(mid))
        poly = orbit_polygon(rec, curve=curve)
        assert poly.locally_convex
    ok = worst_closure < 1e-9 * diam and worst_mid < 1e-10 * diam
    _verdict(
        request, 7, ok,
        f"seed + 10 perturbed starts (relative 1e-3) all have period 6, "
        f"worst closure {worst_closure:.2e} (bound {1e-9 * diam:.2e}), worst "
        f"midpoint offset {worst_mid:.2e} (bound {1e-10 * diam:.2e})",
    )


def test_criterion_8_curvature_round_trip(request):
    rng = np.random.default_rng(8)
    pairs = [(n, m) for n in range(3, 9) for m in range(1, (n - 1) // 2 + 1)]
    samplers = {pair: OrbitSampler(*pair, seed=80 + i) for i, pair in enumerate(pairs)}
    worst = 0.0
    for k in range(1000):
        pair = pairs[k % len(pairs)]
        poly = sample_orbit_polygon(samplers[pair])
        kappa = rng.lognormal(0.0, 1.5, poly.n) / poly.scale
        c = element_from_curvature(poly, CurvatureProfile(kappa=kappa))
        back = curvature_from_element(poly, c).kappa
        worst = max(worst, float(np.max(np.abs(back - kappa) / kappa)))
    # corner case: flat profile c = d in both directions, exactly
    poly = sample_orbit_polygon(samplers[(6, 2)])
    corners = curvature_from_element(poly, poly.dvec.copy()).kappa
    exact_inf = bool(np.all(np.isinf(corners)))
    all_inf = CurvatureProfile(kappa=np.full(poly.n, np.inf))
    exact_d = bool(np.array_equal(element_from_curvature(poly, all_inf), poly.dvec))
    _verdict(
        request, 8, worst < 1e-10 and exact_inf and exact_d,
        f"1000 profiles recovered, worst relative error {worst:.2e} "
        f"(bound 1e-10); c = d maps to INFINITY exactly: {exact_inf}, "
        f"INFINITY maps back to c = d exactly: {exact_d}",
    )


_CRITERION_9_SIZES = (
    ("n3", verify_theorem_n3, {"trials": 60}),
    ("n4", verify_theorem_n4, {"trials": 60}),
    ("n52", verify_theorem_n52, {"trials": 40, "controls": 8}),
    ("n62", verify_theorem_n62, {"trials": 40, "controls": 8}),
)


def test_criterion_9_thread_determinism(request, monkeypatch, tmp_path):
    # `outerlab verify --threads N` is parsed and ignored: at criterion 9's
    # sizes, --threads 1 and --threads 4 must write the direct call's bytes
    mismatches = []
    for theorem, fn, kwargs in _CRITERION_9_SIZES:
        trials = kwargs["trials"]
        extra = {k: v for k, v in kwargs.items() if k != "trials"}
        monkeypatch.setitem(cli.VERIFIERS, theorem, functools.partial(fn, **extra))
        direct = dumps_canonical(report_to_dict(fn(seed=DEFAULT_SEED, **kwargs)))
        for threads in ("1", "4"):
            out = tmp_path / f"{theorem}-{threads}.json"
            assert cli.main(["verify", theorem, "--trials", str(trials),
                             "--seed", str(DEFAULT_SEED), "--threads", threads,
                             "--json", str(out)]) == 0
            if out.read_text(encoding="utf-8") != direct:
                mismatches.append(f"{theorem} --threads {threads}")
    _verdict(
        request, 9, not mismatches,
        "outerlab verify --threads 1 and 4 write the direct report's bytes "
        f"(n3, n4, n52, n62); mismatches: {mismatches or 'none'}",
    )


# Writes the four verifier reports at criterion 9's sizes, as a JSON list of
# their canonical texts.
_REPORTS = """
import json
from outerlab.jsonio import dumps_canonical, report_to_dict
from outerlab.lab import (DEFAULT_SEED, verify_theorem_n3, verify_theorem_n4,
                          verify_theorem_n52, verify_theorem_n62)
runs = ((verify_theorem_n3, {"trials": 60}), (verify_theorem_n4, {"trials": 60}),
        (verify_theorem_n52, {"trials": 40, "controls": 8}),
        (verify_theorem_n62, {"trials": 40, "controls": 8}))
print(json.dumps([dumps_canonical(report_to_dict(fn(seed=DEFAULT_SEED, **kwargs)))
                  for fn, kwargs in runs]))
"""


def _reports_in_fresh_process(hashseed: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(outerlab.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPORTS], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_criterion_9_process_determinism(request):
    first, second = _reports_in_fresh_process("0"), _reports_in_fresh_process("1")
    mismatches = [theorem for theorem, a, b in zip(("n3", "n4", "n52", "n62"), first, second)
                  if a != b]
    _verdict(
        request, 9, not mismatches,
        "verifier reports byte-identical across two fresh interpreters with "
        f"PYTHONHASHSEED 0 and 1 (n3, n4, n52, n62); mismatches: {mismatches or 'none'}",
    )
