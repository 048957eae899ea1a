"""Sampler guarantees, verifier bookkeeping, thread determinism."""

import functools
import hashlib
import os
import subprocess
import sys
from collections import Counter
from operator import sub

import numpy as np
import pytest

import outerlab
from outerlab import cli, lab
from outerlab.elements import (
    ChartSweep,
    classify_paradoxical,
    convex_element_search_batch,
    convex_element_sweep,
    make_element,
    paradox_margin,
)
from outerlab.errors import InputError, SamplerExhausted, ValidationFailed
from outerlab.jsonio import dumps_canonical, report_to_dict
from outerlab.lab import (
    OrbitSampler,
    sample_orbit_polygon,
    search_paradoxical,
    verify_theorem_n3,
    verify_theorem_n4,
    verify_theorem_n52,
    verify_theorem_n62,
)

import reference

VALID_PAIRS = [(n, m) for n in range(3, 10) for m in range(1, n) if 0 < 2 * m < n]


@pytest.mark.parametrize("n,m", VALID_PAIRS)
def test_sampler_contract(n, m):
    sampler = OrbitSampler(n, m, seed=42)
    for _ in range(5):
        poly = sample_orbit_polygon(sampler)
        assert poly.n == n
        assert poly.winding == m
        assert poly.locally_convex
        assert poly.is_admissible
        # closure is exact by construction (vertices come from summed edges)
        assert np.max(np.abs(np.sum(poly.r, axis=0))) < 1e-12 * poly.scale


def test_sampler_rejects_bad_pairs():
    with pytest.raises(InputError):
        OrbitSampler(6, 3, seed=0)  # 2m = n closes after half a turn
    with pytest.raises(InputError):
        OrbitSampler(5, 0, seed=0)
    with pytest.raises(InputError):
        OrbitSampler(4, 2, seed=0)


def test_sampler_exhaustion_is_reported(monkeypatch):
    # no turning angle lies strictly between the walls, so every attempt fails
    monkeypatch.setattr(lab, "ANGLE_MARGIN", 0.5)
    sampler = OrbitSampler(5, 2, seed=0, attempts=3)
    with pytest.raises(SamplerExhausted, match="within 3 attempts"):
        sample_orbit_polygon(sampler)


@pytest.mark.parametrize("call", [
    lambda: lab.sample_orbit_polygons(5, 2, lab._spawned_rngs(1, 3), attempts=0),
    lambda: lab.sample_orbit_polygons(5, 2, [], attempts=0),
    lambda: sample_orbit_polygon(OrbitSampler(5, 2, seed=0, attempts=-3)),
])
def test_attempts_below_one_is_an_input_error(call):
    # it raised SamplerExhausted("... within -3 attempts"), or returned []
    with pytest.raises(InputError, match="attempts must be >= 1"):
        call()


def test_sampler_draws_are_numpys_uniform_and_normal():
    # The sampler's draws, as it writes them, against numpy's uniform(lo, hi)
    # and normal(0, 1) on a second copy of each of 200 spawned generators:
    # equal bit for bit, the normals up to the sign of a zero, and both
    # copies end in the same state.
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    for new, old in zip(lab._spawned_rngs(29, 200), lab._spawned_rngs(29, 200)):
        for hi in (0.65, 0.35):
            spread = 0.15 + (hi - 0.15) * np.array([new.random()])
            assert bits(spread) == bits(old.uniform(0.15, hi))
        for n in (5, 6):
            g, want = new.standard_normal(n), old.normal(0.0, 1.0, n)
            assert np.array_equal(g, want)
            assert ((bits(g) == bits(want)) | (g == 0.0)).all()
        phase = 2.0 * np.pi * np.array([new.random()])
        assert bits(phase) == bits(old.uniform(0.0, 2.0 * np.pi))
        z0 = -1.0 + 2.0 * np.array([new.random(2)]).reshape(-1, 2)
        assert np.array_equal(bits(z0[0]), bits(old.uniform(-1.0, 1.0, 2)))
        # the n = 4 trapezoids' parameters and the scan's spiked angles
        lo, hi = np.array([[0.8, 0.3, -0.3, 0.5, 0.0], [1.6, 0.95, 0.3, 1.5, 2.0 * np.pi]])
        trapezoid = lo + (hi - lo) * new.random(5)
        assert np.array_equal(bits(trapezoid), bits([old.uniform(a, b) for a, b in zip(lo, hi)]))
        spiked = [0.02 + (0.5 - 0.02) * new.random(), *(0.05 + (0.6 - 0.05) * new.random(2))]
        assert np.array_equal(bits(spiked), bits([old.uniform(0.02, 0.5), *old.uniform(0.05, 0.6, 2)]))
        assert new.bit_generator.state == old.bit_generator.state


def test_sampler_is_deterministic():
    a = sample_orbit_polygon(OrbitSampler(6, 2, seed=77))
    b = sample_orbit_polygon(OrbitSampler(6, 2, seed=77))
    assert np.array_equal(a.vertices, b.vertices)
    c = sample_orbit_polygon(OrbitSampler(6, 2, seed=78))
    assert not np.array_equal(a.vertices, c.vertices)


@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (verify_theorem_n3, {}),
        (verify_theorem_n4, {}),
        (verify_theorem_n52, {"controls": 5}),
        (verify_theorem_n62, {"controls": 5}),
    ],
)
def test_verifiers_clean_on_small_runs(fn, kwargs):
    rep = fn(trials=25, seed=5, **kwargs)
    assert rep.failures == 0
    assert rep.samples >= 25
    assert rep.failure_bundles == ()


@pytest.mark.parametrize("theorem,kwargs", [
    ("n3", {}),
    ("n52", {"controls": 4}),
])
def test_verifier_thread_determinism(theorem, kwargs, monkeypatch, tmp_path):
    # the verifiers take no threads; `outerlab verify --threads N` is parsed
    # and ignored, so every N writes the bytes of the direct call
    fn = {"n3": verify_theorem_n3, "n52": verify_theorem_n52}[theorem]
    monkeypatch.setitem(cli.VERIFIERS, theorem, functools.partial(fn, **kwargs))
    direct = dumps_canonical(report_to_dict(fn(trials=16, seed=99, **kwargs)))
    for threads in ("1", "4"):
        out = tmp_path / f"{threads}.json"
        assert cli.main(["verify", theorem, "--trials", "16", "--seed", "99",
                         "--threads", threads, "--json", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == direct


# sha256 of the three reports below, concatenated (numpy 2.4, x86-64 Linux).
# Re-pinned when sign certificates replaced the search of (5,2) and (6,2)
# trials: against the digest before (07b3a175...), the scan's bytes are the
# same, and the two verifier reports differ only in their notes and in
# worst_margin, which now holds the certificate margin (-0.199 -> -0.487 on
# n52, 3.5e-16 -> -0.211 on n62).  Re-pinned again (from a9ac3e12...) when
# uncertified (5,2) trials stopped being searched: only the n52 notes moved.
# Re-pinned again (from 463a5cea...) when the chart from the monodromy
# replaced the hand-derived charts: the two verifier reports are the same,
# and in the scan only element.c (19 entries) and element.rank_margin (4)
# moved, by at most 5.5e-16 relative.  Re-pinned again (from 3d831a77...)
# when each scan sample got its own spawned generator: the two verifier
# reports are the same, and every scan byte moved; the scan found 21
# paradoxical polygons (20 spiked) against 20 (20 spiked), all at c = d.
# Re-pinned again (from 279f2f8c...) when the scan stopped searching and
# certified the corner c = d of every find: the two verifier reports are the
# same, and in the scan only the notes, and element.c and element.rank_margin
# on the finds whose searched element was not already d bit for bit, moved.
GOLDEN_REPORTS_SHA256 = "bae25394b5400ab9886d4e275bfefea4e243f6efe27c80dfe07e7c7b8e0ea328"


def test_verifier_reports_match_golden_bytes(capsys):
    n52 = verify_theorem_n52(trials=20, controls=10, seed=7)
    n62 = verify_theorem_n62(trials=10, controls=10, seed=7)
    capsys.readouterr()
    assert cli.main(["search-paradoxical", "--trials", "40", "--seed", "7"]) == 0
    text = (dumps_canonical(report_to_dict(n52)) + dumps_canonical(report_to_dict(n62))
            + capsys.readouterr().out)
    assert '"element": {' in text  # the scan's finds carry certified corner elements
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256


# sha256 of the n3 and n4 reports at 100 trials, seeds 7 and 1729, in that
# order (numpy 2.4, x86-64 Linux), taken when the verifiers' per-trial result
# dicts became one list of margins and one list of failure bundles.
# Re-pinned (from f7adb5be...) when the n4 notes began to name the closed
# form instead of the conic sweep: the n3 reports are the same, and the n4
# reports differ only in their notes.
N3_N4_REPORTS_SHA256 = "56ca573a169713ae764d5bbba42130f76be78a8d5491a6876c66c38a94ef6030"


def test_n3_n4_reports_match_pinned_bytes():
    text = "".join(dumps_canonical(report_to_dict(fn(trials=100, seed=seed)))
                   for seed in (7, 1729) for fn in (verify_theorem_n3, verify_theorem_n4))
    assert hashlib.sha256(text.encode()).hexdigest() == N3_N4_REPORTS_SHA256


def test_failures_count_every_bundle_beyond_the_cap(monkeypatch):
    # every trial fails, and the report keeps only the first MAX_BUNDLES
    # bundles but counts all failures
    monkeypatch.setattr(lab, "_sign_certificates",
                        lambda polys: (np.zeros(len(polys), dtype=bool), np.zeros(len(polys))))
    rep = verify_theorem_n52(trials=12, seed=5, controls=0)
    assert rep.failures == 12
    assert len(rep.failure_bundles) == lab.MAX_BUNDLES == 10
    assert {b["label"] for b in rep.failure_bundles} == {"n52-nonneg-d"}


@pytest.mark.parametrize("fn,kwargs,worst", [
    (verify_theorem_n3, {}, 0.0),
    (verify_theorem_n4, {}, 0.0),
    (verify_theorem_n52, {"controls": 0}, 0.0),
    # the missing interior control is a failure whose margin is -inf
    (verify_theorem_n62, {"controls": 0}, -np.inf),
])
def test_worst_margin_of_an_empty_run(fn, kwargs, worst):
    rep = fn(0, **kwargs)
    assert rep.samples == 0 and rep.worst_margin == worst
    assert rep.failures == (fn is verify_theorem_n62)


def test_verifier_report_fields():
    rep = verify_theorem_n3(trials=10, seed=1)
    assert rep.theorem == "n3"
    assert rep.samples == 10
    assert rep.seed == 1
    assert np.isfinite(rep.worst_margin)
    assert isinstance(rep.notes, str) and rep.notes


def test_paradoxical_scan_finds_are_certified():
    scan = search_paradoxical(samples=60, seed=3)
    assert scan.samples == 60
    assert scan.best_margin > -np.pi
    for find in scan.finds:
        assert classify_paradoxical(find.polygon)
        assert find.margin > 0
        if find.element is not None:
            el = make_element(find.polygon, find.element.c)
            assert el.is_valid and el.is_convex


def test_paradoxical_scan_spiked_half_hits():
    # the spiked constructions push one vertex to the edge: a modest scan
    # must surface at least one paradoxical example
    scan = search_paradoxical(samples=40, seed=12)
    assert len(scan.finds) > 0


def test_scan_certifies_the_corner_without_a_search(monkeypatch):
    # the scan runs no grid search: each find's element is the corner c = d,
    # certified for all finds in one stack; where the certificate fails the
    # element is None and the notes count the find
    def no_search(polys):
        raise AssertionError("the scan ran the grid search")

    monkeypatch.setattr(lab, "convex_element_search_batch", no_search)
    scan = search_paradoxical(samples=200, seed=11)
    assert scan.finds
    for find in scan.finds:
        assert find.element.c.tobytes() == find.polygon.dvec.tobytes()
        assert find.element.is_valid and find.element.is_convex
    assert "; 0 finds uncertified (element null);" in scan.notes
    monkeypatch.setattr(lab, "special_plus_certified", lambda polys: np.zeros(len(polys), dtype=bool))
    blind = search_paradoxical(samples=200, seed=11)
    assert len(blind.finds) == len(scan.finds)
    assert all(find.element is None for find in blind.finds)
    assert f"; {len(scan.finds)} finds uncertified (element null);" in blind.notes


def test_n62_paradoxical_cap_records_failure(monkeypatch):
    # a sampler that only ever yields paradoxical hexagons must end each
    # trial at the cap with a replay bundle instead of looping forever
    monkeypatch.setattr(lab, "paradox_margins", lambda polys: np.ones(len(polys)))
    monkeypatch.setattr(lab, "MAX_PARADOXICAL_DRAWS", 3)
    rep = verify_theorem_n62(trials=2, seed=5, controls=0)
    capped = [b for b in rep.failure_bundles if b["label"] == "n62-paradoxical-cap"]
    assert len(capped) == 2
    for b in capped:
        assert len(b["vertices"]) == 6 and b["candidate_c"] is None
    assert "6 paradoxical samples discarded" in rep.notes
    # two capped trials, plus the missing interior control (controls=0)
    assert rep.failures == 3


@pytest.mark.parametrize("fn", [verify_theorem_n52, verify_theorem_n62])
def test_certified_runs_report_a_negative_margin(fn):
    # every trial certified, and the controls' margins are -inf, so the
    # worst margin is the worst certificate's
    rep = fn(trials=25, seed=5, controls=5)
    assert rep.failures == 0 and rep.worst_margin < 0
    assert "25/25 certified" in rep.notes and " 0 uncertified" in rep.notes


def _fail_signs(monkeypatch, entries):
    """The sign helper, with the listed d_i of the first polygon made
    non-negative."""
    real = lab.skip_signs

    def signs(polys):
        s = real(polys)
        s[0, entries] = 1.0
        return s

    monkeypatch.setattr(lab, "skip_signs", signs)


def _spy_search(monkeypatch) -> tuple[list, list]:
    """The polygons of each call of the full search and of the controls'
    chart sweep, in call order."""
    searched, swept = [], []
    for name, calls in (("convex_element_search_batch", searched), ("convex_element_sweep", swept)):
        def spy(polys, *args, real=getattr(lab, name), calls=calls):
            calls.append(list(polys))
            return real(polys, *args)

        monkeypatch.setattr(lab, name, spy)
    return searched, swept


def test_n52_trial_without_certificate_is_a_failure_and_is_not_searched(monkeypatch):
    # an exact d_i >= 0 is the n52-nonneg-d failure; sum alpha = pi makes
    # every d_i < 0 on an admissible star, so the trial is not searched
    clean = verify_theorem_n52(trials=6, controls=3, seed=5)
    _fail_signs(monkeypatch, [2])
    searched, swept = _spy_search(monkeypatch)
    rep = verify_theorem_n52(trials=6, controls=3, seed=5)
    [batch] = swept
    assert [p.winding for p in batch] == [1, 1, 1]  # the controls alone
    assert all(p.winding == 1 for b in searched for p in b)  # controls left open
    assert rep.failures == 1
    assert [b["label"] for b in rep.failure_bundles] == ["n52-nonneg-d"]
    assert rep.failure_bundles[0]["candidate_c"] is None
    assert "5/6 certified" in rep.notes and " 1 uncertified" in rep.notes
    assert rep.worst_margin == clean.worst_margin  # the margin reads the float d


@pytest.mark.parametrize("entries,certified", [([0], 6), ([0, 1], 5)])
def test_n62_trial_without_certificate_is_searched_and_judged(monkeypatch, entries, certified):
    # one d_i >= 0 leaves one shift of the certificate; d_0, d_1 >= 0 leave
    # none, and the trial is searched and judged as without certificates
    _fail_signs(monkeypatch, entries)
    searched, swept = _spy_search(monkeypatch)
    rep = verify_theorem_n62(trials=6, controls=3, seed=5)
    (batch, *rest), [controls] = searched, swept
    assert len(batch) == 6 - certified and all(p.winding == 2 for p in batch)
    assert [p.winding for p in controls] == [1, 1, 1]
    assert all(p.winding == 1 for b in rest for p in b)  # controls left open
    assert rep.failures == 0 and f"{certified}/6 certified" in rep.notes
    if certified == 6:
        assert rep.worst_margin < 0
    else:
        assert 0.0 <= rep.worst_margin <= 1e-8  # the search's |c - d| / scale^2


def test_n62_certified_trial_needs_the_corner_element(monkeypatch):
    def fail(polys):
        return np.zeros(len(polys), dtype=bool)

    monkeypatch.setattr(lab, "special_plus_certified", fail)
    rep = verify_theorem_n62(trials=3, controls=3, seed=5)
    assert rep.failures == 3
    assert [b["label"] for b in rep.failure_bundles] == ["n62-missing-corner-element"] * 3


def _searched_outcomes(polys, found, slack):
    """The controls' outcome from the full search's elements: None for no
    element, else whether it lies more than slack scale^2 from c = d."""
    return [None if el is None else lab._off_d(poly, el.c) > slack for poly, el in zip(polys, found)]


def _spy_coarse(monkeypatch) -> list:
    """(sweep, rows) of each call of ChartSweep.coarse, in call order."""
    calls = []

    def spy(self, rows, real=ChartSweep.coarse):
        calls.append((self, rows.copy()))
        return real(self, rows)

    monkeypatch.setattr(ChartSweep, "coarse", spy)
    return calls


def _sweep_slack(el) -> float:
    """min(d - c) / scale^2 in the sweep's plain floats."""
    return min(map(sub, el.base.dvec.tolist(), el.c.tolist())) / el.base.scale**2


def _is_minus_d(el) -> bool:
    return el is not None and np.array_equal(el.c, -el.base.dvec)


def test_controls_have_the_full_searchs_outcome(monkeypatch):
    # a control is decided by c = -d, else by its first chart winner that
    # shows it, else searched in full: the outcome is the search's, on
    # (5,1) and (6,1) polygons of several seeds in one batch, with stars
    # that have no convex element and certified (6,2) hexagons whose one
    # convex element is the corner c = d; at slack 0.25 the outcomes of
    # both convex kinds are mixed
    draws = [lab.sample_orbit_polygons(n, 1, lab._spawned_rngs(seed, 130))
             for seed in (1, 7, 11, 4242) for n in (5, 6)]
    convex = [poly for row in zip(*draws) for poly in row]
    stars = lab.sample_orbit_polygons(5, 2, lab._spawned_rngs(5, 60))
    hexagons = lab.sample_orbit_polygons(6, 2, lab._spawned_rngs(5, 60))
    hexagons = [p for p, ok in zip(hexagons, lab._sign_certificates(hexagons)[0]) if ok]
    assert len(hexagons) >= 55
    polys = convex + stars + hexagons
    found = convex_element_search_batch(polys)
    calls = _spy_coarse(monkeypatch)
    minus_d = {}
    for slack in (-np.inf, 1e-3, 0.25):
        calls.clear()
        swept = convex_element_sweep(polys, slack)
        # each sweep is built over the polygons that -d left open, scans
        # chart 0 of all of them, then chart s for those still open
        sweeps = {id(charts): charts for charts, _ in calls}.values()
        for charts in sweeps:
            rows = [r for c, r in calls if c is charts]
            held = len(charts.lo) // charts.n
            assert np.array_equal(rows[0], np.arange(held) * charts.n)
            assert all((r % charts.n == s).all() for s, r in enumerate(rows))
            assert all(np.isin(b // charts.n, a // charts.n).all() for a, b in zip(rows, rows[1:]))
        opened = sum(len(charts.lo) // charts.n for charts in sweeps)
        by_minus_d = [el for el in swept if _is_minus_d(el)]
        assert all(_sweep_slack(el) > slack for el in by_minus_d)
        minus_d[slack] = len(by_minus_d)
        sent_on = swept.count(None)
        assert len(polys) - opened == len(by_minus_d)
        if slack < 0.25:
            assert len(by_minus_d) > 0 and opened - sent_on > 0 and sent_on > 0
        calls.clear()
        outcome = lab._controls(polys, slack)
        assert outcome == _searched_outcomes(polys, found, slack)
    assert minus_d[-np.inf] > minus_d[0.25] > 0
    for n in (5, 6):
        assert {hit for poly, hit in zip(convex, outcome) if poly.n == n} == {True, False}
    for part, slack, want in ((stars, -np.inf, None), (hexagons, 1e-3, False)):
        assert convex_element_sweep(part, slack) == [None] * len(part)
        assert lab._controls(part, slack) == [want] * len(part)
        assert _searched_outcomes(part, convex_element_search_batch(part), slack) == [want] * len(part)


def test_sweep_scans_no_chart_when_minus_d_decides(monkeypatch):
    # pentagons and hexagons whose c = -d is a convex integral element of
    # slack above 1e-3 are settled on it, and no chart is built; at exactly
    # a polygon's own -d slack, -d does not decide it
    draws = [lab.sample_orbit_polygons(n, 1, lab._spawned_rngs(3, 40)) for n in (5, 6)]
    polys = [el.base for el in convex_element_sweep(draws[0] + draws[1], 1e-3) if _is_minus_d(el)]
    assert {p.n for p in polys} == {5, 6}
    calls = _spy_coarse(monkeypatch)
    assert all(_is_minus_d(el) for el in convex_element_sweep(polys, 1e-3))
    assert calls == []
    poly = polys[0]
    at = _sweep_slack(convex_element_sweep([poly], -np.inf)[0])
    assert _is_minus_d(convex_element_sweep([poly], np.nextafter(at, -np.inf))[0])
    assert calls == []
    assert not _is_minus_d(convex_element_sweep([poly], at)[0])
    assert len(calls) >= 1 and all(len(charts.lo) == poly.n for charts, _ in calls)


def test_sweep_settles_no_chart_row_without_a_regular_point(monkeypatch):
    # two pentagons that -d leaves open and chart 0 decides; chart 0 of the
    # first is made to read slack -inf, with its winner, a convex element,
    # kept: the sweep settles the second on chart 0 and leaves the first
    # open for chart 1
    calls = _spy_coarse(monkeypatch)
    decided = []
    for poly in lab.sample_orbit_polygons(5, 1, lab._spawned_rngs(3, 40)):
        calls.clear()
        el = convex_element_sweep([poly], -np.inf)[0]
        if el is not None and not _is_minus_d(el) and len(calls) == 1:
            decided.append(el)
    assert len(decided) >= 2
    a, b = decided[:2]
    rows = []

    def blind(self, r, real=ChartSweep.coarse):
        rows.append(r.copy())
        m, c, p = real(self, r)
        assert r[0] != 0 or np.array_equal(c[0], a.c)  # chart 0's winner of the first
        return np.where(r == 0, -np.inf, m), c, p

    monkeypatch.setattr(ChartSweep, "coarse", blind)
    first, second = convex_element_sweep([a.base, b.base], -np.inf)
    assert np.array_equal(second.c, b.c)
    assert [r.tolist() for r in rows[:2]] == [[0, 5], [1]]
    assert first is None or not np.array_equal(first.c, a.c)


@pytest.mark.parametrize("n,slack,floor", [(5, -np.inf, 0.99), (6, -np.inf, 0.99), (6, 1e-3, 0.99),
                                           (5, 1e-3, 0.95)])
def test_chart_zero_alone_decides_nearly_every_control(n, slack, floor):
    # the chart's own power, whatever -d decides: chart 0's coarse winner
    # settles nearly every (5,1) control at n52's slack -inf and (6,1)
    # control at n62's 1e-3 (no verifier asks pentagons for 1e-3; there
    # chart 0 settles 96-97 % of them, the later charts the rest)
    polys = [p for seed in (1, 2) for p in lab.sample_orbit_polygons(n, 1, lab._spawned_rngs(seed, 1000))]
    charts = ChartSweep(*polys)
    m, c, _ = charts.coarse(np.arange(len(polys)) * n)
    regular = np.flatnonzero(m > -np.inf)
    els = outerlab.elements._most_convex_each(polys, c[regular], regular)
    decided = sum(el is not None and _sweep_slack(el) > slack for el in els)
    assert decided >= floor * len(polys)


def test_controls_need_an_integral_element(monkeypatch):
    # with an integrality tolerance that no residual meets, no chart winner
    # decides a control and the search finds no element
    monkeypatch.setattr(outerlab.elements, "INTEGRAL_TOL", -1.0)
    polys = [poly for n in (5, 6) for poly in lab.sample_orbit_polygons(n, 1, lab._spawned_rngs(3, 8))]
    for slack in (-np.inf, 1e-3):
        assert lab._controls(polys, slack) == [None] * 16


# sha256 of the two reports of test_controls_without_elements_are_failures
# (numpy 2.4, x86-64 Linux), taken when the controls began to be decided on
# the coarse sweep; the full search of every control gives the same bytes.
CONTROL_FAILURES_SHA256 = "b72e4a3ac65748b7107be3e2a71edd0ae261749eaf0c47754bf69d3530cdccb0"


def test_controls_without_elements_are_failures(monkeypatch):
    # drawn as (5,2) and (6,2) polygons, the n52 controls find no element
    # and the n62 controls only the corner c = d
    real = lab.sample_orbit_polygons
    monkeypatch.setattr(lab, "sample_orbit_polygons",
                        lambda n, m, rngs, attempts=10_000: real(n, 2, rngs, attempts))
    n52 = verify_theorem_n52(trials=8, controls=6, seed=3)
    n62 = verify_theorem_n62(trials=8, controls=6, seed=3)
    assert n52.failures == 6
    assert [b["label"] for b in n52.failure_bundles] == ["n51-control-miss"] * 6
    assert all(len(b["vertices"]) == 5 and b["candidate_c"] is None for b in n52.failure_bundles)
    assert n62.failures == 1
    assert [b["label"] for b in n62.failure_bundles] == ["n61-no-interior-element"]
    assert "; 0/6 convex-hexagon controls gave an interior element" in n62.notes
    text = dumps_canonical(report_to_dict(n52)) + dumps_canonical(report_to_dict(n62))
    assert hashlib.sha256(text.encode()).hexdigest() == CONTROL_FAILURES_SHA256


def test_vertex_builder_matches_sequential_loop():
    # the cumulative sum reproduces z_k = z_{k-1} - 2 r_{k-1} bit for bit
    rng = np.random.default_rng(12)
    for n in range(3, 13):
        for z0 in (rng.uniform(-1.0, 1.0, 2), np.zeros(2)):
            r = rng.normal(size=(n, 2)) * rng.lognormal(0.0, 2.0, (n, 1))
            want = np.empty((n, 2))
            want[0] = z0
            for k in range(1, n):
                want[k] = want[k - 1] - 2.0 * r[k - 1]
            assert np.array_equal(lab._vertices(z0, r), want)



# ---------------------------------------------------------------------------
# The lock-step batch against the sequential sampler it replaced (kept in
# tests/reference.py): the same bits, and the same draws from each generator.

FIELDS = ("vertices", "r", "rbar", "s", "delta", "dvec", "alpha", "exterior")
ALL_PAIRS = [(n, m) for n in range(3, 13) for m in range(1, n) if 0 < 2 * m < n]


def assert_same_polygon(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.winding, a.locally_convex) == (b.winding, b.locally_convex)


def generators(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


@pytest.mark.parametrize("n,m", ALL_PAIRS)
def test_batch_matches_sequential_sampler(n, m):
    rejected = Counter()
    for seed in (0, 7, 1729):
        batch_rngs, seq_rngs = generators(seed, 6), generators(seed, 6)
        batch = lab.sample_orbit_polygons(n, m, batch_rngs)
        for poly, rng in zip(batch, seq_rngs):
            assert_same_polygon(poly, reference.sample_orbit_polygon(n, m, rng, rejected=rejected))
        # each trial drew exactly what the sequential loop drew
        assert ([g.integers(2**62) for g in batch_rngs]
                == [g.integers(2**62) for g in seq_rngs])


def test_batch_resumes_after_each_rejection():
    # one (8,2) batch whose trials the sequential loop rejected at the angle
    # walls, retried inside the closure, and rejected for want of a positive
    # closure (all four tries failed), mixed with trials it accepted at once
    found = {"angle wall": [], "closure retry": [], "non-positive closure": []}
    clean = []
    for seed in range(1500):
        rejected = Counter()
        reference.sample_orbit_polygon(8, 2, np.random.default_rng(seed), rejected=rejected)
        for reason, seeds in found.items():
            if rejected[reason] and len(seeds) < 2:
                seeds.append(seed)
        if not rejected and len(clean) < 3:
            clean.append(seed)
    assert all(len(seeds) == 2 for seeds in found.values())
    seeds = [clean[0], *found["non-positive closure"], clean[1], *found["angle wall"],
             *found["closure retry"], clean[2]]
    batch = lab.sample_orbit_polygons(8, 2, [np.random.default_rng(s) for s in seeds])
    for poly, s in zip(batch, seeds):
        assert_same_polygon(poly, reference.sample_orbit_polygon(8, 2, np.random.default_rng(s)))


def test_builder_reports_each_rejection():
    n, m = 5, 2
    rows = np.array([
        np.full(n, 4 * np.pi / 5),  # the regular (5,2) star: accepted
        np.full(n, 4 * np.pi / 5),  # not clear of the angle walls
        np.full(n, 0.1),            # directions in a half-plane: no positive closure
        np.full(n, 2 * np.pi / 5),  # a convex pentagon: winding 1, not 2
    ])
    clear = np.array([True, False, True, True])
    rngs, again = generators(3, 4), generators(3, 4)
    built = lab._build(m, rows, clear, rngs)
    assert built[1:] == ["angle wall", "non-positive closure", "convexity or winding"]
    # the accepted row went through the sequential closure, scale and placement
    phi = again[0].uniform(0.0, 2.0 * np.pi) + np.cumsum(rows[0])
    U = np.stack([np.cos(phi), np.sin(phi)])
    s = reference.positive_closure(U, again[0]) * again[0].lognormal(0.0, 0.25)
    z = reference.vertices(again[0].uniform(-1.0, 1.0, 2), s[:, None] * U.T)
    assert_same_polygon(built[0], reference.derive_orbit_polygon(z))
    # a row off the walls drew nothing
    assert rngs[1].integers(2**62) == again[1].integers(2**62)


def test_spiked_hexagons_match_sequential():
    # each row of the stack is the one-generator draw of its own generator,
    # and each generator drew exactly what that draw drew; seeds 845 and
    # 1333 are rejected draws, mixed in among accepted ones
    seeds = [*range(150), 845, *range(150, 300), 1333]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    again = [np.random.default_rng(seed) for seed in seeds]
    stacked = lab._spiked_62(rngs)
    assert stacked[150] is None and stacked[-1] is None
    for a, rng in zip(stacked, again):
        b = reference.spiked_62(rng)
        assert (a is None) == (b is None)
        if a is not None:
            assert_same_polygon(a, b)
    assert [g.integers(2**62) for g in rngs] == [g.integers(2**62) for g in again]
    assert lab._spiked_62([]) == []


def test_trapezoids_match_the_retry_loop():
    # the batch makes each generator's draws in the loop's order, and no
    # trapezoid needs the retry that the batch dropped
    rngs, again = generators(4, 250), generators(4, 250)
    for poly, rng in zip(lab._random_trapezoids(rngs), again):
        assert_same_polygon(poly, reference.random_trapezoid(rng))
    assert [g.integers(2**62) for g in rngs] == [g.integers(2**62) for g in again]
    assert lab._random_trapezoids([]) == []


def test_trapezoid_that_is_not_convex_is_an_error(monkeypatch):
    real = lab.derive_orbit_polygons
    monkeypatch.setattr(lab, "derive_orbit_polygons", lambda z: real(z[:, ::-1]))
    with pytest.raises(ValidationFailed):
        lab._random_trapezoids(generators(4, 3))


def test_scan_finds_are_the_draws_of_their_own_generators():
    # sample k draws from the k-th generator spawned from the seed: a plain
    # sampler draw when k is even, a spiked hexagon when k is odd
    scan = search_paradoxical(samples=200, seed=7)
    want, margins = [], []
    for k, rng in enumerate(generators(7, 200)):
        poly = reference.spiked_62(rng) if k % 2 else reference.sample_orbit_polygon(6, 2, rng)
        if poly is not None:
            margins.append(paradox_margin(poly))
            if margins[-1] > 0.0:
                want.append((k, poly))
    assert len(scan.finds) == len(want)
    assert any(k % 2 == 0 for k, _ in want)  # a plain draw among the finds
    for find, (_, poly) in zip(scan.finds, want):
        assert_same_polygon(find.polygon, poly)
        assert find.margin == paradox_margin(poly)
    assert scan.best_margin == max(margins)
    assert search_paradoxical(samples=0).best_margin == -np.inf


def test_scan_sampler_exhaustion_propagates(monkeypatch):
    exhausted = functools.partial(lab.sample_orbit_polygons, attempts=2)
    monkeypatch.setattr(lab, "sample_orbit_polygons", exhausted)
    monkeypatch.setattr(lab, "ANGLE_MARGIN", 0.5)  # every plain draw hits a wall
    with pytest.raises(SamplerExhausted):
        search_paradoxical(samples=4, seed=1)


def test_batch_exhaustion_in_one_trial():
    # with two attempts, one trial of the batch is rejected on both
    ok, fail = [], []
    for seed in range(1100):
        try:
            reference.sample_orbit_polygon(12, 3, np.random.default_rng(seed), attempts=2)
            ok.append(seed)
        except SamplerExhausted:
            fail.append(seed)
    assert fail
    seeds = ok[:3] + fail[:1] + ok[3:5]
    with pytest.raises(SamplerExhausted):
        lab.sample_orbit_polygons(12, 3, [np.random.default_rng(s) for s in seeds], attempts=2)
    # without the failing trial the same batch goes through
    rest = [np.random.default_rng(s) for s in ok[:5]]
    assert len(lab.sample_orbit_polygons(12, 3, rest, attempts=2)) == 5


def test_batch_edge_cases():
    assert lab.sample_orbit_polygons(5, 2, []) == []
    with pytest.raises(InputError):
        lab.sample_orbit_polygons(6, 3, generators(0, 2))


# ---------------------------------------------------------------------------
# Per-draw generators: numpy's SeedSequence spawn (``generators``, the
# oracle), with every child's seeding words computed in one pass.

SPAWN_SEEDS = [0, 1, 7, 1729, 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 9, 2**200 + 12345,
               pytest.param(np.int64(4242), id="int64")]


def _draws(rng) -> np.ndarray:
    return np.concatenate([rng.uniform(0.15, 0.65, 2), rng.normal(0.0, 1.0, 3),
                           rng.lognormal(0.0, 0.4, 3), rng.dirichlet(np.ones(4))])


@pytest.mark.parametrize("count", [0, 1, 2, 1000])
@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_spawned_rngs_are_numpys_spawned_streams(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    want = np.array([c.generate_state(4, np.uint64) for c in children], np.uint64)
    got = lab._spawn_words(seed, count)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want.reshape(count, 4))
    rngs = lab._spawned_rngs(seed, count)
    assert len(rngs) == count
    for rng, ref in zip(rngs, generators(seed, count)):
        assert np.array_equal(_draws(rng), _draws(ref))


def test_spawned_rngs_cannot_spawn():
    with pytest.raises(TypeError):
        lab._spawned_rngs(7, 1)[0].spawn(1)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random is imported on the first draw, so that commands that draw
    # nothing (orbit, element) skip its import time
    code = "import sys, outerlab.cli; print('numpy.random' in sys.modules)"
    src = os.path.dirname(os.path.dirname(outerlab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("call", [
    lambda: verify_theorem_n3(trials=-1),
    lambda: verify_theorem_n4(trials=2, seed=-1),
    lambda: verify_theorem_n52(trials=2, controls=-1),
    lambda: verify_theorem_n62(trials=-2),
    lambda: search_paradoxical(samples=-2),
    lambda: search_paradoxical(samples=2, seed=-5),
    lambda: OrbitSampler(5, 2, seed=-1),
])
def test_negative_counts_and_seeds_are_input_errors(call):
    with pytest.raises(InputError):
        call()


# The number of searched and of classified polygons that the four verifiers
# draw at seed 7, and a sha256 over them, computed with the sequential sampler
# the batch replaced.  Searches are stubbed out (they draw nothing; the
# controls are recorded where they enter lab._controls), and the
# (6,2) verifier sees a quarter of its draws as paradoxical, so that its
# trials redraw over several rounds.  The sign certificates are stubbed as
# well and record the trials they are given, so the (5,2) and (6,2) trials
# are counted in the order in which the search saw them before it.
DRAWN_POLYGONS_SHA256 = "210 39 3f226d5d93b1e5e1b24ce1fb91ecf44f984855fc085316c7d90d57f923477125"


def _polygon_digest(poly) -> bytes:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(poly, name)).tobytes())
    h.update(f"{poly.winding},{poly.locally_convex}".encode())
    return h.digest()


def drawn_polygons_sha256(monkeypatch) -> str:
    searched, classified = [], []
    real_make, real_margins = lab.make_element, lab.paradox_margins

    def make(poly, c, *args, **kwargs):
        searched.append(poly)
        return real_make(poly, c, *args, **kwargs)

    def search_batch(polys, *args):
        searched.extend(polys)
        return [None] * len(polys)

    def certify(polys):
        # every trial certified, so no trial is searched and each star is
        # recorded once, before the controls, as when searched
        searched.extend(polys)
        return np.ones(len(polys), dtype=bool), np.zeros(len(polys))

    def paradoxical(polys):
        classified.extend(polys)
        return np.where([p.vertices[0, 0] > 0.5 for p in polys], 1.0, real_margins(polys))

    monkeypatch.setattr(lab, "make_element", make)
    monkeypatch.setattr(lab, "convex_element_search_batch", search_batch)
    monkeypatch.setattr(lab, "_controls", search_batch)
    monkeypatch.setattr(lab, "_sign_certificates", certify)
    monkeypatch.setattr(lab, "paradox_margins", paradoxical)
    verify_theorem_n3(trials=40, seed=7)
    verify_theorem_n4(trials=40, seed=7)
    verify_theorem_n52(trials=40, controls=10, seed=7)
    verify_theorem_n62(trials=30, controls=10, seed=7)
    # searched polygons in trial order; the (6,2) draws as a set, since the
    # batch classifies them round by round rather than trial by trial
    h = hashlib.sha256()
    for digest in [_polygon_digest(p) for p in searched] + sorted(map(_polygon_digest, classified)):
        h.update(digest)
    return f"{len(searched)} {len(classified)} {h.hexdigest()}"


def test_verifiers_draw_the_sequential_polygons(monkeypatch):
    assert drawn_polygons_sha256(monkeypatch) == DRAWN_POLYGONS_SHA256
