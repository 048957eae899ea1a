"""Sampler guarantees, verifier bookkeeping, thread determinism."""

import hashlib

import numpy as np
import pytest

from outerlab import cli, lab
from outerlab.elements import classify_paradoxical, make_element
from outerlab.errors import InputError, SamplerExhausted
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


def test_sampler_exhaustion_is_reported():
    sampler = OrbitSampler(5, 2, seed=0, attempts=0)
    with pytest.raises(SamplerExhausted):
        sample_orbit_polygon(sampler)


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
def test_verifier_thread_determinism(theorem, kwargs):
    fn = {"n3": verify_theorem_n3, "n52": verify_theorem_n52}[theorem]
    single = fn(trials=16, seed=99, threads=1, **kwargs)
    multi = fn(trials=16, seed=99, threads=4, **kwargs)
    assert dumps_canonical(report_to_dict(single)) == dumps_canonical(
        report_to_dict(multi)
    )


# sha256 of the three reports below, concatenated, computed before the
# verifiers batched their searches, with the per-trial code they replaced
# (numpy 2.4, x86-64 Linux).  The batched verifiers must give the same bytes.
GOLDEN_REPORTS_SHA256 = "07b3a175b8489772f62ab5a75e25c0605a93e45b01a3eaae5fa7fbd507276f51"


def test_verifier_reports_match_golden_bytes(capsys):
    n52 = verify_theorem_n52(trials=20, controls=10, seed=7)
    n62 = verify_theorem_n62(trials=10, controls=10, seed=7)
    capsys.readouterr()
    assert cli.main(["search-paradoxical", "--trials", "40", "--seed", "7"]) == 0
    text = (dumps_canonical(report_to_dict(n52)) + dumps_canonical(report_to_dict(n62))
            + capsys.readouterr().out)
    assert '"element": {' in text  # the scan's finds carry searched elements
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256


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


def test_n62_paradoxical_cap_records_failure(monkeypatch):
    # a sampler that only ever yields paradoxical hexagons must end each
    # trial at the cap with a replay bundle instead of looping forever
    monkeypatch.setattr(lab, "classify_paradoxical", lambda poly: True)
    monkeypatch.setattr(lab, "MAX_PARADOXICAL_DRAWS", 3)
    rep = verify_theorem_n62(trials=2, seed=5, controls=0)
    capped = [b for b in rep.failure_bundles if b["label"] == "n62-paradoxical-cap"]
    assert len(capped) == 2
    for b in capped:
        assert len(b["vertices"]) == 6 and b["candidate_c"] is None
    assert "6 paradoxical samples discarded" in rep.notes
    # two capped trials, plus the missing interior control (controls=0)
    assert rep.failures == 3


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
