"""Randomized samplers and theorem verifiers.

The sampler draws (n, m) orbit polygons: turning angles with the exact
angle budget 2 pi m, edge directions by cumulative sums, and edge lengths
solved from the two closure constraints by exact projection onto the null
space (never approximated).  Verifiers corroborate the nonexistence
statements for n = 3, 4, (5,2), (6,2) over many samples and report margins;
a failure is stored with a replay bundle instead of being hidden.

All verifier trials are pure functions of per-trial seeds spawned from the
master seed.  The (5,2) and (6,2) verifiers run in three phases: every
trial draws its polygon and search budget from its own generator, one
batched convex-element search covers all trials and controls, and then each
trial is checked.  The ``threads`` argument is kept for compatibility and
has no effect: reports are the same bytes for every value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .elements import (
    ChartSweep,
    SearchBudget,
    classify_paradoxical,
    convex_element_search,
    convex_element_search_batch,
    make_element,
    paradox_margin,
    variety_point_n5,
    variety_point_n6,
)
from .errors import InputError, SamplerExhausted
from .geometry import OrbitPolygon, derive_orbit_polygon, polygon_area

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 1000

# Sampler rejection knobs: keep angles off the walls of (0, pi) and edge
# lengths off zero, so downstream rank decisions stay well conditioned.
ANGLE_MARGIN = 1e-3
LENGTH_FLOOR = 5e-3


@dataclass
class OrbitSampler:
    """Draws locally convex (n, m) orbit polygons, 0 < 2m < n.

    Turning angles delta_i are a projected-Gaussian perturbation of the
    regular star's angle vector (the flat Dirichlet dies for 2m near n), the
    spread redrawn per attempt; directions are their cumulative sums; edge
    lengths come from projecting positive weights onto the closure null
    space, rejected unless strictly positive.
    """

    n: int
    m: int
    seed: int = DEFAULT_SEED
    attempts: int = 10_000
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 < 2 * self.m < self.n:
            raise InputError(f"need 0 < 2m < n, got (n, m) = ({self.n}, {self.m})")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng


def sample_orbit_polygon(sampler: OrbitSampler) -> OrbitPolygon:
    n, m, rng = sampler.n, sampler.m, sampler.rng
    xbar = 2.0 * m / n
    head = min(xbar, 1.0 - xbar)
    for attempt in range(sampler.attempts):
        hi = 0.65 if attempt < sampler.attempts // 2 else 0.35
        spread = rng.uniform(0.15, hi)
        g = rng.normal(0.0, 1.0, n)
        g -= g.mean()
        x = xbar + spread * head * g
        if x.min() <= ANGLE_MARGIN or x.max() >= 1.0 - ANGLE_MARGIN:
            continue
        delta = np.pi * x
        phi = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(delta)
        U = np.stack([np.cos(phi), np.sin(phi)])
        s = _positive_closure(U, rng)
        if s is None:
            continue
        s = s * rng.lognormal(0.0, 0.25)
        poly = derive_orbit_polygon(_vertices(rng.uniform(-1.0, 1.0, 2), s[:, None] * U.T))
        if poly.locally_convex and poly.winding == m:
            return poly
    raise SamplerExhausted(f"no ({n},{m}) polygon within {sampler.attempts} attempts")


def _vertices(z0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vertices z_k = z_{k-1} - 2 r_{k-1} from z_0 and the half-edge vectors,
    accumulated in order."""
    return np.cumsum(np.vstack([z0, -2.0 * r[:-1]]), axis=0)


def _positive_closure(U: np.ndarray, rng: np.random.Generator) -> Optional[np.ndarray]:
    """Strictly positive lengths with U s = 0: exact null-space projection of
    random positive weights, sign-flipped when fully negative."""
    gram = U @ U.T
    for _ in range(4):
        w = rng.lognormal(0.0, 0.4, U.shape[1])
        s = w - U.T @ np.linalg.solve(gram, U @ w)
        if np.all(s < 0):
            s = -s
        if s.min() > LENGTH_FLOOR * np.abs(s).max():
            return s
    return None


def _spawned_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]


def _run_trials(fn: Callable[[int, np.random.Generator], dict],
                trials: int, seed: int) -> list[dict]:
    return [fn(k, rng) for k, rng in enumerate(_spawned_rngs(seed, trials))]


@dataclass(frozen=True)
class VerifierReport:
    """Outcome of one theorem verifier: margins, failures, replay bundles."""

    theorem: str
    samples: int
    failures: int
    worst_margin: float
    notes: str
    seed: int
    failure_bundles: tuple[dict, ...] = ()


def _sampler_for(n: int, m: int, rng: np.random.Generator) -> OrbitSampler:
    s = OrbitSampler(n=n, m=m, seed=0)
    s._rng = rng
    return s


def _budget_for(rng: np.random.Generator) -> SearchBudget:
    return SearchBudget(seed=int(rng.integers(0, 2**63 - 1)))


def _draw(n: int, m: int, rng: np.random.Generator) -> tuple[OrbitPolygon, SearchBudget]:
    """A trial's polygon and then its search budget, from its generator."""
    poly = sample_orbit_polygon(_sampler_for(n, m, rng))
    return poly, _budget_for(rng)


def _search(drawn: list[tuple[OrbitPolygon, SearchBudget]]) -> list:
    """One batched convex-element search over (polygon, budget) pairs."""
    return convex_element_search_batch([p for p, _ in drawn], [b for _, b in drawn])


MAX_BUNDLES = 10

# Draws per (6,2) trial before it gives up on finding a non-paradoxical
# sample; far above what the sampler needs (paradoxical draws are rare).
MAX_PARADOXICAL_DRAWS = 1000


def _collect(results: list[dict], theorem: str, seed: int, samples: int,
             notes: str, margin_reduce) -> VerifierReport:
    failures = sum(r["failures"] for r in results)
    bundles = []
    for r in results:
        bundles.extend(r.get("bundles", ()))
    worst = margin_reduce([r["margin"] for r in results]) if results else 0.0
    return VerifierReport(
        theorem=theorem,
        samples=samples,
        failures=failures,
        worst_margin=float(worst),
        notes=notes,
        seed=seed,
        failure_bundles=tuple(bundles[:MAX_BUNDLES]),
    )


def _bundle(poly: OrbitPolygon, c, label: str) -> dict:
    return {
        "label": label,
        "vertices": [[float(x), float(y)] for x, y in poly.vertices],
        "candidate_c": None if c is None else [float(v) for v in np.asarray(c)],
    }


# ---------------------------------------------------------------------------
# Theorem n = 3: the single integral element is never convex.

def verify_theorem_n3(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                      threads: int = 1) -> VerifierReport:
    def trial(_k: int, rng: np.random.Generator) -> dict:
        poly = sample_orbit_polygon(_sampler_for(3, 1, rng))
        cstar = np.roll(poly.delta, 1)
        el = make_element(poly, cstar)
        half_area = 0.5 * polygon_area(poly.vertices)
        rel_dev = float(np.max(np.abs(cstar - half_area)) / abs(half_area))
        perturbed = cstar * np.array([1.0, 1.0, 2.0])
        bad = make_element(poly, perturbed)
        ok = (el.is_valid and not el.is_convex and rel_dev < 1e-9
              and not bad.is_valid
              and bool(np.all(cstar > poly.dvec)))
        out = {"failures": 0 if ok else 1, "margin": rel_dev}
        if not ok:
            out["bundles"] = [_bundle(poly, cstar, "n3-element-check")]
        return out

    results = _run_trials(trial, trials, seed)
    return _collect(
        results, "n3", seed, trials,
        "unique element equals the half area on every triangle and is never "
        "convex; margin is the worst relative deviation from the half area",
        max,
    )


# ---------------------------------------------------------------------------
# Theorem n = 4: the conic sweep pins the only convex element to c = d.

def _random_trapezoid(rng: np.random.Generator) -> OrbitPolygon:
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


def verify_theorem_n4(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                      threads: int = 1) -> VerifierReport:
    def trial(k: int, rng: np.random.Generator) -> dict:
        if k % 5 == 4:
            poly = _random_trapezoid(rng)  # exercise the degenerate conic
        else:
            poly = sample_orbit_polygon(_sampler_for(4, 1, rng))
        el = convex_element_search(poly, _budget_for(rng))
        sc2 = poly.scale**2
        if el is None:
            return {"failures": 1, "margin": np.inf,
                    "bundles": [_bundle(poly, None, "n4-no-element")]}
        dev = float(np.max(np.abs(el.c - poly.dvec)) / sc2)
        ok = dev <= 1e-8
        out = {"failures": 0 if ok else 1, "margin": dev}
        if not ok:
            out["bundles"] = [_bundle(poly, el.c, "n4-off-d-element")]
        return out

    results = _run_trials(trial, trials, seed)
    return _collect(
        results, "n4", seed, trials,
        "every convex element found by the conic sweep coincides with d "
        "(margin = worst |c - d| / scale^2); every fifth sample is a "
        "trapezoid to exercise the degenerate branch",
        max,
    )


# ---------------------------------------------------------------------------
# Theorem (5, 2): no convex element exists on star pentagons.

def _probe_margins_n5(polys: list[OrbitPolygon], grid: int = 15) -> np.ndarray:
    """Best convexity slack min(d - c) over chart probes of the variety, per
    pentagon."""
    if not polys:
        return np.empty(0)
    return np.max(ChartSweep(*polys).sweep(grid)[0].reshape(len(polys), -1), axis=1)


def _identity_residual_n5(poly: OrbitPolygon, c: np.ndarray) -> float:
    """Relative residual of c_1 c_2 - d_1 d_2 = (c_4 + d_4) delta_2 (variety
    points only); this is the sign-contradiction identity for (5, 2)."""
    d, D = poly.dvec, poly.delta
    lhs = c[0] * c[1] - d[0] * d[1]
    rhs = (c[3] + d[3]) * D[1]
    mag = max(abs(c[0] * c[1]), abs(d[0] * d[1]), abs(rhs), 1e-300)
    return abs(lhs - rhs) / mag


def verify_theorem_n52(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                       threads: int = 1, controls: int = 100) -> VerifierReport:
    stars = [_draw(5, 2, rng) for rng in _spawned_rngs(seed, trials)]
    convex = [_draw(5, 1, rng) for rng in _spawned_rngs(seed + 1, controls)]
    found = _search(stars + convex)
    margins = _probe_margins_n5([poly for poly, _ in stars])

    def trial(poly: OrbitPolygon, el, probe: float) -> dict:
        failures = 0
        bundles = []
        if not np.all(poly.dvec < 0):
            failures += 1
            bundles.append(_bundle(poly, None, "n52-nonneg-d"))
        if el is not None:
            failures += 1
            bundles.append(_bundle(poly, el.c, "n52-convex-element"))
        # Sign-contradiction identity on a few variety probes.
        d = poly.dvec
        probes, ok = variety_point_n5(poly, d[0], d[1])
        if bool(ok) and _identity_residual_n5(poly, probes) > 1e-8:
            failures += 1
            bundles.append(_bundle(poly, probes, "n52-identity"))
        out = {"failures": failures, "margin": float(probe) / poly.scale**2}
        if bundles:
            out["bundles"] = bundles
        return out

    def control(poly: OrbitPolygon, el) -> dict:
        ok = el is not None
        out = {"failures": 0 if ok else 1, "margin": -np.inf}
        if not ok:
            out["bundles"] = [_bundle(poly, None, "n51-control-miss")]
        return out

    results = [trial(poly, el, probe)
               for (poly, _), el, probe in zip(stars, found, margins)]
    results += [control(poly, el) for (poly, _), el in zip(convex, found[trials:])]
    return _collect(
        results, "n52", seed, trials,
        f"no convex element on any (5,2) sample and all d_i < 0; margin is "
        f"the best convexity slack min(d - c)/scale^2 seen on variety probes "
        f"(negative = infeasible); {controls} convex-pentagon controls must "
        f"each produce an element",
        max,
    )


# ---------------------------------------------------------------------------
# Theorem (6, 2): non-paradoxical samples admit only the corner element c = d.

def _identity_residual_n6(poly: OrbitPolygon, c: np.ndarray) -> float:
    """Relative residual of D_5 (c_1 c_2 - d_1 d_2) + D_2 (c_4 c_5 - d_4 d_5) = 0."""
    d, D = poly.dvec, poly.delta
    t1 = D[4] * (c[0] * c[1] - d[0] * d[1])
    t2 = D[1] * (c[3] * c[4] - d[3] * d[4])
    mag = max(abs(D[4] * c[0] * c[1]), abs(D[4] * d[0] * d[1]),
              abs(D[1] * c[3] * c[4]), abs(D[1] * d[3] * d[4]), 1e-300)
    return abs(t1 + t2) / mag


def verify_theorem_n62(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                       threads: int = 1, controls: int = 100) -> VerifierReport:
    def draw(rng: np.random.Generator):
        """A non-paradoxical (6,2) polygon and its budget, or the last
        paradoxical draw and None at the cap; with the discard count."""
        sampler = _sampler_for(6, 2, rng)
        for discarded in range(MAX_PARADOXICAL_DRAWS):
            poly = sample_orbit_polygon(sampler)
            if not classify_paradoxical(poly):
                return poly, _budget_for(rng), discarded
        return poly, None, MAX_PARADOXICAL_DRAWS

    stars = [draw(rng) for rng in _spawned_rngs(seed, trials)]
    convex = [_draw(6, 1, rng) for rng in _spawned_rngs(seed + 1, controls)]
    searched = [(poly, budget) for poly, budget, _ in stars if budget is not None]
    found = iter(_search(searched + convex))

    def capped(poly: OrbitPolygon, discarded: int) -> dict:
        return {"failures": 1, "margin": 0.0, "discarded": discarded,
                "bundles": [_bundle(poly, None, "n62-paradoxical-cap")]}

    def trial(poly: OrbitPolygon, el, discarded: int) -> dict:
        failures = 0
        bundles = []
        sc2 = poly.scale**2
        if el is None:
            failures += 1
            dev = np.inf
            bundles.append(_bundle(poly, None, "n62-missing-corner-element"))
        else:
            dev = float(np.max(np.abs(el.c - poly.dvec)) / sc2)
            if dev > 1e-8:
                failures += 1
                bundles.append(_bundle(poly, el.c, "n62-off-d-element"))
        probes, ok = variety_point_n6(poly, -poly.dvec[0], -poly.dvec[1], -poly.dvec[2])
        if bool(ok) and _identity_residual_n6(poly, probes) > 1e-8:
            failures += 1
            bundles.append(_bundle(poly, probes, "n62-identity"))
        out = {"failures": failures, "margin": dev, "discarded": discarded}
        if bundles:
            out["bundles"] = bundles
        return out

    def control(poly: OrbitPolygon, el) -> dict:
        if el is None:
            return {"failures": 1, "margin": 0.0,
                    "bundles": [_bundle(poly, None, "n61-control-miss")]}
        dev = float(np.max(np.abs(el.c - poly.dvec)) / poly.scale**2)
        return {"failures": 0, "margin": 0.0, "control_dev": dev}

    # The searched trials take the first results, in order; the controls the rest.
    results = [capped(poly, discarded) if budget is None
               else trial(poly, next(found), discarded)
               for poly, budget, discarded in stars]
    control_results = [control(poly, next(found)) for poly, _ in convex]
    devs = [r.get("control_dev", 0.0) for r in control_results]
    interior_hits = sum(1 for v in devs if v > 1e-3)
    if interior_hits == 0:
        control_results.append({
            "failures": 1, "margin": 0.0,
            "bundles": [{"label": "n61-no-interior-element",
                         "vertices": [], "candidate_c": None}],
        })
    discarded = sum(r.get("discarded", 0) for r in results)
    return _collect(
        results + control_results, "n62", seed, trials,
        f"every element found on non-paradoxical (6,2) samples equals d "
        f"(margin = worst |c - d|/scale^2); {discarded} paradoxical samples "
        f"discarded; {interior_hits}/{controls} convex-hexagon controls gave "
        f"an interior element (|c - d| > 1e-3 scale^2)",
        max,
    )


# ---------------------------------------------------------------------------
# Exploration of the open question: paradoxical (6, 2) polygons.

@dataclass(frozen=True)
class ParadoxicalFind:
    polygon: OrbitPolygon
    margin: float
    element: Optional[object]  # IntegralElement from convex_element_search


@dataclass(frozen=True)
class ParadoxicalScan:
    samples: int
    best_margin: float
    finds: tuple[ParadoxicalFind, ...]
    notes: str
    seed: int


def _spiked_62(rng: np.random.Generator) -> Optional[OrbitPolygon]:
    """Angle vector engineered to make one vertex paradoxical."""
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
    s = _positive_closure(U, rng)
    if s is None:
        return None
    poly = derive_orbit_polygon(_vertices(np.zeros(2), s[:, None] * U.T))
    if poly.locally_convex and poly.winding == 2:
        return poly
    return None


def search_paradoxical(samples: int = 200, seed: int = DEFAULT_SEED) -> ParadoxicalScan:
    """Scan (6,2) polygons for paradoxical angle patterns.

    Half the draws are plain sampler output, half are spiked constructions
    with one angle near pi.  Whatever is found is reported descriptively:
    existence for an actual convex curve is an open question, so neither an
    empty nor a non-empty find list is a failure.
    """
    rng = np.random.default_rng(seed)
    sampler = _sampler_for(6, 2, rng)
    hits: list[tuple[OrbitPolygon, SearchBudget, float]] = []
    best = -np.inf
    spiked_hits = 0
    for k in range(samples):
        if k % 2 == 0:
            try:
                poly = sample_orbit_polygon(sampler)
            except SamplerExhausted:
                continue
        else:
            poly = _spiked_62(rng)
            if poly is None:
                continue
        margin = paradox_margin(poly)
        best = max(best, margin)
        if margin > 0.0:
            if k % 2 == 1:
                spiked_hits += 1
            hits.append((poly, _budget_for(rng), margin))
    # The search draws nothing from rng, so it runs once, after the scan.
    found = _search([(poly, budget) for poly, budget, _ in hits])
    finds = tuple(ParadoxicalFind(polygon=poly, margin=margin, element=el)
                  for (poly, _, margin), el in zip(hits, found))
    return ParadoxicalScan(
        samples=samples,
        best_margin=float(best),
        finds=finds,
        notes=(f"{len(finds)} paradoxical polygons ({spiked_hits} from spiked "
               "angles); existence for a convex curve remains open, results "
               "are descriptive only"),
        seed=seed,
    )
