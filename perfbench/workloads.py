"""The three workloads: inputs from a seed, one round of work, output checks.

Each workload is single-process and single-threaded and puts most of its
time in a different layer of outerlab:

- ``stars``: ``outerlab verify n52`` and ``outerlab verify n62`` through
  ``outerlab.cli.main``; the convex-element chart search dominates.
- ``classify``: sample (n, m) polygons for n = 3..12 and classify c = -d,
  c = +d (even n) and a perturbed -d; sampler, ``make_element`` and
  geometry, with no chart search and no dynamics.
- ``orbit``: certified periodic orbits around a lattice 12-gon and fixed
  length orbits around a sampled circle; dynamics and geometry only.

A round is a fixed amount of work, split into timed items.  An item has a
key that names the same amount of work in every round of a run: the same
verifier call size (stars), the same polygon (classify), the same pool
start up to a symmetry (orbit).  Inputs depend on the seed (and, where the
work stays equal, on the round index) only.  Functions of outerlab are
looked up on their modules at call time, so the traced run sees the
wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from outerlab import cli, dynamics, elements, lab
from outerlab.errors import OuterLabError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Sizes:
    """Work per round, and how many times the set-up is timed."""

    n52_trials: int = 50
    n62_trials: int = 10
    classify_per_pair: int = 10
    lattice_starts: int = 96
    circle_starts: int = 8
    circle_steps: int = 20
    setup_repeats: int = 25


TINY = Sizes(n52_trials=2, n62_trials=2, classify_per_pair=1, lattice_starts=8,
             circle_starts=1, circle_steps=5, setup_repeats=2)

# classify: one entry of -d moves by this share of max |d|; the result must
# be rejected.  Scaling one entry by 1.001 is not enough: d_j = -1.3e-4
# scaled so stays within the rank tolerance.  At 1e-3 of max |d| the
# smallest second-smallest singular value over 24 000 polygons was 1.3e-7
# of the largest (tolerance 1e-9); 1e-2 keeps a margin of about 1000.
PERTURB = 1e-2
# orbit: iteration cap for a lattice start, twice the longest reference period.
LATTICE_STEP_CAP = 1000
# Round index of the orbit warm-up, outside the range a timed run reaches.
WARM_ROUND = 1_000_000
CIRCLE_RADIUS = 1.0
CIRCLE_SAMPLES = 2048
DRIFT_TOL = 1e-9 * CIRCLE_RADIUS
# The symmetries of the lattice 12-gon (signed coordinate permutations); each
# maps an orbit to an orbit with the same period and winding.
SYMMETRIES = np.array([
    [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]],
])


def key_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def key_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class Round:
    """What one round did: timed items, failures, verifier reports."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    items: list = field(default_factory=list)  # (key, "fast"|"slow", units, seconds)
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    def item(self, key, path: str, units: int, seconds: float) -> None:
        self.items.append((key, path, units, seconds))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# stars

@dataclass(frozen=True)
class StarsInputs:
    seed: int
    sizes: Sizes

    def trials(self, theorem: str) -> int:
        return self.sizes.n52_trials if theorem == "n52" else self.sizes.n62_trials

    def argv(self, r: int, theorem: str, threads: int) -> list[str]:
        return ["verify", theorem, "--trials", str(self.trials(theorem)),
                "--threads", str(threads), "--seed", str(key_seed(self.seed, r))]


# verify runs this many control polygons besides its trials; both are
# chart searches, so both count toward the stars rates.
CLI_CONTROLS = 100


def _report_problem(rc: int, text: str, trials: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if rep.get("failures") != 0:
        return f"{rep.get('failures')} verifier failures"
    if rep.get("samples") != trials:
        return f"samples {rep.get('samples')} != trials {trials}"
    return None


def stars_setup(seed: int, sizes: Sizes) -> StarsInputs:
    return StarsInputs(seed=seed, sizes=sizes)


def stars_warm(inp: StarsInputs) -> None:
    lab.verify_theorem_n52(trials=1, controls=1, seed=inp.seed)
    lab.verify_theorem_n62(trials=1, controls=1, seed=inp.seed)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["sample", "5", "2", "--seed", str(inp.seed)])


def stars_round(inp: StarsInputs, r: int, threads: int = 1) -> Round:
    out = Round()
    for theorem, path in (("n52", "fast"), ("n62", "slow")):
        argv = inp.argv(r, theorem, threads)
        trials = inp.trials(theorem)
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.item(theorem, path, trials + CLI_CONTROLS, perf_counter() - t0)
        text = buf.getvalue()
        problem = _report_problem(rc, text, trials)
        out.check(problem is None, f"verify {theorem} {argv[-1]}: {problem}")
        out.reports.append(text)
    return out


# ---------------------------------------------------------------------------
# classify

PAIRS = [(n, m) for n in range(3, 13) for m in range(1, (n - 1) // 2 + 1)]
FAST_MAX_N = 7  # n <= 7 counts toward the fast path, n >= 8 toward the slow one


@dataclass(frozen=True)
class ClassifyInputs:
    seed: int
    sizes: Sizes
    perturb: float = PERTURB


def classify_setup(seed: int, sizes: Sizes) -> ClassifyInputs:
    return ClassifyInputs(seed=seed, sizes=sizes)


def classify_warm(inp: ClassifyInputs) -> None:
    classify_round(ClassifyInputs(inp.seed, TINY, inp.perturb), 0)


def _classify_polygon(poly, j: int, perturb: float) -> bool:
    el = elements.special_element_minus(poly)
    ok = el.is_valid and el.is_special_minus
    if poly.n % 2 == 0:
        el = elements.special_element_plus(poly)
        ok = ok and el.is_valid and el.is_special_plus
    c = -poly.dvec
    c[j] += perturb * float(np.max(np.abs(c)))
    return ok and not elements.make_element(poly, c).is_valid


def classify_round(inp: ClassifyInputs, r: int) -> Round:
    """The same polygons in every round: samplers are seeded by (seed, n, m)."""
    out = Round()
    for n, m in PAIRS:
        sampler = lab.OrbitSampler(n=n, m=m, seed=key_seed(inp.seed, n, m))
        picks = key_rng(inp.seed, n, m, 1).integers(0, n, inp.sizes.classify_per_pair)
        path = "fast" if n <= FAST_MAX_N else "slow"
        for k, j in enumerate(picks):
            t0 = perf_counter()
            try:
                poly = lab.sample_orbit_polygon(sampler)
                ok = _classify_polygon(poly, int(j), inp.perturb)
            except OuterLabError as exc:
                ok = False
                j = f"{j} ({type(exc).__name__}: {exc})"
            out.item((n, m, k), path, 1, perf_counter() - t0)
            out.check(ok, f"classify ({n},{m}) polygon {k} entry {j}")
    return out


# ---------------------------------------------------------------------------
# orbit

def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class OrbitInputs:
    seed: int
    sizes: Sizes
    lattice: object
    circle: object
    pool: np.ndarray       # (k, 2) reference starts
    periods: np.ndarray
    windings: np.ndarray

    def lattice_starts(self, rng: np.random.Generator):
        """Pool starts in a seeded order, each moved by a seeded symmetry."""
        idx = rng.permutation(len(self.pool))[: self.sizes.lattice_starts]
        syms = SYMMETRIES[rng.integers(0, len(SYMMETRIES), len(idx))]
        starts = np.einsum("kij,kj->ki", syms, self.pool[idx])
        return zip(idx, starts, self.periods[idx], self.windings[idx])

    def circle_starts(self, rng: np.random.Generator) -> np.ndarray:
        k = self.sizes.circle_starts
        rad = CIRCLE_RADIUS * rng.uniform(1.1, 3.0, k)
        ang = rng.uniform(0.0, 2.0 * np.pi, k)
        return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def orbit_setup(seed: int, sizes: Sizes) -> OrbitInputs:
    ref = load_reference()
    starts = ref["starts"]
    return OrbitInputs(
        seed=seed,
        sizes=sizes,
        lattice=dynamics.ConvexCurve.polygon(ref["polygon"]),
        circle=dynamics.ConvexCurve.circle(CIRCLE_RADIUS, samples=CIRCLE_SAMPLES),
        pool=np.array([s["start"] for s in starts], dtype=float),
        periods=np.array([s["period"] for s in starts]),
        windings=np.array([s["winding"] for s in starts]),
    )


def orbit_warm(inp: OrbitInputs) -> None:
    dynamics.iterate(inp.lattice, inp.pool[0], steps=LATTICE_STEP_CAP)
    dynamics.iterate(inp.circle, inp.circle_starts(key_rng(inp.seed, WARM_ROUND))[0], steps=3)


def orbit_round(inp: OrbitInputs, r: int) -> Round:
    """Lattice items are pool starts, timed to a midpoint-checked orbit
    polygon and keyed by their period: starts of one period do the same
    number of steps.  Circle orbits run one step per ``iterate`` call, each
    call an item of its own, so that items stay a few ms long; every circle
    step costs the same, so they share one key."""
    out = Round()
    rng = key_rng(inp.seed, r)
    for i, z0, period, winding in inp.lattice_starts(rng):
        t0 = perf_counter()
        steps, problem = 0, None
        try:
            rec = dynamics.iterate(inp.lattice, z0, steps=LATTICE_STEP_CAP)
            steps = len(rec.points) - 1
            dynamics.orbit_polygon(rec, inp.lattice)
            if (rec.period, rec.winding) != (period, winding):
                problem = (f"period/winding {rec.period}/{rec.winding}, "
                           f"reference {period}/{winding}")
        except OuterLabError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        out.item(("lattice", int(period)), "fast", steps, perf_counter() - t0)
        out.check(problem is None, f"lattice start {z0.tolist()}: {problem}")
    for z0 in inp.circle_starts(rng):
        radius, z, drift = math.hypot(*z0), z0, 0.0
        try:
            for _ in range(inp.sizes.circle_steps):
                t0 = perf_counter()
                rec = dynamics.iterate(inp.circle, z, steps=1)
                out.item("circle", "slow", 1, perf_counter() - t0)
                z = rec.points[-1]
                drift = max(drift, abs(math.hypot(*z) - radius))
        except OuterLabError as exc:
            out.check(False, f"circle start {z0.tolist()}: {type(exc).__name__}: {exc}")
            continue
        out.check(drift <= DRIFT_TOL, f"circle start {z0.tolist()}: |z| drift {drift:.3e}")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    warm: object
    round: object
    fast: str   # what the fast path counts, per second
    slow: str
    # How a run's rounds become its timing metrics (``run.Tally.timing``).
    # "best" suits items of a few ms that repeat hundreds of times in a run;
    # "median" suits items of seconds that a run holds about ten times, whose
    # best depends on whether the run happened to meet a quiet spell.
    statistic: str = "best"


WORKLOADS = {
    w.name: w for w in (
        Workload("stars", stars_setup, stars_warm, stars_round,
                 "n52_polygons_per_s", "n62_polygons_per_s", statistic="median"),
        Workload("classify", classify_setup, classify_warm, classify_round,
                 "classify_polygons_per_s.n_le_7", "classify_polygons_per_s.n_ge_8"),
        Workload("orbit", orbit_setup, orbit_warm, orbit_round,
                 "certified_polygon_steps_per_s", "smooth_steps_per_s"),
    )
}
