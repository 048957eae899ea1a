"""Randomized samplers and theorem verifiers.

The sampler draws (n, m) orbit polygons: turning angles with the exact
angle budget 2 pi m, edge directions by cumulative sums, and edge lengths
solved from the two closure constraints by exact projection onto the null
space (never approximated).  Verifiers check the nonexistence statements
for n = 3, 4, (5,2), (6,2) over many samples.  Each gathers one margin per
trial and one replay bundle per failure, so a failure is never hidden; the
report counts the bundles and keeps the first MAX_BUNDLES.  A (5,2) or (6,2)
trial is decided exactly by the sign certificate of its float vertices
(:func:`_sign_certificates`, which proves that every admissible (5,2) star
and, up to ties and the g condition, every non-paradoxical (6,2) star has
one).  So an uncertified (5,2) trial is a failure and is not searched; the
grid search runs only on uncertified (6,2) trials and on the controls.  The
paradoxical scan searches nothing: it certifies the corner c = d of all its
finds in one stack (:func:`search_paradoxical`).  A
control is decided by c = -d, else by the charts' coarse winners in order,
where one fixes the full search's outcome, and searched in full otherwise
(:func:`_controls`).

All verifier trials and scan samples are pure functions of per-draw seeds
spawned from the master seed: draw k of a count gets the stream of numpy's
``SeedSequence(seed).spawn(count)[k]``, with the words of all draws seeded
in one pass (:func:`_spawned_rngs`).  Such a generator cannot ``.spawn()``
(numpy raises TypeError).  Every verifier draws the polygons of all its
trials in one lock-step batch (:func:`sample_orbit_polygons`), each from its
own generator; the (6,2) verifier redraws its paradoxical trials a round at
a time.  Certificates and the trials' search each run once, on a stack.  The
paradoxical scan draws its plain and its spiked samples in one batch each.
The search draws nothing: it is a pure function of the polygon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .elements import (
    IntegralElement,
    convex_element_search_batch,
    convex_element_sweep,
    gap_signs,
    make_element,
    paradox_margins,
    skip_signs,
    special_plus_certified,
)
from .errors import InputError, SamplerExhausted, ValidationFailed
from .geometry import OrbitPolygon, derive_orbit_polygons, polygon_area

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 1000

# Sampler rejection knobs: keep angles off the walls of (0, pi) and edge
# lengths off zero, so downstream rank decisions stay well conditioned.
ANGLE_MARGIN = 1e-3
LENGTH_FLOOR = 5e-3


def _require_non_negative(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise InputError(f"{name} must be non-negative, got {value}")


@dataclass
class OrbitSampler:
    """Draws locally convex (n, m) orbit polygons, 0 < 2m < n, from one
    generator seeded by ``seed`` (see :func:`sample_orbit_polygons`)."""

    n: int
    m: int
    seed: int = DEFAULT_SEED
    attempts: int = 10_000
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < 2 * self.m < self.n:
            raise InputError(f"need 0 < 2m < n, got (n, m) = ({self.n}, {self.m})")
        _require_non_negative(seed=self.seed)
        self.rng = np.random.default_rng(self.seed)


def sample_orbit_polygon(sampler: OrbitSampler) -> OrbitPolygon:
    """The sampler's next polygon: the one-generator case of
    :func:`sample_orbit_polygons`."""
    return sample_orbit_polygons(sampler.n, sampler.m, [sampler.rng], sampler.attempts)[0]


def sample_orbit_polygons(n: int, m: int, rngs: list[np.random.Generator],
                          attempts: int = 10_000) -> list[OrbitPolygon]:
    """One locally convex (n, m) orbit polygon per generator.

    Turning angles delta_i are a projected-Gaussian perturbation of the
    regular star's angle vector (the flat Dirichlet dies for 2m near n), the
    spread redrawn per attempt; directions are their cumulative sums; edge
    lengths come from projecting positive weights onto the closure null
    space, rejected unless strictly positive.

    The trials' attempt loops run in lock-step: the arithmetic runs once per
    round for the trials still drawing.  Each trial draws from its own
    generator in the order of a lone sampler, so its polygon does not depend
    on the batch.  SamplerExhausted after ``attempts`` rounds (at least 1).
    A uniform draw is numpy's own lo + (hi - lo) * random(); a numpy build
    that fuses it into one multiply-add (possible on aarch64) would change
    the spread, but not the phase 2 pi u or the first vertex -1 + 2u."""
    if not 0 < 2 * m < n:
        raise InputError(f"need 0 < 2m < n, got (n, m) = ({n}, {m})")
    if attempts < 1:
        raise InputError(f"attempts must be >= 1, got {attempts}")
    xbar = 2.0 * m / n
    head = min(xbar, 1.0 - xbar)
    polys, todo = {}, list(range(len(rngs)))
    for attempt in range(attempts):
        if not todo:
            break
        hi = 0.65 if attempt < attempts // 2 else 0.35
        gens = [rngs[k] for k in todo]
        # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), its normal(0, 1) standard_normal
        # but for a zero's sign, which g - mean drops; g.sum / n is g.mean without its wrapper.
        spread = 0.15 + (hi - 0.15) * np.array([r.random() for r in gens])
        g = np.array([r.standard_normal(n) for r in gens])
        x = xbar + (spread * head)[:, None] * (g - g.sum(axis=1, keepdims=True) / n)
        clear = ((x > ANGLE_MARGIN) & (x < 1.0 - ANGLE_MARGIN)).all(axis=1)
        polys.update(zip(todo, _build(m, np.pi * x, clear, gens)))
        todo = [k for k in todo if isinstance(polys[k], str)]
    if todo:
        raise SamplerExhausted(f"no ({n},{m}) polygon within {attempts} attempts")
    return [polys[k] for k in range(len(rngs))]


def _build(m: int, delta: np.ndarray, clear: np.ndarray, rngs: list) -> list:
    """A closed polygon per row of turning angles ``delta`` (k, n), or why
    it was rejected: "angle wall" (row not ``clear``; draws nothing),
    "non-positive closure", or "convexity or winding" (winding not ``m``).
    A row draws a phase and closure weights, then a length scale and a
    first vertex."""
    # A clear row keeps the closure reason unless it closes into a polygon.
    built: list = ["non-positive closure" if c else "angle wall" for c in clear]
    rows = clear.nonzero()[0]
    if not rows.size:
        return built
    phase = 2.0 * np.pi * np.array([rngs[i].random() for i in rows])
    phi = phase[:, None] + delta[rows].cumsum(axis=1)
    U = np.empty((len(rows), 2, phi.shape[1]))
    np.cos(phi, out=U[:, 0])
    np.sin(phi, out=U[:, 1])
    s = _positive_closure(U, [rngs[i] for i in rows])
    closed = ~np.isnan(s[:, 0])
    rows, s, U = rows[closed], s[closed], U[closed]
    s *= np.array([rngs[i].lognormal(0.0, 0.25) for i in rows])[:, None]
    z0 = -1.0 + 2.0 * np.array([rngs[i].random(2) for i in rows]).reshape(-1, 2)
    polys = derive_orbit_polygons(_vertices(z0, s[..., None] * U.transpose(0, 2, 1)))
    for i, poly in zip(rows, polys):
        built[i] = poly if poly.locally_convex and poly.winding == m else "convexity or winding"
    return built


def _vertices(z0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vertices z_k = z_{k-1} - 2 r_{k-1} from z_0 and the half-edge vectors,
    accumulated in order; stacks of both broadcast."""
    return np.concatenate([z0[..., None, :], -2.0 * r[..., :-1, :]], axis=-2).cumsum(axis=-2)


def _positive_closure(U: np.ndarray, rngs: list, tries: int = 4) -> np.ndarray:
    """Strictly positive lengths s with U s = 0, per (2, n) matrix of the
    stack ``U``: exact null-space projection of random positive weights,
    sign-flipped when fully negative; a row that fails draws again, and is
    NaN after ``tries`` failures."""
    w = np.array([g.lognormal(0.0, 0.4, U.shape[2]) for g in rngs])
    Ut = U.transpose(0, 2, 1)
    s = w - (Ut @ np.linalg.solve(U @ Ut, U @ w[..., None]))[..., 0]
    np.negative(s, out=s, where=(s < 0).all(axis=1, keepdims=True))
    bad = s.min(axis=1) <= LENGTH_FLOOR * abs(s).max(axis=1)
    if bad.any():
        s[bad] = np.nan if tries == 1 else _positive_closure(
            U[bad], [g for g, b in zip(rngs, bad) if b], tries - 1)
    return s


# numpy's SeedSequence hash and mix constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(const: int, mult: int):
    """SeedSequence's running hash constant: (xor, multiplier) per hash."""
    while True:
        prev, const = const, const * mult & _MASK32
        yield prev, const


def _next_constants(hashes, count: int) -> np.ndarray:
    """The next ``count`` hash constants as (xor, multiplier) columns."""
    return np.array([next(hashes) for _ in range(count)], np.uint32).T[..., None]


def _hashmix(value, constants):
    xor, mult = constants
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = ((x * _MIX_L & _MASK32) - (y * _MIX_R & _MASK32)) & _MASK32
    return r ^ r >> 16


def _spawn_words(seed: int, count: int) -> np.ndarray:
    """Row k is ``SeedSequence(seed).spawn(count)[k].generate_state(4,
    np.uint64)``, the words that seed child k's PCG64.

    A child's entropy is the seed's 32-bit words, zero-padded to the pool
    size 4, then its spawn word k.  Every word but k is common to all
    children, so numpy's pool mixing runs once on Python ints, then mixes k
    into the pool in uint32 arithmetic, one child per column.
    """
    seed = int(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashes = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(hashes)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    for w in words[4:]:
        pool = [_mix(p, _hashmix(w, next(hashes))) for p in pool]
    k = np.arange(count, dtype=np.uint32)
    pool = _mix(np.array(pool, np.uint32)[:, None], _hashmix(k, _next_constants(hashes, 4)))
    # generate_state hashes the pool, cycled, into 8 little-endian halves.
    out = _hashmix(np.concatenate([pool, pool]), _next_constants(_hash_constants(_INIT_B, _MULT_B), 8))
    return np.ascontiguousarray(out.T, "<u4").view("<u8").astype(np.uint64)


class _SpawnedWords:
    """A seed sequence that hands PCG64 one row of :func:`_spawn_words`.
    It is registered as numpy's ``ISeedSequence`` on first use, so that
    importing this module does not import ``numpy.random``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for exactly (4, np.uint64)


def _spawned_rngs(seed: int, count: int, name: str = "trials") -> list[np.random.Generator]:
    """One generator per draw: generator k has the stream of
    ``default_rng(SeedSequence(seed).spawn(count)[k])``."""
    _require_non_negative(seed=seed, **{name: count})
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SpawnedWords)
    return [Generator(PCG64(_SpawnedWords(row))) for row in _spawn_words(seed, count)]


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


MAX_BUNDLES = 10

# Draws per (6,2) trial before it gives up on finding a non-paradoxical
# sample; far above what the sampler needs (paradoxical draws are rare).
MAX_PARADOXICAL_DRAWS = 1000


def _report(theorem: str, seed: int, samples: int, margins: list, bundles: list,
            notes: str) -> VerifierReport:
    """A verifier's report: one bundle per failure; worst margin 0.0 if none."""
    return VerifierReport(
        theorem=theorem,
        samples=samples,
        failures=len(bundles),
        worst_margin=float(max(margins, default=0.0)),
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


def _off_d(poly: OrbitPolygon, c) -> float:
    """|c - d| / scale^2, the distance of an element from the corner c = d."""
    return float(np.max(np.abs(c - poly.dvec)) / poly.scale**2)


def _controls(polys: list[OrbitPolygon], slack: float) -> list[Optional[bool]]:
    """Per control, the outcome of :func:`convex_element_search_batch`:
    None when it finds no element, else whether the element has
    ``_off_d > slack``.  A candidate c of min(d - c) > slack scale^2, -d
    first and then each chart's coarse winner (:func:`convex_element_sweep`),
    fixes it as True, since the search's element c* then has max|c* - d| >=
    min(d - c*) >= min(d - c); only the other controls are searched.  -d
    decides 57 % of (5,1) and 89 % of (6,1) controls, chart 0 most others."""
    outcome = [True] * len(polys)
    rest = [k for k, el in enumerate(convex_element_sweep(polys, slack)) if el is None]
    for k, el in zip(rest, convex_element_search_batch([polys[k] for k in rest])):
        outcome[k] = None if el is None else _off_d(polys[k], el.c) > slack
    return outcome


# ---------------------------------------------------------------------------
# Theorem n = 3: the single integral element is never convex.

def verify_theorem_n3(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> VerifierReport:
    margins, bundles = [], []
    for poly in sample_orbit_polygons(3, 1, _spawned_rngs(seed, trials)):
        cstar = np.roll(poly.delta, 1)
        el = make_element(poly, cstar)
        half_area = 0.5 * polygon_area(poly.vertices)
        margins.append(float(np.max(np.abs(cstar - half_area)) / abs(half_area)))
        bad = make_element(poly, cstar * np.array([1.0, 1.0, 2.0]))
        if not (el.is_valid and not el.is_convex and margins[-1] < 1e-9
                and not bad.is_valid and np.all(cstar > poly.dvec)):
            bundles.append(_bundle(poly, cstar, "n3-element-check"))
    return _report(
        "n3", seed, trials, margins, bundles,
        "unique element equals the half area on every triangle and is never "
        "convex; margin is the worst relative deviation from the half area",
    )


# ---------------------------------------------------------------------------
# Theorem n = 4: the only convex element is the corner c = d.

def _random_trapezoids(rngs: list[np.random.Generator]) -> list[OrbitPolygon]:
    """A turned trapezoid per generator.  With 0 < b < a and h > 0 it is a
    counterclockwise convex quadrilateral, so no draw is rejected."""
    lo, hi = np.array([[0.8, 0.3, -0.3, 0.5, 0.0], [1.6, 0.95, 0.3, 1.5, 2.0 * np.pi]])
    z = np.empty((len(rngs), 4, 2))
    for k, rng in enumerate(rngs):
        a, b, shift, h, ang = (lo + (hi - lo) * rng.random(5)).tolist()  # uniform(lo, hi)
        b *= a
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        z[k] = np.array([[-a, 0.0], [a, 0.0], [shift + b, h], [shift - b, h]]) @ rot.T
    polys = derive_orbit_polygons(z)
    if not all(p.locally_convex and p.winding == 1 for p in polys):
        raise ValidationFailed("a trapezoid is not a convex quadrilateral")
    return polys


def verify_theorem_n4(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> VerifierReport:
    rngs = _spawned_rngs(seed, trials)
    sampled = iter(sample_orbit_polygons(4, 1, [g for k, g in enumerate(rngs) if k % 5 != 4]))
    # Every fifth trial is a trapezoid, to exercise the degenerate conic.
    trapezoids = iter(_random_trapezoids(rngs[4::5]))
    polys = [next(trapezoids if k % 5 == 4 else sampled) for k in range(trials)]

    margins, bundles = [], []
    for poly, el in zip(polys, convex_element_search_batch(polys)):
        margins.append(np.inf if el is None else _off_d(poly, el.c))
        if el is None:
            bundles.append(_bundle(poly, None, "n4-no-element"))
        elif not margins[-1] <= 1e-8:
            bundles.append(_bundle(poly, el.c, "n4-off-d-element"))
    return _report(
        "n4", seed, trials, margins, bundles,
        "every convex element found by the closed form coincides with d "
        "(margin = worst |c - d| / scale^2); every fifth sample is a "
        "trapezoid to exercise the degenerate branch",
    )


# ---------------------------------------------------------------------------
# Sign certificates of (5, 2) and (6, 2) samples.

# The entries that a (6,2) certificate at shift k = 0, 1, 2 needs negative;
# shift k + 3 needs the same four.
_PINNED = np.array([[k, k + 1, k + 3, (k + 4) % 6] for k in range(3)])


def _sign_certificates(polys: list[OrbitPolygon]) -> tuple[np.ndarray, np.ndarray]:
    """Per (5,2), or per (6,2) polygon: whether its sign certificate holds,
    exactly on its float vertices, and its margin, the largest
    d_i / (s_{i-1} s_{i+1}) = -sin(alpha_i + alpha_{i+1}) over the entries
    that the certificate needs negative (the best shift's, on hexagons).

    (5,2): every d_i < 0.  On the variety c_1 c_2 - d_1 d_2 =
    (c_4 + d_4) delta_2, and c <= d would make the left side >= 0 and the
    right side < 0.
    (6,2): a shift k with d_k, d_{k+1}, d_{k+3}, d_{k+4} < 0 and g_k,
    g_{k+3} (:func:`gap_signs`) not both 0.  With c <= d both terms of
    delta_{k+4} (c_k c_{k+1} - d_k d_{k+1})
    + delta_{k+1} (c_{k+3} c_{k+4} - d_{k+3} d_{k+4}) = 0 are >= 0, so c = d
    on those four entries.  T_{k+5} (T_{k+4} T_{k+3}) T_{k+2} (T_{k+1} T_k)
    = I is then affine in c_{k+2} with a rank-one coefficient, and c_{k+5}
    enters T_{k+5}^-1 at (1, 1) alone; the two are independent unless g_k
    and g_{k+3} both vanish.  So c = d is the only convex element, if it is
    one (:func:`special_element_plus`).

    Both certificates are theorems on admissible stars.  Let p_i = alpha_i
    + alpha_{i+1}, in (0, 2 pi).  Then d_i = -s_{i-1} s_{i+1} sin p_i, so
    d_i < 0 exactly when p_i < pi; and the interior angles of an (n, m)
    polygon sum to (n - 2m) pi, since its turning angles pi - alpha_i sum to
    2 pi m.  Both facts hold for the exact polygon of the float vertices.

    (5,2): sum alpha = pi and every alpha_i > 0, so every p_i < pi and
    every d_i < 0.  Every admissible star pentagon is certified; an
    uncertified one can only come from a bug in :func:`skip_signs` or in
    the sampler's admissibility checks.

    (6,2): sum alpha = 2 pi.  Let B = {i : p_i >= pi}.  Two entries of B
    cannot lie at distance 2, since p_i + p_{i+2} = 2 pi - alpha_{i+4} -
    alpha_{i+5} < 2 pi, nor at distance 3, since p_i + p_{i+3} = 2 pi -
    alpha_{i+2} - alpha_{i+5} < 2 pi.  So B is empty, one entry i, or two
    adjacent entries i, i + 1.  If B is empty every d is negative, and if
    B = {i}, shift k = i + 1 has d_k, d_{k+1}, d_{k+3}, d_{k+4} < 0.  If
    B = {i, i + 1}, every shift's four entries meet B, so no shift has them
    all negative, and vertex i + 1 has both adjacent pair sums >= pi:
    :func:`paradox_margin` >= 0.  Hence a (6,2) star is certified exactly
    when it is not paradoxical, up to ties p_i = pi (a margin of 0) and
    shifts whose g_k and g_{k+3} both vanish."""
    if not polys:
        return np.zeros(0, dtype=bool), np.zeros(0)
    signs = skip_signs(polys)
    s = np.stack([p.s for p in polys])
    ratio = np.stack([p.dvec for p in polys]) / (np.roll(s, 1, axis=1) * np.roll(s, -1, axis=1))
    if polys[0].n == 5:
        return (signs < 0).all(axis=1), ratio.max(axis=1)
    g = gap_signs(polys) != 0
    ok = (signs[:, _PINNED] < 0).all(axis=2) & (g[:, :3] | g[:, 3:])
    return ok.any(axis=1), np.where(ok, ratio[:, _PINNED].max(axis=2), np.inf).min(axis=1)


# ---------------------------------------------------------------------------
# Theorem (5, 2): no convex element exists on star pentagons.

def verify_theorem_n52(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                       controls: int = 100) -> VerifierReport:
    stars = sample_orbit_polygons(5, 2, _spawned_rngs(seed, trials))
    convex = sample_orbit_polygons(5, 1, _spawned_rngs(seed + 1, controls, "controls"))
    certified, margins = _sign_certificates(stars)
    bundles = [_bundle(poly, None, "n52-nonneg-d") for poly, ok in zip(stars, certified) if not ok]
    bundles += [_bundle(poly, None, "n51-control-miss")
                for poly, hit in zip(convex, _controls(convex, -np.inf)) if hit is None]
    uncertified = trials - int(certified.sum())
    return _report(
        "n52", seed, trials, margins.tolist() + [-np.inf] * controls, bundles,
        f"no convex element on any (5,2) sample: {trials - uncertified}/{trials} "
        f"certified exactly by d_i < 0 for all i; margin is the worst "
        f"max_i d_i/(s_(i-1) s_(i+1)) = -sin(alpha_i + alpha_(i+1)) (negative "
        f"= certified); {uncertified} uncertified samples are failures and are "
        f"not searched, since sum alpha = pi certifies every admissible star; "
        f"{controls} convex-pentagon controls must each produce an element in "
        f"the grid search",
    )


# ---------------------------------------------------------------------------
# Theorem (6, 2): non-paradoxical samples admit only the corner element c = d.

def verify_theorem_n62(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                       controls: int = 100) -> VerifierReport:
    # Trials whose polygon is paradoxical draw again, all in one batch per
    # round; at the cap a trial keeps its last paradoxical draw, unchecked.
    rngs = _spawned_rngs(seed, trials)
    polys, discarded, todo = {}, [0] * trials, list(range(trials))
    for _ in range(MAX_PARADOXICAL_DRAWS):
        if not todo:
            break
        drawn = sample_orbit_polygons(6, 2, [rngs[k] for k in todo])
        polys.update(zip(todo, drawn))
        todo = [k for k, bad in zip(todo, paradox_margins(drawn) > 0.0) if bad]
        for k in todo:
            discarded[k] += 1
    convex = sample_orbit_polygons(6, 1, _spawned_rngs(seed + 1, controls, "controls"))
    kept = [polys[k] for k, lost in enumerate(discarded) if lost < MAX_PARADOXICAL_DRAWS]
    certified, cert_margins = _sign_certificates(kept)
    certs = iter(zip(certified, cert_margins))
    corner = iter(special_plus_certified([p for p, ok in zip(kept, certified) if ok]))
    found = iter(convex_element_search_batch([p for p, ok in zip(kept, certified) if not ok]))

    margins, bundles = [], []
    for k, lost in enumerate(discarded):
        poly = polys[k]
        if lost == MAX_PARADOXICAL_DRAWS:
            margins.append(0.0)
            bundles.append(_bundle(poly, None, "n62-paradoxical-cap"))
            continue
        ok, margin = next(certs)
        if ok:
            margins.append(float(margin))
            if not next(corner):
                bundles.append(_bundle(poly, None, "n62-missing-corner-element"))
        elif (el := next(found)) is None:
            margins.append(np.inf)
            bundles.append(_bundle(poly, None, "n62-missing-corner-element"))
        else:
            margins.append(_off_d(poly, el.c))
            if not margins[-1] <= 1e-8:
                bundles.append(_bundle(poly, el.c, "n62-off-d-element"))
    # The controls test the search, not the theorem: their margins are -inf.
    interior = _controls(convex, 1e-3)
    bundles += [_bundle(poly, None, "n61-control-miss")
                for poly, hit in zip(convex, interior) if hit is None]
    margins += [-np.inf] * controls
    interior_hits = interior.count(True)
    if interior_hits == 0:
        margins.append(-np.inf)
        bundles.append({"label": "n61-no-interior-element", "vertices": [], "candidate_c": None})
    searched = len(kept) - int(certified.sum())
    return _report(
        "n62", seed, trials, margins, bundles,
        f"c = d is the only convex element on every non-paradoxical (6,2) "
        f"sample: {len(kept) - searched}/{trials} certified exactly by a shift "
        f"k with d_k, d_(k+1), d_(k+3), d_(k+4) < 0 and c = d checked by its "
        f"null vectors (margin = the best shift's max d_i/(s_(i-1) s_(i+1)), "
        f"negative = certified); {searched} uncertified samples grid-searched "
        f"(margin = |c - d|/scale^2, bound 1e-8); {sum(discarded)} paradoxical "
        f"samples discarded; {interior_hits}/{controls} convex-hexagon controls "
        f"gave an interior element in the grid search (|c - d| > 1e-3 scale^2)",
    )


# ---------------------------------------------------------------------------
# Exploration of the open question: paradoxical (6, 2) polygons.

@dataclass(frozen=True)
class ParadoxicalFind:
    polygon: OrbitPolygon
    margin: float
    element: Optional[IntegralElement]


@dataclass(frozen=True)
class ParadoxicalScan:
    samples: int
    best_margin: float
    finds: tuple[ParadoxicalFind, ...]
    notes: str
    seed: int


def _spiked_62(rngs: list[np.random.Generator]) -> list[Optional[OrbitPolygon]]:
    """Per generator, a (6,2) polygon whose angle vector is engineered to
    make vertex 1 paradoxical, or None where the draw was rejected."""
    a = np.empty((len(rngs), 6))
    for k, rng in enumerate(rngs):
        e1 = 0.02 + (0.5 - 0.02) * rng.random()  # numpy's uniform(0.02, 0.5)
        g0, g2 = (0.05 + (0.6 - 0.05) * rng.random(2)).tolist()
        a[k, :3] = e1 + g0, np.pi - e1, e1 + g2
        # The rest is at least pi - 1.7, so every draw leaves room for three angles.
        a[k, 3:] = rng.dirichlet(np.ones(3)) * (2.0 * np.pi - a[k, 0] - a[k, 1] - a[k, 2])
    clear = ((a > ANGLE_MARGIN) & (a < np.pi - ANGLE_MARGIN)).all(axis=1)
    return [None if isinstance(p, str) else p for p in _build(2, np.pi - a, clear, rngs)]


def search_paradoxical(samples: int = 200, seed: int = DEFAULT_SEED) -> ParadoxicalScan:
    """Scan (6,2) polygons for paradoxical angle patterns.

    Each sample draws from its own generator, spawned from ``seed``.  The
    even samples are plain sampler output, drawn in one batch, and the odd
    ones spiked constructions with one angle near pi, built in one stack;
    a plain sample that exhausts the sampler raises SamplerExhausted, as in
    the verifiers.  A find's element is the corner c = d, certified for all
    finds in one :func:`special_plus_certified` call, or None where the
    corner is not certified; the find's vertices replay it.  No other
    convex element is searched for.  Whatever is found is reported
    descriptively: existence for an actual convex curve is an open
    question, so neither an empty nor a non-empty find list is a failure.
    """
    rngs = _spawned_rngs(seed, samples, "samples")
    plain, spiked = sample_orbit_polygons(6, 2, rngs[0::2]), _spiked_62(rngs[1::2])
    drawn = [(k, poly) for k in range(samples)
             if (poly := (spiked if k % 2 else plain)[k // 2]) is not None]
    margins = paradox_margins([poly for _, poly in drawn])
    hits = [(k, poly, float(margin)) for (k, poly), margin in zip(drawn, margins) if margin > 0.0]
    certified = special_plus_certified([poly for _, poly, _ in hits])
    finds = tuple(ParadoxicalFind(polygon=poly, margin=margin,
                                  element=make_element(poly, poly.dvec) if ok else None)
                  for (_, poly, margin), ok in zip(hits, certified))
    spiked_hits = sum(k % 2 for k, _, _ in hits)
    return ParadoxicalScan(
        samples=samples,
        best_margin=float(margins.max(initial=-np.inf)),
        finds=finds,
        notes=(f"{len(finds)} paradoxical polygons ({spiked_hits} from spiked "
               f"angles); the element of each find is the corner c = d, certified "
               f"by its null vectors; {len(finds) - int(certified.sum())} finds "
               f"uncertified (element null); no other convex element is searched "
               f"for, so whether the corner is the only one stays open; existence "
               f"for a convex curve remains open, results are descriptive only"),
        seed=seed,
    )
