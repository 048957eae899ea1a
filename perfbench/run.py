"""outerlab benchmark: one workload per run, end-to-end or layer-traced.

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 perfbench/run.py --workload stars --seed 1 --seconds 40 --trace 0

The run warms up, then repeats rounds of the workload until ``--seconds``
have passed, checking every output and timing the set-up between rounds.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds provenance and details (sample counts, the per-workload names of
the metrics, item latency percentiles, failed_ratio, the first failures).
The exit code is 1 when an output check failed and 2 when the program
cannot be found or run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("stars", "classify", "orbit")
# Share of a traced run spent on untraced rounds, for trace.overhead_ratio.
UNTRACED_SHARE = 0.35
PROBLEMS_SHOWN = 5


def import_program(root: str):
    """Import outerlab from ``root/src`` and the workloads built on it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "outerlab", "__init__.py")):
        raise ImportError(f"no outerlab package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import outerlab
    import workloads
    if os.path.dirname(os.path.abspath(outerlab.__file__)) != os.path.join(src, "outerlab"):
        raise ImportError(f"outerlab was imported from {outerlab.__file__}, not {src}")
    return workloads


def source_digest(root: str) -> str:
    """sha256 over the program's source files, in name order."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "outerlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def provenance(root: str, seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def setup_once(wl, seed: int, sizes) -> float:
    """Import outerlab afresh and build the workload's inputs; the seconds.

    numpy stays imported: its import is no work of the program, and the
    disk reads in it made fresh-process timings spread by 20-55 % between
    runs.  The modules in use are put back afterwards."""
    def ours():
        return [k for k in sys.modules if k == "outerlab" or k.startswith("outerlab.")]

    saved = {k: sys.modules[k] for k in ours()}
    try:
        for k in ours():
            del sys.modules[k]
        t0 = perf_counter()
        importlib.import_module("outerlab.cli")
        wl.setup(seed, sizes)
        return perf_counter() - t0
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


class Tally:
    """What the untraced rounds measured, in memory that grows by one float
    per timed item only, so peak RSS hardly depends on the round count."""

    def __init__(self):
        self.cost = {}          # item key -> best seconds per unit
        self.layout = None      # (key, path, units) of the first round
        self.walls = []
        self.rates = {"fast": [], "slow": []}
        self.item_ms = {"fast": array("d"), "slow": array("d")}

    def add(self, rnd) -> None:
        units = {"fast": 0, "slow": 0}
        secs = {"fast": 0.0, "slow": 0.0}
        for key, path, u, t in rnd.items:
            if u:
                self.cost[key] = min(self.cost.get(key, float("inf")), t / u)
            units[path] += u
            secs[path] += t
            self.item_ms[path].append(t * 1e3)
        if self.layout is None:
            self.layout = [(key, path, u) for key, path, u, _ in rnd.items]
        self.walls.append(rnd.wall_s)
        for path in units:
            self.rates[path].append(units[path] / secs[path] if secs[path] else 0.0)

    def timing(self, statistic: str) -> dict[str, float]:
        """Round wall time and the rate of each path.

        ``best``: one round in which every item runs at the best cost per
        unit seen over the rounds.  Co-tenants on a shared host only ever
        slow an item down; the best of hundreds of repeats of a short item
        is the estimate of its cost that they disturb least.
        ``median``: the median round time and the median per-round rates.
        """
        if statistic == "median":
            return {"wall_s": statistics.median(self.walls),
                    "fast_path_per_s": statistics.median(self.rates["fast"]),
                    "slow_path_per_s": statistics.median(self.rates["slow"])}
        paths = {"fast": [0, 0.0], "slow": [0, 0.0]}
        for key, path, u in self.layout:
            if u:
                paths[path][0] += u
                paths[path][1] += u * self.cost[key]
        return {"wall_s": paths["fast"][1] + paths["slow"][1],
                "fast_path_per_s": rate(paths["fast"]),
                "slow_path_per_s": rate(paths["slow"])}


def run_rounds(round_fn, inp, until: float, tally: Tally | None = None,
               between=None):
    """Rounds 0, 1, ... until perf_counter() passes ``until``; at least one.
    Items go to ``tally`` and are then dropped; ``between`` runs after each
    round."""
    rounds = []
    while not rounds or perf_counter() < until:
        t0 = perf_counter()
        res = round_fn(inp, len(rounds))
        res.wall_s = perf_counter() - t0
        if tally is not None:
            tally.add(res)
        res.items = None
        rounds.append(res)
        if between is not None:
            between()
    return rounds


def quantile(values, q: float) -> float:
    """Linear-interpolated q-quantile, 0 <= q <= 1."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_quantile(n: int) -> float | None:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9, 0.5):
        if n * (1.0 - q) >= 10:
            return q
    return None


def rate(slot) -> float:
    units, seconds = slot
    return units / seconds if seconds > 0 else 0.0


END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fast_path_per_s", "1/s"),
    ("slow_path_per_s", "1/s"),
]


def end_to_end(wl, tally: Tally, setup: list[float]) -> dict[str, float]:
    timing = tally.timing(wl.statistic)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": timing["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fast_path_per_s": timing["fast_path_per_s"],
        "slow_path_per_s": timing["slow_path_per_s"],
    }


def details(wl, rounds, tally: Tally, setup: list[float]) -> dict:
    """Sample counts, failed_ratio, and the untraced rounds as measured:
    median and tail of round wall time and of item time per path, and the
    median per-round rate of each path under the workload's own names."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    out = {
        "rounds": len(rounds),
        "timed_rounds": len(tally.walls),
        "setup_samples": len(setup),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "round_s_p50": quantile(tally.walls, 0.5),
    }
    for path, name in (("fast", wl.fast), ("slow", wl.slow)):
        items = tally.item_ms[path]
        out[f"{name}.p50"] = quantile(tally.rates[path], 0.5)
        out[f"{path}_items"] = len(items)
        if items:
            out[f"{path}_item_ms_p50"] = quantile(items, 0.5)
            q = tail_quantile(len(items))
            if q is not None and q > 0.5:
                out[f"{path}_item_ms_p{round(q * 100)}"] = quantile(items, q)
    return out


def traced_run(wl, inp, args, tally: Tally, t_end: float, start: float):
    """Untraced rounds, then (stars) one two-thread round, then traced
    rounds.  Returns all rounds, the per-layer values and their units."""
    import tracing
    untraced = run_rounds(wl.round, inp, start + UNTRACED_SHARE * (t_end - start), tally)
    extra, speedup = [], 0.0
    if wl.name == "stars":
        t0 = perf_counter()
        two = wl.round(inp, 0, threads=2)
        two.wall_s = perf_counter() - t0
        speedup = untraced[0].wall_s / two.wall_s
        same = two.reports == untraced[0].reports
        two.check(same, "two-thread reports differ from one-thread reports")
        extra.append(two)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl.round, inp, t_end)
    finally:
        tracer.uninstall()
    # Compare the rounds of each kind by the statistic the workload reports.
    pick = min if wl.statistic == "best" else statistics.median
    overhead = (pick([r.wall_s for r in traced])
                / pick([r.wall_s for r in untraced]))
    values = tracing.per_layer_values(
        tracer, len(traced), sum(r.wall_s for r in traced), overhead, speedup)
    tracer.write(os.path.join(os.getcwd(), ".perfbench_out",
                              f"spans-{wl.name}-{args.seed}.json.gz"))
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return untraced + extra + traced, values, units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        workloads = import_program(root)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sizes = sizes or workloads.Sizes()
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.setup(args.seed, sizes)
    prov = provenance(root, args.seed)
    wl.warm(inp)
    start = perf_counter()
    t_end = start + args.seconds
    tally = Tally()
    setup = []
    if args.trace:
        rounds, metrics, units = traced_run(wl, inp, args, tally, t_end, start)
    else:
        # Set-up is timed between rounds, spread evenly over the run: the
        # host's speed changes in phases of a second or more.
        gap = args.seconds / sizes.setup_repeats

        def time_setup():
            due = start + gap * len(setup)
            if len(setup) < sizes.setup_repeats and perf_counter() >= due:
                setup.append(setup_once(wl, args.seed, sizes))

        rounds = run_rounds(wl.round, inp, t_end, tally, time_setup)
        while len(setup) < sizes.setup_repeats:
            setup.append(setup_once(wl, args.seed, sizes))
        metrics = end_to_end(wl, tally, setup)
        units = dict(END_TO_END)
    prov["loadavg_end"] = list(os.getloadavg())
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    info = {"workload": wl.name, "trace": args.trace, "provenance": prov,
            "details": details(wl, rounds, tally, setup),
            "problems": [p for r in rounds for p in r.problems][:PROBLEMS_SHOWN]}
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
