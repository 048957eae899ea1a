"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each workload runs once at tiny size, untraced and traced; then the output
checks are shown to fire on a corrupted reference period and on a perturbed
vector that is accepted; last, a directory without the program must make
the benchmark fail without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

workloads = run.import_program(os.getcwd())
import tracing  # noqa: E402

ONE_ROUND = ["--seconds", "0.01"]


def bench(workload: str, trace: int = 0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3", "--trace", str(trace)]
                      + ONE_ROUND, sizes=workloads.TINY)
    lines = buf.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]), json.loads(lines[-2])


def test_tiny_runs_emit_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert wanted[0] == dict(run.END_TO_END)
    assert wanted[1] == {name: unit for name, unit, _ in tracing.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    originals = (workloads.cli.main, workloads.cli.VERIFIERS["n62"],
                 workloads.dynamics.ConvexCurve.contains)
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            rc, res, info = bench(name, trace)
            where = f"{name} trace {trace}"
            assert rc == 0 and res["correct"] and res["failed"] == 0, where
            assert info["details"]["failed_ratio"] == 0.0, where
            assert res["attempted"] >= 1, where
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == wanted[trace], where
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (where, k)
                assert trace or v["value"] > 0, (where, k)
    assert originals == (workloads.cli.main, workloads.cli.VERIFIERS["n62"],
                         workloads.dynamics.ConvexCurve.contains)


def test_corrupted_reference_period_fails():
    load = workloads.load_reference

    def corrupted():
        ref = load()
        for start in ref["starts"]:
            start["period"] += 1
        return ref

    workloads.load_reference = corrupted
    try:
        rc, res, info = bench("orbit")
    finally:
        workloads.load_reference = load
    lattice = workloads.TINY.lattice_starts
    assert rc == 1 and not res["correct"], res
    assert res["failed"] == lattice * info["details"]["rounds"], res
    assert "reference" in info["problems"][0]


def test_accepted_perturbation_fails():
    original = workloads.WORKLOADS["classify"]

    def unperturbed(seed, sizes):
        return dataclasses.replace(original.setup(seed, sizes), perturb=0.0)

    workloads.WORKLOADS["classify"] = dataclasses.replace(original, setup=unperturbed)
    try:
        rc, res, _ = bench("classify")
    finally:
        workloads.WORKLOADS["classify"] = original
    assert rc == 1 and not res["correct"], res
    assert res["failed"] == res["attempted"], res


def test_no_program_no_result():
    out = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == "", proc


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}", flush=True)
