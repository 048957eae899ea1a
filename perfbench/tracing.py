"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` rebinds public functions of outerlab to timing wrappers
in every outerlab module (and module-level dict) that holds them, so calls
made inside the package are seen too; ``uninstall`` puts the originals back.
Each span keeps its parent, name, start and end; spans stay in memory and
are written out once at the end.  Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from outerlab import cli, dynamics, elements, geometry, jsonio, lab


def _chart_points(dim):
    def hook(args, kwargs, res, counts):
        counts["chart_points"] += np.broadcast(*args[1:1 + dim]).size
        counts["chart_ok"] += int(np.count_nonzero(res[1]))
    return hook


def _make_element(args, kwargs, res, counts):
    counts["make_element.valid"] += bool(res.is_valid)


def _paradoxical(args, kwargs, res, counts):
    counts["paradoxical"] += bool(res)


def _iterate(args, kwargs, res, counts):
    kind = args[0].kind
    counts[f"steps.{kind}"] += len(res.points) - 1
    counts[f"certified.{kind}"] += res.period is not None


def _report_bytes(args, kwargs, res, counts):
    counts["report_bytes"] += len(res.encode("utf-8"))


# (module, attribute, span name, result hook).  A span name ending in "."
# takes the kind of the curve passed first.
TRACED = [
    (cli, "main", "cli.main", None),
    (jsonio, "dumps_canonical", "jsonio.dumps_canonical", _report_bytes),
    (lab, "verify_theorem_n52", "lab.verify", None),
    (lab, "verify_theorem_n62", "lab.verify", None),
    (lab, "sample_orbit_polygon", "lab.sample_orbit_polygon", None),
    (geometry, "derive_orbit_polygon", "geometry.derive_orbit_polygon", None),
    (elements, "convex_element_search", "elements.convex_element_search", None),
    (elements, "variety_point_n5", "elements.variety_point", _chart_points(2)),
    (elements, "variety_point_n6", "elements.variety_point", _chart_points(3)),
    (elements, "make_element", "elements.make_element", _make_element),
    (elements, "numerical_rank", "elements.numerical_rank", None),
    (elements, "special_element_minus", "elements.special_element", None),
    (elements, "special_element_plus", "elements.special_element", None),
    (elements, "classify_paradoxical", "elements.classify_paradoxical", _paradoxical),
    (dynamics, "iterate", "dynamics.iterate.", _iterate),
    (dynamics, "orbit_polygon", "dynamics.orbit_polygon", None),
    (dynamics.ConvexCurve, "contains", "dynamics.contains", None),
]


class Tracer:
    """Spans as four parallel arrays (parent index, name index, start, end):
    flat numbers, so that many spans put no load on the garbage collector."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, hook):
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, counts = self._stack, self.counts
        by_kind = name.endswith(".")
        nid = -1 if by_kind else self._name_id(name)
        kind_ids = {}

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            if by_kind:
                kind = args[0].kind
                if kind not in kind_ids:
                    kind_ids[kind] = self._name_id(name + kind)
                names.append(kind_ids[kind])
            else:
                names.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, res, counts)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TRACED:
            orig = getattr(owner, attr)
            new = self._wrap(orig, name, hook)
            if isinstance(owner, type):
                self._set(owner, attr, new)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("outerlab"):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, new)
                        elif isinstance(val, dict) and not key.startswith("__"):
                            for k, v in val.items():
                                if v is orig:
                                    self._undo.append((val, k, orig, True))
                                    val[k] = new

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, key, orig, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "parent": self.parent.tolist(),
                       "name": self.name.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus the time
        of top-level spans and the derive calls made inside sampler spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, total, self_t = Counter(), Counter(), Counter()
        top = 0.0
        sample_id = self._name_id("lab.sample_orbit_polygon")
        derive_id = self._name_id("geometry.derive_orbit_polygon")
        derive_in_sampler = 0
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_t[name] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0:
                top += dur[i]
            elif self.name[i] == derive_id and self.name[p] == sample_id:
                derive_in_sampler += 1
        return {"calls": calls, "total": total, "self": self_t, "top": top,
                "derive_in_sampler": derive_in_sampler}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("lab.sample_orbit_polygon.calls", "count", "lower"),
    ("lab.sample_orbit_polygon.self_ms", "ms", "lower"),
    ("lab.sampler.accept_ratio", "ratio", "higher"),
    ("lab.n62.paradoxical_discards", "count", "lower"),
    ("lab.verify.self_ms", "ms", "lower"),
    ("lab.threads2_speedup", "ratio", "higher"),
    ("geometry.derive_orbit_polygon.calls", "count", "lower"),
    ("geometry.derive_orbit_polygon.us_per_call", "us", "lower"),
    ("elements.convex_element_search.calls", "count", "lower"),
    ("elements.convex_element_search.ms_per_call", "ms", "lower"),
    ("elements.convex_element_search.self_ms", "ms", "lower"),
    ("elements.chart_points", "count", "lower"),
    ("elements.chart_ok_ratio", "ratio", "higher"),
    ("elements.variety_point.ns_per_point", "ns", "lower"),
    ("elements.make_element.calls", "count", "lower"),
    ("elements.make_element.us_per_call", "us", "lower"),
    ("elements.make_element.valid_ratio", "ratio", "higher"),
    ("elements.numerical_rank.calls", "count", "lower"),
    ("elements.special_element.us_per_call", "us", "lower"),
    ("dynamics.iterate.steps.polygon", "count", "higher"),
    ("dynamics.iterate.steps.smooth", "count", "higher"),
    ("dynamics.iterate.us_per_step.polygon", "us", "lower"),
    ("dynamics.iterate.us_per_step.smooth", "us", "lower"),
    ("dynamics.contains.calls", "count", "lower"),
    ("dynamics.contains.us_per_call", "us", "lower"),
    ("dynamics.orbit_polygon.us_per_call", "us", "lower"),
    ("dynamics.period_certified_ratio", "ratio", "higher"),
    ("cli.main.self_ms", "ms", "lower"),
    ("jsonio.dumps_canonical.ms", "ms", "lower"),
    ("jsonio.report_bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_values(tracer: Tracer, rounds: int, traced_wall: float,
                     overhead: float, threads2_speedup: float) -> dict[str, float]:
    """Every per-layer metric.  Counts and millisecond totals are per traced
    round; per-call and per-point times are means over all traced calls; a
    metric whose layer did not run reads 0."""
    s = tracer.summary()
    calls, total, self_t, cnt = s["calls"], s["total"], s["self"], tracer.counts
    per = 1.0 / rounds
    return {
        "lab.sample_orbit_polygon.calls": calls["lab.sample_orbit_polygon"] * per,
        "lab.sample_orbit_polygon.self_ms": self_t["lab.sample_orbit_polygon"] * 1e3 * per,
        "lab.sampler.accept_ratio": _ratio(calls["lab.sample_orbit_polygon"],
                                           s["derive_in_sampler"]),
        "lab.n62.paradoxical_discards": cnt["paradoxical"] * per,
        "lab.verify.self_ms": self_t["lab.verify"] * 1e3 * per,
        "lab.threads2_speedup": threads2_speedup,
        "geometry.derive_orbit_polygon.calls": calls["geometry.derive_orbit_polygon"] * per,
        "geometry.derive_orbit_polygon.us_per_call": 1e6 * _ratio(
            total["geometry.derive_orbit_polygon"], calls["geometry.derive_orbit_polygon"]),
        "elements.convex_element_search.calls":
            calls["elements.convex_element_search"] * per,
        "elements.convex_element_search.ms_per_call": 1e3 * _ratio(
            total["elements.convex_element_search"], calls["elements.convex_element_search"]),
        "elements.convex_element_search.self_ms":
            self_t["elements.convex_element_search"] * 1e3 * per,
        "elements.chart_points": cnt["chart_points"] * per,
        "elements.chart_ok_ratio": _ratio(cnt["chart_ok"], cnt["chart_points"]),
        "elements.variety_point.ns_per_point": 1e9 * _ratio(
            total["elements.variety_point"], cnt["chart_points"]),
        "elements.make_element.calls": calls["elements.make_element"] * per,
        "elements.make_element.us_per_call": 1e6 * _ratio(
            total["elements.make_element"], calls["elements.make_element"]),
        "elements.make_element.valid_ratio": _ratio(
            cnt["make_element.valid"], calls["elements.make_element"]),
        "elements.numerical_rank.calls": calls["elements.numerical_rank"] * per,
        "elements.special_element.us_per_call": 1e6 * _ratio(
            total["elements.special_element"], calls["elements.special_element"]),
        "dynamics.iterate.steps.polygon": cnt["steps.polygon"] * per,
        "dynamics.iterate.steps.smooth": cnt["steps.smooth"] * per,
        "dynamics.iterate.us_per_step.polygon": 1e6 * _ratio(
            total["dynamics.iterate.polygon"], cnt["steps.polygon"]),
        "dynamics.iterate.us_per_step.smooth": 1e6 * _ratio(
            total["dynamics.iterate.smooth"], cnt["steps.smooth"]),
        "dynamics.contains.calls": calls["dynamics.contains"] * per,
        "dynamics.contains.us_per_call": 1e6 * _ratio(
            total["dynamics.contains"], calls["dynamics.contains"]),
        "dynamics.orbit_polygon.us_per_call": 1e6 * _ratio(
            total["dynamics.orbit_polygon"], calls["dynamics.orbit_polygon"]),
        "dynamics.period_certified_ratio": _ratio(
            cnt["certified.polygon"], calls["dynamics.iterate.polygon"]),
        "cli.main.self_ms": self_t["cli.main"] * 1e3 * per,
        "jsonio.dumps_canonical.ms": total["jsonio.dumps_canonical"] * 1e3 * per,
        "jsonio.report_bytes": cnt["report_bytes"] * per,
        "trace.coverage": _ratio(s["top"], traced_wall),
        "trace.overhead_ratio": overhead,
    }
