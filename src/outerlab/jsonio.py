"""JSON schemas for polygons, curves, elements, orbits and reports.

Floats are serialized with Python's shortest round-trip representation, so
every numeric payload reloads bit-identically; canonical dumps sort keys so
equal objects produce equal bytes.  Infinite values travel as the strings
"inf" and "-inf"; a non-finite float left in a payload makes
:func:`dumps_canonical` raise ValueError instead of writing invalid JSON.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .dynamics import ConvexCurve, OrbitRecord
from .elements import CurvatureProfile, IntegralElement
from .errors import InputError
from .geometry import OrbitPolygon, derive_orbit_polygon
from .lab import ParadoxicalScan, VerifierReport


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _point_list(a) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in np.asarray(a, dtype=float)]


# -- polygons ---------------------------------------------------------------

def polygon_to_dict(poly: OrbitPolygon) -> dict:
    return {"vertices": _point_list(poly.vertices)}


def polygon_from_dict(data: dict) -> OrbitPolygon:
    try:
        vertices = np.asarray(data["vertices"], dtype=float)
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError("polygon JSON needs 'vertices' as number rows") from exc
    return derive_orbit_polygon(vertices)


# -- curves -----------------------------------------------------------------

def curve_to_dict(curve: ConvexCurve) -> dict:
    out = {"kind": curve.kind, "points": _point_list(curve.points)}
    if curve.kind == "smooth" and curve.tangents is not None:
        out["tangents"] = _point_list(curve.tangents)
    return out


def curve_from_dict(data: dict) -> ConvexCurve:
    try:
        kind = data["kind"]
        points = np.asarray(data["points"], dtype=float)
        tangents = data.get("tangents") if kind == "smooth" else None
        tangents = None if tangents is None else np.asarray(tangents, dtype=float)
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError("curve JSON needs 'kind', and 'points' (and 'tangents') as number rows") from exc
    return ConvexCurve(kind, points, tangents)  # which rejects an unknown kind


# -- elements and curvature ---------------------------------------------------

def element_to_dict(el: IntegralElement) -> dict:
    return {
        "c": [float(v) for v in el.c],
        "is_valid": bool(el.is_valid),
        "is_convex": bool(el.is_convex),
        "rank_margin": float(el.rank_margin),
    }


def _number(x) -> float | str:
    """A float, or "inf" / "-inf" for an infinite one."""
    return ("inf" if x > 0 else "-inf") if np.isinf(x) else float(x)


def profile_to_dict(profile: CurvatureProfile) -> dict:
    return {"kappa": [_number(k) for k in profile.kappa]}


def profile_from_dict(data: dict) -> CurvatureProfile:
    try:
        raw = data["kappa"]
    except (TypeError, KeyError) as exc:
        raise InputError("curvature JSON needs a 'kappa' key") from exc
    kappa = np.array([np.inf if k == "inf" else float(k) for k in raw])
    return CurvatureProfile(kappa=kappa)


# -- orbits and reports -------------------------------------------------------

def record_to_dict(rec: OrbitRecord) -> dict:
    return {
        "start": [float(rec.start[0]), float(rec.start[1])],
        "points": _point_list(rec.points),
        "period": rec.period,
        "winding": rec.winding,
        "closure_residual": float(rec.closure_residual)
        if np.isfinite(rec.closure_residual) else None,
        "singular_flag": bool(rec.singular_flag),
    }


def report_to_dict(rep: VerifierReport) -> dict:
    return {
        "theorem": rep.theorem,
        "samples": rep.samples,
        "failures": rep.failures,
        "worst_margin": _number(rep.worst_margin),
        "notes": rep.notes,
        "seed": rep.seed,
        "failure_bundles": list(rep.failure_bundles),
    }


def scan_to_dict(scan: ParadoxicalScan) -> dict:
    finds = []
    for f in scan.finds:
        el = f.element
        finds.append({
            "vertices": _point_list(f.polygon.vertices),
            "margin": float(f.margin),
            "element": None if el is None else element_to_dict(el),
        })
    return {
        "samples": scan.samples,
        "best_margin": _number(scan.best_margin),
        "notes": scan.notes,
        "seed": scan.seed,
        "finds": finds,
    }
