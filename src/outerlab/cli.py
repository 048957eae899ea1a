"""Command-line front end.

Subcommands: orbit, element, verify, search-paradoxical, sample.
Exit codes: 0 success, 1 assertion failure, 2 input error, 3 singular-orbit
abort (a stable contract for scripting).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import jsonio
from .dynamics import iterate, orbit_polygon as orbit_to_polygon
from .elements import (
    INTEGRAL_TOL,
    curvature_from_element,
    make_element,
    monodromy_residual,
)
from .errors import (
    InputError,
    OuterLabError,
    SingularLine,
    SingularOrbit,
)
from .lab import (
    DEFAULT_SEED,
    OrbitSampler,
    sample_orbit_polygon,
    search_paradoxical,
    verify_theorem_n3,
    verify_theorem_n4,
    verify_theorem_n52,
    verify_theorem_n62,
)
from .svgplot import save_orbit_svg

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3

VERIFIERS = {
    "n3": verify_theorem_n3,
    "n4": verify_theorem_n4,
    "n52": verify_theorem_n52,
    "n62": verify_theorem_n62,
}


def _emit(payload: dict, path: Optional[str]) -> None:
    if path:
        jsonio.save_json(path, payload)
    else:
        sys.stdout.write(jsonio.dumps_canonical(payload))


def _parse_point(text: str) -> np.ndarray:
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected 'x,y', got {text!r}") from exc
    return np.array([x, y])


def _parse_coefficients(text: str, n: int) -> np.ndarray:
    try:
        c = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from exc
    if not np.all(np.isfinite(c)):
        raise InputError(f"coefficients must be finite, got {text!r}")
    if len(c) != n:
        raise InputError(f"need {n} coefficients, got {len(c)}")
    return c


def cmd_orbit(args: argparse.Namespace) -> int:
    curve = jsonio.curve_from_dict(jsonio.load_json(args.curve))
    z0 = _parse_point(args.start)
    tol = args.tol_period * curve.diameter
    rec = iterate(curve, z0, steps=args.steps, tol=tol)
    payload = jsonio.record_to_dict(rec)
    if rec.period is not None:
        poly = orbit_to_polygon(rec, curve)
        payload["orbit_polygon"] = jsonio.polygon_to_dict(poly)
    _emit(payload, args.json)
    if args.svg:
        save_orbit_svg(args.svg, curve, rec)
    return EXIT_OK


def cmd_element(args: argparse.Namespace) -> int:
    for flag, tol in (("--tol-integral", args.tol_integral),
                      ("--tol-convex", args.tol_convex)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise InputError(f"{flag} must be a finite, non-negative tolerance, "
                             f"got {tol!r}")
    poly = jsonio.polygon_from_dict(jsonio.load_json(args.polygon))
    if args.special_minus:
        c = -poly.dvec
    elif args.special_plus:
        c = poly.dvec.copy()
    elif args.c is not None:
        c = _parse_coefficients(args.c, poly.n)
    else:
        raise InputError("pass --c or one of --special-minus / --special-plus")
    convex_tol = args.tol_convex * poly.scale**2
    el = make_element(poly, c, tol=args.tol_integral, convex_tol=convex_tol)
    payload = {
        "n": poly.n,
        "winding": poly.winding,
        # with the special-element flags, which the scan's finds leave out
        "element": {**jsonio.element_to_dict(el), "is_special_minus": el.is_special_minus,
                    "is_special_plus": el.is_special_plus},
        # the quantity make_element compared with --tol-integral
        "monodromy_residual": jsonio._number(monodromy_residual(poly, el.c)),
        "curvature": None,
    }
    if el.is_convex:
        profile = curvature_from_element(poly, el.c, convex_tol=convex_tol)
        payload["curvature"] = jsonio.profile_to_dict(profile)
    _emit(payload, args.json)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    fn = VERIFIERS.get(args.theorem)
    if fn is None:
        raise InputError(
            f"unknown theorem {args.theorem!r}; choose from {sorted(VERIFIERS)}"
        )
    rep = fn(trials=args.trials, seed=args.seed)
    _emit(jsonio.report_to_dict(rep), args.json)
    return EXIT_OK if rep.failures == 0 else EXIT_ASSERTION


def cmd_search_paradoxical(args: argparse.Namespace) -> int:
    scan = search_paradoxical(samples=args.trials, seed=args.seed)
    _emit(jsonio.scan_to_dict(scan), args.json)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    sampler = OrbitSampler(n=args.n, m=args.m, seed=args.seed)
    poly = sample_orbit_polygon(sampler)
    _emit(jsonio.polygon_to_dict(poly), args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="outerlab",
        description="Outer-billiard laboratory: orbits, integral elements, "
                    "theorem verifiers.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="master RNG seed (default %(default)s)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON result here instead of stdout")

    p = sub.add_parser("orbit", help="iterate the outer map around a curve")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--start", required=True, metavar="X,Y",
                   help="initial point, strictly outside the curve")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tol-period", type=float, default=1e-9,
                   help="period tolerance relative to the curve diameter")
    p.add_argument("--svg", metavar="PATH", default=None,
                   help="write an SVG plot of curve and orbit")
    common(p)

    p = sub.add_parser("element", help="classify a coefficient vector")
    p.add_argument("polygon", help="polygon JSON file")
    choice = p.add_mutually_exclusive_group()
    choice.add_argument("--c", default=None, help="comma-separated coefficients")
    choice.add_argument("--special-minus", action="store_true",
                        help="use c = -d")
    choice.add_argument("--special-plus", action="store_true",
                        help="use c = +d (even n)")
    p.add_argument("--tol-integral", type=float, default=INTEGRAL_TOL,
                   help="integrality threshold on the scaled monodromy "
                        "residual (default %(default)s)")
    p.add_argument("--tol-convex", type=float, default=1e-12,
                   help="convexity slack relative to scale^2")
    common(p)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("theorem", help="one of: n3, n4, n52, n62")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the verifiers run on one thread")
    common(p)

    p = sub.add_parser("search-paradoxical",
                       help="scan (6,2) polygons for paradoxical angle patterns")
    p.add_argument("--trials", type=int, default=200,
                   help="number of sampled polygons")
    common(p)

    p = sub.add_parser("sample", help="emit one random (n,m) orbit polygon")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    common(p)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to :func:`main` in a process."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call, like VERIFIERS in cmd_verify
    fn = {"orbit": cmd_orbit, "element": cmd_element, "verify": cmd_verify,
          "search-paradoxical": cmd_search_paradoxical, "sample": cmd_sample}[args.command]
    try:
        return fn(args)
    except (SingularOrbit, SingularLine) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OuterLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
