"""Exception hierarchy for the outer-billiard laboratory.

Every error raised by this package derives from :class:`OuterLabError`, so
callers can catch one base class at API boundaries (the CLI maps subgroups
to distinct exit codes).
"""

from __future__ import annotations


class OuterLabError(Exception):
    """Base class for all package errors."""


class InputError(OuterLabError):
    """Malformed or out-of-contract input (bad JSON, bad arguments)."""


class DegeneratePolygon(InputError):
    """Polygon has a coordinate that is not finite or too large, a repeated
    consecutive vertex, or non-closing turning data."""


class NotLocallyConvex(OuterLabError):
    """Operation requires all local triangle areas to be strictly positive."""


class WrongPeriod(InputError):
    """Operation is defined only for a specific polygon length n."""


class OddPeriod(WrongPeriod):
    """Operation is defined only for even polygon length."""


class WrongPeriodOrWinding(InputError):
    """Operation is defined only for a specific (length, winding) pair."""


class UnsupportedPeriod(InputError):
    """Search is implemented only for n in {3, 4, 5, 6}."""


class NotConvexElement(OuterLabError):
    """Coefficient vector violates the componentwise convexity bound."""


class ValidationFailed(OuterLabError):
    """A constructed object failed its own certification step."""


class InsideCurve(InputError):
    """The outer map needs a start point strictly outside the curve."""


class SingularLine(OuterLabError):
    """Supporting line meets the curve in more than one point (within tolerance)."""


class SingularOrbit(OuterLabError):
    """Iteration hit the singular set and was aborted."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"orbit hit a singular supporting line at step {step}")


class NotPeriodic(OuterLabError):
    """Orbit record carries no certified period."""


class SamplerExhausted(OuterLabError):
    """Rejection sampler ran out of attempts."""
