"""Exact-or-float numeric backbone.

Every coordinate comparison in the library routes through a
:class:`NumericContext`, so a graph (and any compared pair of graphs)
uses one policy throughout: exact rational equality on ``Fraction``
payloads, or the relative-then-absolute float tolerance
``|a - b| <= eps * max(1, |a|, |b|)``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS = 1e-9

Number = Union[Fraction, float]
Vec = tuple  # tuple of Number, length = spatial dimension


class NumericError(ValueError):
    """Malformed numeric payload or mode violation."""


class FragileComparisonWarning(UserWarning):
    """A float comparison fell inside the 10x-tolerance fragility band."""


@dataclass(frozen=True)
class NumericContext:
    """Comparison policy shared by all values of one graph (or pair)."""

    mode: str
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise NumericError(f"unknown numeric mode: {self.mode!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise NumericError("tolerance must be a positive finite number")

    def coerce(self, value) -> Number:
        """Bring a raw component into this context's payload type."""
        if self.mode == EXACT:
            if isinstance(value, float):
                raise NumericError(
                    f"float component {value!r} is not representable in exact mode"
                )
            value = Fraction(value)
            # integral values stay plain ints: exact arithmetic on ints is
            # far cheaper than on Fractions, and the two compare/hash equal
            return int(value) if value.denominator == 1 else value
        return _finite_float(value)

    def eq(self, a: Number, b: Number) -> bool:
        if self.mode == EXACT:
            return a == b
        diff = abs(a - b)
        band = self.eps * max(1.0, abs(a), abs(b))
        if band < diff <= 10.0 * band:
            warnings.warn(
                "comparison within 10x tolerance of the equality threshold; "
                "orbit separation may be fragile at this tolerance",
                FragileComparisonWarning,
                stacklevel=2,
            )
        return diff <= band

    def is_zero(self, a: Number, scale: Number = 1) -> bool:
        if self.mode == EXACT:
            return a == 0
        return abs(a) <= self.eps * max(1.0, abs(scale))

    def le(self, a: Number, b: Number) -> bool:
        """a <= b, with float equality band."""
        if self.mode == EXACT:
            return a <= b
        return a <= b or self.eq(a, b)

    def lt(self, a: Number, b: Number) -> bool:
        if self.mode == EXACT:
            return a < b
        return a < b and not self.eq(a, b)


def exact_context() -> NumericContext:
    return NumericContext(EXACT)


def float_context(eps: float = DEFAULT_EPS) -> NumericContext:
    return NumericContext(FLOAT, eps)


def infer_mode(values: Iterable) -> str:
    """Exact when every component is an int/Fraction, float otherwise."""
    for v in values:
        if isinstance(v, float):
            return FLOAT
        if not isinstance(v, (int, Fraction)):
            raise NumericError(f"unsupported component type: {type(v).__name__}")
    return EXACT


def parse_component(raw, mode: str) -> Number:
    """Parse a JSON component: 'p/q' strings in exact mode, numbers otherwise.
    JSON true/false are not numbers, although Python reads them as 1/0."""
    if isinstance(raw, bool):
        raise NumericError(f"component must be a number, not {str(raw).lower()}")
    if mode == EXACT:
        if isinstance(raw, str):
            try:
                return Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise NumericError(f"bad rational literal {raw!r}: {exc}") from exc
        if isinstance(raw, int):
            return Fraction(raw)
        raise NumericError(f"exact component must be 'p/q' or int, got {raw!r}")
    if isinstance(raw, (int, float)):
        return _finite_float(raw)
    raise NumericError(f"float component must be a number, got {raw!r}")


def _finite_float(raw) -> float:
    """float(raw), refusing NaN and +-inf: NaN compares unequal to itself
    and inf - inf is NaN, so either would make a graph look
    distinguishable from an isometric copy of itself."""
    try:
        value = float(raw)
    except OverflowError as exc:
        raise NumericError(f"float component {raw!r} is out of range") from exc
    if not math.isfinite(value):
        raise NumericError(f"float component {value!r} is not finite")
    return value


def format_component(value: Number, mode: str):
    if mode == EXACT:
        f = Fraction(value)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(value)
