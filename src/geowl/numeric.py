"""Exact-or-float numeric backbone.

A graph (and any compared pair of graphs) uses one policy throughout:
exact rational equality on ``Fraction`` payloads, or the relative-then-
absolute float tolerance ``|a - b| <= eps * max(1, |a|, |b|)``. Every raw
component enters a mode through :meth:`NumericContext.coerce`, and every
coordinate comparison routes through a context, except the SO(2) hash's
rotation scan, which keeps its own bands (ROADMAP items 3 and 15).
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

MAX_EXPONENT = 4300  # exact strings: 1e<n> builds 10**n; 4300 bounds int digits too

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
        """The one reader of a raw component into this context's payload:
        exact mode reads ints, Fractions, 'p/q' and decimal strings (exponent
        at most MAX_EXPONENT), float mode ints, floats and Fractions. Neither
        reads bools: JSON true/false are not numbers, though Python reads 1/0."""
        if isinstance(value, bool):
            raise NumericError(f"component must be a number, not {str(value).lower()}")
        if self.mode == FLOAT:
            if not isinstance(value, (int, float, Fraction)):
                raise NumericError(f"float component must be a number, got {value!r}")
            return _finite_float(value)
        if isinstance(value, str):
            digits = value.lower().partition("e")[2].lstrip("+-").lstrip("0")
            if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
                raise NumericError(f"exact component {value!r} has an exponent past +-{MAX_EXPONENT}")
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:  # whose message repeats the literal
                raise NumericError(f"bad rational literal {value!r}") from exc
        elif not isinstance(value, (int, Fraction)):
            raise NumericError(f"exact component must be 'p/q' or int, got {value!r}")
        # integral values stay plain ints: exact arithmetic on ints is
        # far cheaper than on Fractions, and the two compare/hash equal
        return int(value) if value.denominator == 1 else value

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
