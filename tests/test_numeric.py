import warnings
from fractions import Fraction

import pytest

from geowl import geometric_graph
from geowl.numeric import (
    FragileComparisonWarning,
    NumericContext,
    NumericError,
    exact_context,
    float_context,
    format_component,
    infer_mode,
)


def test_exact_equality_is_exact():
    ctx = exact_context()
    assert ctx.eq(Fraction(1, 3), Fraction(2, 6))
    assert not ctx.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))


def test_float_relative_then_absolute_comparison():
    ctx = float_context(eps=1e-9)
    assert ctx.eq(1.0, 1.0 + 1e-12)
    assert not ctx.eq(1.0, 1.0 + 1e-6)
    # relative scaling: large magnitudes widen the band
    assert ctx.eq(1e6, 1e6 + 1e-4)
    assert not ctx.eq(1e-6, 2e-6)  # small magnitudes use the absolute band


def test_fragile_comparison_warns_in_the_10eps_band():
    ctx = float_context(eps=1e-9)
    with pytest.warns(FragileComparisonWarning):
        assert not ctx.eq(1.0, 1.0 + 5e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not ctx.eq(1.0, 2.0)  # far apart: no warning
        assert ctx.eq(1.0, 1.0)


def test_parse_and_format_round_trip():
    exact, flt = exact_context(), float_context()
    assert exact.coerce("3/4") == Fraction(3, 4)
    assert exact.coerce("-2") == Fraction(-2)
    assert exact.coerce(5) == Fraction(5)
    assert format_component(Fraction(3, 4), "exact") == "3/4"
    assert flt.coerce(0.25) == 0.25
    assert format_component(0.25, "float") == 0.25
    with pytest.raises(NumericError):
        exact.coerce("1.5x")
    with pytest.raises(NumericError):
        exact.coerce(0.1)  # non-rational input in exact mode


@pytest.mark.parametrize("literal", ["1e5000", "-2.5E-5000", "1e+00004301", "1e" + "9" * 5000])
def test_an_exact_string_past_the_exponent_bound_is_refused(literal):
    # reading 1e<n> builds 10**n, at a cost growing faster than n: without
    # the bound, 1e1000000 takes a fifth of a second and each further
    # exponent digit multiplies that
    with pytest.raises(NumericError, match="exponent past"):
        exact_context().coerce(literal)


def test_an_exact_string_at_the_exponent_bound_is_read():
    assert exact_context().coerce("1e4300") == 10**4300
    assert exact_context().coerce("25e-4300") == Fraction(25, 10**4300)
    assert exact_context().coerce("1e+0004300") == 10**4300


def test_infer_mode():
    assert infer_mode([Fraction(1), 2]) == "exact"
    assert infer_mode([1.0, Fraction(1)]) == "float"
    assert infer_mode([]) == "exact"


def test_context_coerce():
    assert exact_context().coerce(2) == Fraction(2)
    assert isinstance(float_context().coerce(Fraction(1, 2)), float)
    with pytest.raises(NumericError):
        exact_context().coerce(0.5)
    # JSON true/false are not numbers in either mode, and only exact mode
    # reads 'p/q' strings
    with pytest.raises(NumericError, match="not true"):
        exact_context().coerce(True)
    with pytest.raises(NumericError, match="not false"):
        float_context().coerce(False)
    with pytest.raises(NumericError, match="must be a number"):
        float_context().coerce("1.5")
    with pytest.raises(NumericError):
        geometric_graph(1, [(True,)])


def test_mode_validation():
    with pytest.raises(NumericError):
        NumericContext("decimal", 1e-9)
    with pytest.raises(NumericError):
        NumericContext("float", 0.0)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_tolerance_must_be_finite(mode, eps):
    with pytest.raises(NumericError, match="positive finite number"):
        NumericContext(mode, eps)
