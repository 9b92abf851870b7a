"""Integer variable bounds are kept as they are."""

from fractions import Fraction

import pytest

from repro.lp.model import LinearProgram, LPError


def test_int_bounds_stay_ints_and_others_become_fractions():
    lp = LinearProgram()
    lp.add_variable("x", lower=0, upper=1, integer=True)
    lp.add_variable("y", lower=0.5, upper=Fraction(7, 2))
    x, y = lp.variables
    assert type(x.lower) is int and type(x.upper) is int
    assert (y.lower, y.upper) == (Fraction(1, 2), Fraction(7, 2))
    assert type(y.lower) is Fraction


@pytest.mark.parametrize("bounds", [{"lower": True}, {"upper": False}])
def test_bool_bounds_are_refused(bounds):
    with pytest.raises(LPError):
        LinearProgram().add_variable("b", **bounds)


def test_an_empty_int_range_is_refused():
    with pytest.raises(LPError, match="empty bound range"):
        LinearProgram().add_variable("x", lower=3, upper=2)
