"""Tests for the exact-arithmetic LinearProgram container."""

from fractions import Fraction

import pytest

from repro.lp.model import LESS, GREATER, EQUAL, LinearProgram, LPError, as_fraction


class TestAsFraction:
    def test_decimal_floats_become_the_written_decimal(self):
        # 0.1 is not representable in binary; the conversion must recover
        # the decimal the programmer wrote, not the 55-bit neighbour.
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(2.3) == Fraction(23, 10)

    def test_ints_and_fractions_pass_through(self):
        assert as_fraction(7) == Fraction(7)
        assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(LPError):
            as_fraction(float("inf"))
        with pytest.raises(LPError):
            as_fraction(float("nan"))

    def test_booleans_rejected(self):
        with pytest.raises(LPError):
            as_fraction(True)


class TestLinearProgram:
    def test_variable_indices_are_sequential(self):
        lp = LinearProgram()
        assert lp.add_variable("x") == 0
        assert lp.add_binary("b") == 1
        assert lp.num_variables == 2
        assert lp.variables[1].integer and lp.variables[1].upper == 1

    def test_empty_bound_range_rejected(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variable("x", lower=2, upper=1)

    def test_zero_coefficients_are_dropped(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        row = lp.add_constraint({x: 1, y: 0}, LESS, 4)
        assert lp.constraints[row].row == {x: 1}
        assert lp.constraints[row].den == 1

    def test_rows_are_int_numerators_over_the_least_common_denominator(self):
        lp = LinearProgram()
        x, y, z, w = (lp.add_variable(name) for name in "xyzw")
        coefficients = {x: 3, y: 0.25, z: Fraction(-2, 3), w: 0.1}
        row = lp.constraints[lp.add_constraint(coefficients, LESS, 2.5)]
        assert row.den == 60
        assert all(type(value) is int for value in row.row.values())
        assert {i: Fraction(v, row.den) for i, v in row.row.items()} == {
            x: Fraction(3), y: Fraction(1, 4), z: Fraction(-2, 3), w: Fraction(1, 10)
        }
        assert list(row.row) == [x, y, z, w]
        assert row.rhs == Fraction(5, 2)

    def test_satisfied_constant_row_is_skipped(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        assert lp.add_constraint({x: 0}, LESS, 1) is None
        assert lp.num_constraints == 0

    def test_violated_constant_row_raises_at_build_time(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({x: 0}, GREATER, 1)

    def test_unknown_variable_and_sense_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({5: 1}, LESS, 1)
        with pytest.raises(LPError):
            lp.add_constraint({0: 1}, "<", 1)
        with pytest.raises(LPError):
            lp.set_objective({5: 1})

    def test_evaluate_objective_is_exact(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.set_objective({x: 0.1, y: 3})
        values = [Fraction(1), Fraction(1, 3)]
        assert lp.evaluate_objective(values) == Fraction(11, 10)

    def test_integer_variables_listing(self):
        lp = LinearProgram()
        lp.add_variable("x")
        b = lp.add_binary("b")
        assert lp.integer_variables() == [b]

    def test_equal_sense_accepted(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        assert lp.add_constraint({x: 2}, EQUAL, 1) == 0
