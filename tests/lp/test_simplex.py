"""Hand-checked LPs for the exact bounded-variable simplex."""

from fractions import Fraction

import pytest

from repro.lp.model import LESS, GREATER, EQUAL, LinearProgram, LPError
from repro.lp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_two_variable_maximization():
    # max x + y  s.t.  x + 2y <= 4, x <= 3  (as min of the negation).
    # Optimum at the vertex x=3, y=1/2 with value 7/2.
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 2}, LESS, 4)
    lp.add_constraint({x: 1}, LESS, 3)
    lp.set_objective({x: -1, y: -1})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.objective == Fraction(-7, 2)
    assert solution.values == [Fraction(3), Fraction(1, 2)]


def test_fractional_optimum_is_exact():
    # min x s.t. 3x >= 1: the answer is exactly 1/3, no tolerance involved.
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.add_constraint({x: 3}, GREATER, 1)
    lp.set_objective({x: 1})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.values[0] == Fraction(1, 3)


def test_equality_row():
    # x + y == 5 with y <= 3: minimizing x lands on x=2 exactly.
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y", upper=3)
    lp.add_constraint({x: 1, y: 1}, EQUAL, 5)
    lp.set_objective({x: 1})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.values == [Fraction(2), Fraction(3)]


def test_infeasible_is_a_proof():
    lp = LinearProgram()
    x = lp.add_variable("x", upper=1)
    lp.add_constraint({x: 1}, GREATER, 2)
    lp.set_objective({x: 1})
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram()
    x = lp.add_variable("x")
    lp.set_objective({x: -1})
    assert solve_lp(lp).status == UNBOUNDED


def test_bound_overrides_restrict_without_copying():
    # The branch-and-bound subproblem mechanism: the same program solved
    # under tightened per-variable boxes.
    lp = LinearProgram()
    x = lp.add_variable("x", upper=10)
    lp.set_objective({x: -1})  # maximize x
    free = solve_lp(lp)
    assert free.values[0] == Fraction(10)
    pinned = solve_lp(lp, {x: (Fraction(0), Fraction(4))})
    assert pinned.values[0] == Fraction(4)
    empty = solve_lp(lp, {x: (Fraction(5), Fraction(4))})
    assert empty.status == INFEASIBLE


def test_negative_rhs_row_needs_phase_one():
    # -x <= -2 (i.e. x >= 2) forces an artificial start; phase 1 must
    # drive it out and phase 2 still find the exact optimum.
    lp = LinearProgram()
    x = lp.add_variable("x", upper=5)
    lp.add_constraint({x: -1}, LESS, -2)
    lp.set_objective({x: 1})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.values[0] == Fraction(2)


def test_degenerate_vertex_terminates():
    # Several redundant rows meeting at one vertex: Bland's fallback must
    # prevent cycling and still return the optimum.
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1, y: 1}, LESS, 1)
    lp.add_constraint({x: 1}, LESS, 1)
    lp.add_constraint({y: 1}, LESS, 1)
    lp.add_constraint({x: 2, y: 2}, LESS, 2)
    lp.set_objective({x: -1, y: -1})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.objective == Fraction(-1)


def test_fixed_variables_are_honoured():
    lp = LinearProgram()
    x = lp.add_variable("x", lower=3, upper=3)
    y = lp.add_variable("y", upper=10)
    lp.add_constraint({x: 1, y: 1}, LESS, 5)
    lp.set_objective({y: -1})
    solution = solve_lp(lp)
    assert solution.values == [Fraction(3), Fraction(2)]


def test_bound_override_for_an_unknown_variable_is_rejected():
    lp = LinearProgram()
    x = lp.add_variable("x", upper=10)
    lp.set_objective({x: -1})
    for index in (1, -1):
        with pytest.raises(LPError):
            solve_lp(lp, {index: (Fraction(0), Fraction(1))})
