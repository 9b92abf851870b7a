"""Hand-checked MILPs for the branch-and-bound."""

from fractions import Fraction

from repro.lp.branch_bound import LIMIT, solve_milp
from repro.lp.model import LESS, EQUAL, LinearProgram
from repro.lp.simplex import INFEASIBLE, OPTIMAL


def knapsack():
    # max 5a + 4b + 3c  s.t.  2a + 3b + c <= 4, binaries.
    # Optimum is a=c=1 (weight 3, value 8); a+b would overflow the sack.
    lp = LinearProgram("knapsack")
    a = lp.add_binary("a")
    b = lp.add_binary("b")
    c = lp.add_binary("c")
    lp.add_constraint({a: 2, b: 3, c: 1}, LESS, 4)
    lp.set_objective({a: -5, b: -4, c: -3})
    return lp, (a, b, c)


def test_knapsack_optimum():
    lp, (a, b, c) = knapsack()
    result = solve_milp(lp)
    assert result.status == OPTIMAL
    assert result.objective == Fraction(-8)
    assert [result.values[i] for i in (a, b, c)] == [1, 0, 1]


def test_branching_is_needed_and_correct():
    # LP relaxation of the knapsack is fractional (b enters at 2/3), so
    # at least one branch must happen before the integral optimum.
    lp, _ = knapsack()
    result = solve_milp(lp)
    assert result.nodes > 1


def test_integer_infeasible_but_lp_feasible():
    # 2x == 1 has the relaxation point x=1/2 and no integer point at all:
    # the MILP verdict must be a proof of infeasibility.
    lp = LinearProgram()
    x = lp.add_binary("x")
    lp.add_constraint({x: 2}, EQUAL, 1)
    lp.set_objective({x: 1})
    assert solve_lp_status(lp) == OPTIMAL
    assert solve_milp(lp).status == INFEASIBLE


def solve_lp_status(lp):
    from repro.lp.simplex import solve_lp

    return solve_lp(lp).status


def test_node_limit_yields_limit_not_infeasible():
    lp, _ = knapsack()
    result = solve_milp(lp, node_limit=0)
    assert result.status == LIMIT
    assert not result.is_optimal


def test_sos1_group_branching_matches_plain_branching():
    # One-hot assignment: exactly one of four slots, slot k costs k, but
    # slot 0 is forbidden by a side row.  Optimum picks slot 1.
    lp = LinearProgram()
    slots = [lp.add_binary(f"s{k}") for k in range(4)]
    lp.add_constraint({s: 1 for s in slots}, EQUAL, 1)
    lp.add_constraint({slots[0]: 1}, LESS, 0)
    lp.set_objective({s: k for k, s in enumerate(slots)})
    plain = solve_milp(lp)
    grouped = solve_milp(lp, groups=[[(s, k) for k, s in enumerate(slots)]])
    assert plain.status == grouped.status == OPTIMAL
    assert plain.objective == grouped.objective == Fraction(1)


def test_integral_objective_rounding_is_safe():
    # With integral_objective the relaxation bound 8/3 is rounded up to
    # 3 — the true optimum — so the flag must not change the answer.
    lp = LinearProgram()
    x = lp.add_binary("x")
    y = lp.add_binary("y")
    z = lp.add_binary("z")
    lp.add_constraint({x: 3, y: 3, z: 3}, LESS, 8)  # at most two can fire
    lp.set_objective({x: -1, y: -1, z: -1})
    assert solve_milp(lp).objective == Fraction(-2)
    assert solve_milp(lp, integral_objective=True).objective == Fraction(-2)

