"""The exact simplex's integer-row tableau: invariants and hand-checked paths.

Every row is a dict of int numerators over one positive row denominator,
and a basic column's numerator equals its row's denominator (the
coefficient is exactly 1).  These tests spy on the tableau's pivots,
ratio tests and pricing rounds to check that invariant after every
pivot and to prove that the non-trivial paths — a pivot row with a
denominator, a run of degenerate pivots long enough to switch to
Bland's rule, a bound flip — really run and still land on the exact
optimum.
"""

from fractions import Fraction

import pytest

from repro.lp import simplex
from repro.lp.model import GREATER, LESS, LinearProgram
from repro.lp.simplex import OPTIMAL, PreparedProgram, solve_lp
from tests.golden.generate_lp_goldens import random_program


@pytest.fixture
def spy(monkeypatch):
    """Record every pivot, ratio test and pricing round of the solves."""
    seen = {"pivots": 0, "pivot_dens": [], "bound_flips": 0, "bland": False}
    tableau = simplex._Tableau
    pivot, ratio_test, price = tableau._pivot, tableau._ratio_test, tableau._price

    def checked_pivot(self, entering, delta, limiting, column):
        seen["pivot_dens"].append(self.dens[limiting])
        pivot(self, entering, delta, limiting, column)
        seen["pivots"] += 1
        for row, den, basic in zip(self.rows, self.dens, self.basis):
            assert den > 0
            assert row[basic] == den
            assert all(row.values()), "a zero numerator was stored"

    def counted_ratio_test(self, entering, direction, column):
        step, limiting = ratio_test(self, entering, direction, column)
        if step is not None and limiting is None:
            seen["bound_flips"] += 1
        return step, limiting

    def watched_price(self):
        seen["bland"] = seen["bland"] or self._bland
        return price(self)

    monkeypatch.setattr(tableau, "_pivot", checked_pivot)
    monkeypatch.setattr(tableau, "_ratio_test", counted_ratio_test)
    monkeypatch.setattr(tableau, "_price", watched_price)
    return seen


def test_pivot_row_with_a_denominator(spy):
    # min -x - 2y  s.t.  x/3 + 47y/20 <= 5,  x <= 9.
    # y enters first on the row x/3 + 47y/20 (denominator 60, pivot
    # numerator 141), then x enters on x <= 9; by hand the optimum is
    # x = 9, y = (5 - 3) * 20/47 = 40/47 with value -9 - 80/47 = -503/47.
    lp = LinearProgram()
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: Fraction(1, 3), y: Fraction(47, 20)}, LESS, 5)
    lp.add_constraint({x: 1}, LESS, 9)
    lp.set_objective({x: -1, y: -2})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.values == [Fraction(9), Fraction(40, 47)]
    assert solution.objective == Fraction(-503, 47)
    assert spy["pivot_dens"][0] == 60
    assert spy["pivots"] == 2


def test_degenerate_run_switches_to_bland_and_ends_in_a_bound_flip(spy):
    # x0 >= x1 >= ... >= x59 in [0, 1], minimize -sum((k + 1) * xk).
    # Dantzig prices the last variable first, and every chain row holds
    # at zero, so each pivot is degenerate until x0 moves: the run passes
    # the 40-pivot limit and Bland's rule takes over.  x0 then rises to
    # its own upper bound (a bound flip) and drags the chain along.
    size = 60
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{k}", upper=1) for k in range(size)]
    for k in range(size - 1):
        lp.add_constraint({xs[k + 1]: 1, xs[k]: -1}, LESS, 0)
    lp.set_objective({x: -(k + 1) for k, x in enumerate(xs)})
    solution = solve_lp(lp)
    assert solution.status == OPTIMAL
    assert solution.values == [Fraction(1)] * size
    assert solution.objective == -Fraction(size * (size + 1), 2)
    assert spy["pivots"] > simplex._DEGENERATE_LIMIT
    assert spy["bland"]
    assert spy["bound_flips"] >= 1


@pytest.mark.parametrize("seed", range(0, 100, 7))
def test_invariant_holds_on_random_programs(spy, seed):
    solve_lp(random_program(seed))


def test_invariant_holds_across_branch_and_bound_nodes(spy):
    # One prepared matrix serves every node; per-node bound overrides
    # (including fixings that drop columns) never leak between solves.
    lp = LinearProgram()
    xs = [lp.add_binary(f"x{k}") for k in range(6)]
    lp.add_constraint({x: Fraction(k + 3, 20) for k, x in enumerate(xs)}, LESS, Fraction(3, 4))
    lp.add_constraint({x: 1 for x in xs}, GREATER, 2)
    lp.set_objective({x: -(k % 4 + 1) for k, x in enumerate(xs)})
    prepared = PreparedProgram(lp)
    free = prepared.solve()
    pinned = prepared.solve({xs[3]: (Fraction(0), Fraction(0))})
    assert free.values == solve_lp(lp).values
    assert pinned.values == solve_lp(lp, {xs[3]: (Fraction(0), Fraction(0))}).values
    assert pinned.values[3] == 0
    assert prepared.solve().values == free.values
    assert spy["pivots"] > 0
