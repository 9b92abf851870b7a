"""Two-phase bounded-variable simplex over exact rational arithmetic.

:func:`solve_lp` solves the continuous relaxation of a
:class:`~repro.lp.model.LinearProgram`:

* **bounded variables** are handled natively (nonbasic variables rest at
  either bound and can *bound-flip* without a basis change), so the 0/1
  box of a time-indexed scheduling model costs no extra rows;
* **phase 1** starts from the all-at-lower-bound point, reuses a row's
  slack as the starting basic variable whenever its sign allows, and
  introduces an artificial only where it does not — minimizing the sum
  of artificials to feasibility (or proving infeasibility);
* **exact arithmetic** means optimality, infeasibility and unboundedness
  are decided without tolerances — which is what lets the
  branch-and-bound above this treat LP verdicts as proofs;
* **anti-cycling**: pricing uses Dantzig's rule (steepest reduced cost)
  for speed and switches to Bland's rule after a run of degenerate
  pivots, which guarantees termination.

The tableau is kept sparse and fully reduced: each row, the objective
row included, is a dict of ``int`` numerators over one positive ``int``
row denominator, and a basic column's numerator equals its row's
denominator (a unit column).  Eliminating with a pivot row is a
multiply-subtract per entry with no per-entry ``gcd``; only when the
pivot row's denominator does not divide the factor is the row rescaled,
and then one ``gcd`` call reduces the whole row.  Pricing compares
numerators and the ratio test cross-multiplies, so every choice is the
one a tableau of reduced fractions would make.  Fixed variables never
enter, so their columns are left out.  :class:`fractions.Fraction`, an
order of magnitude slower, appears only at the public boundary.

This module imports nothing outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Optional, Tuple

from .model import GREATER, LESS, LinearProgram, LPError, integer_row

#: Solution statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Consecutive degenerate pivots tolerated before switching to Bland's rule.
_DEGENERATE_LIMIT = 40
#: Hard iteration safety valve: a would-be hang becomes a loud error.
_MAX_ITERATIONS = 500_000

#: A rational as a reduced (numerator, denominator > 0) pair.
Rat = Tuple[int, int]
#: One tableau row: variable -> numerator over the row's denominator.
Row = Dict[int, int]
_R_ZERO: Rat = (0, 1)
Bounds = Mapping[int, Tuple[Fraction, Optional[Fraction]]]


def _reduce(num: int, den: int) -> Rat:
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def _eliminate(row: Row, den: int, factor: int, pivot: List[Tuple[int, int]],
               pivot_den: int) -> Tuple[Row, int]:
    """``row/den - (factor/den) * pivot/pivot_den`` as a (row, den) pair.

    Rescales (and then gcd-reduces) the row only when ``pivot_den`` does
    not divide ``factor``; otherwise it updates ``row`` in place.
    """
    g = gcd(factor, pivot_den)
    scale, factor = pivot_den // g, factor // g
    if scale != 1:
        row = {index: value * scale for index, value in row.items()}
        den *= scale
    for index, value in pivot:
        value = row.get(index, 0) - factor * value
        if value:
            row[index] = value
        else:
            del row[index]
    if scale != 1:
        g = gcd(den, *row.values())
        if g > 1:
            row = {index: value // g for index, value in row.items()}
            den //= g
    return row, den


@dataclass
class SimplexSolution:
    """Outcome of one LP solve.

    Attributes:
        status: ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
        objective: Exact optimal objective value (``None`` unless optimal).
        values: Exact value per *structural* variable (``None`` unless
            optimal), indexed like ``program.variables``.
        iterations: Simplex iterations across both phases: every pivot
            and bound flip, plus each phase's final pricing round (the
            one that proves it optimal or unbounded).
    """

    status: str
    objective: Optional[Fraction] = None
    values: Optional[List[Fraction]] = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class PreparedProgram:
    """A program's constraint matrix in tableau form, built once.

    Takes the program's rows as they are (int numerators over a row
    denominator) and adds each row's residual at the lower bounds, so
    the branch-and-bound solves every node from one preparation.
    :meth:`solve` never mutates it, nor the rows it shares with the
    program.
    """

    def __init__(self, program: LinearProgram) -> None:
        self.program = program
        variables = program.variables
        self.lower: List[Rat] = [(v.lower.numerator, v.lower.denominator) for v in variables]
        self.upper: List[Optional[Rat]] = [
            None if v.upper is None else (v.upper.numerator, v.upper.denominator)
            for v in variables
        ]
        self.fixed = frozenset(
            index for index, bounds in enumerate(zip(self.lower, self.upper))
            if bounds[0] == bounds[1]
        )
        self.rows: List[Row] = [c.row for c in program.constraints]
        self.dens: List[int] = [c.den for c in program.constraints]
        self.senses: List[str] = [c.sense for c in program.constraints]
        # Each row's rhs minus its terms at the lower bounds.
        self.residuals: List[Rat] = []
        lifted = {i: low for i, low in enumerate(self.lower) if low[0]}
        for constraint in program.constraints:
            row, den = constraint.row, constraint.den
            rn, rd = constraint.rhs.numerator, constraint.rhs.denominator
            for index in lifted.keys() & row.keys():
                ln, ld = lifted[index]
                rn, rd = rn * den * ld - row[index] * ln * rd, rd * den * ld
            self.residuals.append(_reduce(rn, rd))
        self.objective = integer_row(program.objective.items())

    def solve(self, bounds: Optional[Bounds] = None) -> SimplexSolution:
        """Solve the relaxation under per-variable ``(lower, upper)`` overrides."""
        bounds = bounds or {}
        for index, (low, up) in bounds.items():
            if not 0 <= index < len(self.lower):
                raise LPError(f"bound override for unknown variable {index}")
            if up is not None and up < low:
                return SimplexSolution(status=INFEASIBLE)  # an empty box
        tableau = _Tableau(self, bounds)
        if tableau.artificials and not tableau.phase_one():
            return SimplexSolution(status=INFEASIBLE, iterations=tableau.iterations)
        if tableau.phase_two(*self.objective) == UNBOUNDED:
            return SimplexSolution(status=UNBOUNDED, iterations=tableau.iterations)
        values = [Fraction(*tableau.value_of(index)) for index in range(len(self.lower))]
        return SimplexSolution(
            status=OPTIMAL,
            objective=self.program.evaluate_objective(values),
            values=values,
            iterations=tableau.iterations,
        )


class _Tableau:
    """Sparse reduced tableau with bounded variables over integer rows."""

    def __init__(self, prepared: PreparedProgram, overrides: Bounds) -> None:
        self.lower: List[Rat] = list(prepared.lower)
        self.upper: List[Optional[Rat]] = list(prepared.upper)
        residuals = list(prepared.residuals)
        # A fixed variable never enters the basis: its column is left out
        # of the rows (its value is already in the residuals).
        fixed = (prepared.fixed - overrides.keys()) | {
            index for index, (low, up) in overrides.items() if up == low
        }
        for index, (low, up) in overrides.items():
            self.upper[index] = None if up is None else (up.numerator, up.denominator)
            base_n, base_d = self.lower[index]
            low_n, low_d = low.numerator, low.denominator
            self.lower[index] = (low_n, low_d)
            shift_n, shift_d = low_n * base_d - base_n * low_d, low_d * base_d
            for i, row in enumerate(prepared.rows) if shift_n else ():
                if index not in row:
                    continue
                value, (rn, rd), den = row[index], residuals[i], prepared.dens[i] * shift_d
                residuals[i] = _reduce(rn * den - value * shift_n * rd, rd * den)

        self.at_upper: List[bool] = [False] * len(self.lower)  # nonbasic at its upper bound
        self.rows: List[Row] = []
        self.dens: List[int] = list(prepared.dens)
        self.basis: List[int] = []
        self.artificials: List[int] = []
        #: variable -> row it is basic in, or -1.
        self.basic_row: List[int] = [-1] * len(self.lower)
        #: Current value of each row's basic variable, maintained
        #: incrementally across pivots and bound flips.
        self.xB: List[Rat] = residuals
        self.iterations = 0
        self._degenerate_run = 0
        self._bland = False
        self.cost, self.cost_den = {}, 1

        for i, sense in enumerate(prepared.senses):
            row = {index: v for index, v in prepared.rows[i].items() if index not in fixed}
            den = self.dens[i]
            slack: Optional[int] = None
            if sense in (LESS, GREATER):
                slack = self._new_variable()
                row[slack] = den if sense == LESS else -den
            if residuals[i][0] < 0:
                # Flip the whole row so the starting basic value (the
                # residual) is non-negative.
                row = {index: -value for index, value in row.items()}
                residuals[i] = (-residuals[i][0], residuals[i][1])
            if slack is not None and row[slack] == den:
                basic = slack
            else:
                basic = self._new_variable()
                row[basic] = den
                self.artificials.append(basic)
            self.rows.append(row)
            self.basis.append(basic)
            self.basic_row[basic] = i

    def _new_variable(self) -> int:
        index = len(self.lower)
        self.lower.append(_R_ZERO)
        self.upper.append(None)
        self.at_upper.append(False)
        self.basic_row.append(-1)
        return index

    def _rest_value(self, index: int) -> Rat:
        upper = self.upper[index]
        return upper if (self.at_upper[index] and upper is not None) else self.lower[index]

    def value_of(self, index: int) -> Rat:
        row = self.basic_row[index]
        return self.xB[row] if row >= 0 else self._rest_value(index)

    def set_cost(self, cost: Row, den: int) -> None:
        """Install an objective row with every basic column eliminated."""
        self.cost, self.cost_den = dict(cost), den
        for i, basic in enumerate(self.basis):
            factor = self.cost.get(basic)
            if factor:
                self.cost, self.cost_den = _eliminate(
                    self.cost, self.cost_den, factor, list(self.rows[i].items()), self.dens[i]
                )

    def phase_one(self) -> bool:
        """Minimize the sum of artificials; ``False`` proves infeasibility."""
        self.set_cost(dict.fromkeys(self.artificials, 1), 1)
        if self.optimize() != OPTIMAL:  # pragma: no cover - sum of artificials is bounded
            raise LPError("phase-1 objective cannot be unbounded")
        if any(self.value_of(index)[0] for index in self.artificials):
            return False
        # Pin every artificial at zero so phase 2 can never re-use them,
        # and drop the columns of those already out of the basis.
        for index in self.artificials:
            self.upper[index] = _R_ZERO
            self.at_upper[index] = False
        pinned = {index for index in self.artificials if self.basic_row[index] < 0}
        self.rows = [{i: v for i, v in row.items() if i not in pinned} for row in self.rows]
        return True

    def phase_two(self, cost: Row, den: int) -> str:
        """Minimize the program's objective; returns OPTIMAL or UNBOUNDED."""
        self.set_cost(cost, den)
        return self.optimize()

    def optimize(self) -> str:
        """Minimize the installed cost row; returns OPTIMAL or UNBOUNDED."""
        while True:
            self.iterations += 1
            if self.iterations > _MAX_ITERATIONS:  # pragma: no cover - safety valve
                raise LPError("simplex iteration limit exceeded")
            entering = self._price()
            if entering is None:
                return OPTIMAL
            column = [(i, row[entering]) for i, row in enumerate(self.rows) if entering in row]
            direction = -1 if self.at_upper[entering] else 1
            step, limiting = self._ratio_test(entering, direction, column)
            if step is None:
                return UNBOUNDED
            if self._bland and step[0]:
                # A non-degenerate pivot breaks any stalled cycle; resume
                # the fast pricing rule.
                self._bland = False
                self._degenerate_run = 0
            elif not step[0]:
                self._degenerate_run += 1
                if self._degenerate_run > _DEGENERATE_LIMIT:
                    self._bland = True
            delta: Rat = step if direction > 0 else (-step[0], step[1])
            if limiting is None:
                # Bound flip: the entering variable crosses its own box.
                self.at_upper[entering] = not self.at_upper[entering]
                self._shift(column, delta, -1)
                continue
            self._pivot(entering, delta, limiting, column)

    def _price(self) -> Optional[int]:
        best: Optional[int] = None
        best_score = 0
        for index, cost in self.cost.items():
            if self.basic_row[index] >= 0:
                continue
            lower, upper = self.lower[index], self.upper[index]
            if upper is not None and upper == lower:
                continue  # fixed variable can never move
            if self.at_upper[index] and upper is not None:
                if cost <= 0:
                    continue
                score = cost
            else:
                if cost >= 0:
                    continue
                score = -cost
            if self._bland:
                best = index if best is None else min(best, index)
            elif score > best_score or (score == best_score and index < best):
                best = index
                best_score = score
        return best

    def _ratio_test(
        self, entering: int, direction: int, column: List[Tuple[int, int]]
    ) -> Tuple[Optional[Rat], Optional[int]]:
        """Largest feasible step for the entering variable.

        Returns ``(step, limiting_row)``; ``limiting_row`` is ``None``
        when the entering variable's own opposite bound binds first (a
        bound flip), and ``step`` is ``None`` when nothing binds at all
        (the LP is unbounded in this direction).
        """
        step_n = step_d = 0
        limiting: Optional[int] = None
        span_upper = self.upper[entering]
        if span_upper is not None:
            (un, ud), (ln, ld) = span_upper, self.lower[entering]
            step_n, step_d = un * ld - ln * ud, ud * ld
        for i, value in column:
            # d(basic_i)/d(step) = -coefficient * direction
            basic = self.basis[i]
            bn, bd = self.xB[i]
            if (value < 0) if direction > 0 else (value > 0):
                bound = self.upper[basic]
                if bound is None:
                    continue
                an, ad = bound[0] * bd - bn * bound[1], bound[1] * bd
            else:
                low_n, low_d = self.lower[basic]
                an, ad = bn * low_d - low_n * bd, bd * low_d
            # allowance / |value / den|, compared by cross-multiplication.
            cand_n, cand_d = an * self.dens[i], ad * abs(value)
            if not step_d or cand_n * step_d < step_n * cand_d:
                step_n, step_d = cand_n, cand_d
                limiting = i
            elif limiting is not None and cand_n * step_d == step_n * cand_d:
                # Bland tie-break on the leaving variable: smallest index.
                if basic < self.basis[limiting]:
                    limiting = i
        if not step_d:
            return None, None
        return _reduce(step_n, step_d), limiting

    def _shift(self, column: List[Tuple[int, int]], delta: Rat, skip: int) -> None:
        """Move every basic value for an entering move of ``delta``."""
        dn, dd = delta
        if not dn:
            return
        xB, dens = self.xB, self.dens
        for i, value in column:
            if i != skip:
                bn, bd = xB[i]
                den = dens[i] * dd
                xB[i] = _reduce(bn * den - value * dn * bd, bd * den)

    def _pivot(
        self, entering: int, delta: Rat, limiting: int, column: List[Tuple[int, int]]
    ) -> None:
        leaving = self.basis[limiting]
        pivot_row = self.rows[limiting]
        pivot = pivot_row[entering]
        # Which of its bounds did the leaving variable hit?
        if delta[0]:
            self.at_upper[leaving] = (pivot * delta[0]) < 0
        else:
            self.at_upper[leaving] = self.xB[limiting] == self.upper[leaving]
        self.basic_row[leaving] = -1

        # Update every basic value for the entering variable's move, then
        # install the entering variable as the limiting row's basic.
        rest_n, rest_d = self._rest_value(entering)
        entering_value = _reduce(rest_n * delta[1] + delta[0] * rest_d, rest_d * delta[1])
        self._shift(column, delta, limiting)
        self.xB[limiting] = entering_value

        if pivot != self.dens[limiting]:
            # Normalize the pivot row so the entering column is 1.
            g = gcd(pivot, *pivot_row.values()) * (1 if pivot > 0 else -1)
            if g != 1:
                pivot_row = {index: value // g for index, value in pivot_row.items()}
            self.rows[limiting], self.dens[limiting] = pivot_row, pivot // g
        pivot_items = list(pivot_row.items())
        pivot_den = self.dens[limiting]
        for i, factor in column:
            if i != limiting:
                self.rows[i], self.dens[i] = _eliminate(
                    self.rows[i], self.dens[i], factor, pivot_items, pivot_den
                )
        factor = self.cost.get(entering)
        if factor:
            self.cost, self.cost_den = _eliminate(
                self.cost, self.cost_den, factor, pivot_items, pivot_den
            )
        self.basis[limiting] = entering
        self.basic_row[entering] = limiting


def solve_lp(
    program: LinearProgram,
    bounds: Optional[Mapping[int, Tuple[Fraction, Optional[Fraction]]]] = None,
) -> SimplexSolution:
    """Solve the continuous relaxation of ``program`` exactly.

    Args:
        program: The model (integrality flags are ignored here — that is
            :func:`repro.lp.branch_bound.solve_milp`'s job).
        bounds: Optional per-variable ``(lower, upper)`` overrides, the
            mechanism branch-and-bound uses (via :class:`PreparedProgram`)
            to explore subproblems without copying the program.

    Returns:
        A :class:`SimplexSolution`.  ``status`` is exact: ``infeasible``
        and ``unbounded`` are proofs, not tolerance judgements.
    """
    return PreparedProgram(program).solve(bounds)
