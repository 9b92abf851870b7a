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

The tableau is kept sparse (one dict per row) and fully reduced: the
basic column of each row is a unit column, so pricing reads reduced
costs straight off the objective row.

Internally every number is a gcd-reduced ``(numerator, denominator)``
pair of plain ints with the denominator positive, and the hot loops
inline the rational arithmetic.  :class:`fractions.Fraction` would give
identical answers, but its operator dispatch and re-normalization are
roughly an order of magnitude slower — the difference between the
branch-and-bound clearing a fuzz campaign in seconds and in hours.
Fractions appear only at the public boundary (:class:`SimplexSolution`).

This module imports nothing outside the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, Optional, Tuple

from .model import EQUAL, GREATER, LESS, LinearProgram, LPError

#: Solution statuses.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Consecutive degenerate pivots tolerated before switching to Bland's rule.
_DEGENERATE_LIMIT = 40

#: Hard iteration safety valve (never hit by well-posed models; turns a
#: would-be hang into a loud error).
_MAX_ITERATIONS = 500_000

#: A rational as a reduced (numerator, denominator > 0) pair.
Rat = Tuple[int, int]

_R_ZERO: Rat = (0, 1)
_R_ONE: Rat = (1, 1)


def _reduce(num: int, den: int) -> Rat:
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        return (num // g, den // g)
    return (num, den)


def _from_fraction(value: Fraction) -> Rat:
    return (value.numerator, value.denominator)


def _to_fraction(value: Rat) -> Fraction:
    return Fraction(value[0], value[1])


def _r_add(a: Rat, b: Rat) -> Rat:
    an, ad = a
    bn, bd = b
    return _reduce(an * bd + bn * ad, ad * bd)


def _r_sub(a: Rat, b: Rat) -> Rat:
    an, ad = a
    bn, bd = b
    return _reduce(an * bd - bn * ad, ad * bd)


def _r_mul(a: Rat, b: Rat) -> Rat:
    return _reduce(a[0] * b[0], a[1] * b[1])


def _r_div(a: Rat, b: Rat) -> Rat:
    return _reduce(a[0] * b[1], a[1] * b[0])


def _r_lt(a: Rat, b: Rat) -> bool:
    return a[0] * b[1] < b[0] * a[1]


@dataclass
class SimplexSolution:
    """Outcome of one LP solve.

    Attributes:
        status: ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
        objective: Exact optimal objective value (``None`` unless optimal).
        values: Exact value per *structural* variable (``None`` unless
            optimal), indexed like ``program.variables``.
        iterations: Simplex pivots/bound-flips performed across both phases.
    """

    status: str
    objective: Optional[Fraction] = None
    values: Optional[List[Fraction]] = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Infeasible(Exception):
    """Internal: bound overrides produced an empty box."""


class _Tableau:
    """Sparse reduced tableau with bounded variables (all entries Rat)."""

    def __init__(
        self,
        program: LinearProgram,
        overrides: Optional[Mapping[int, Tuple[Fraction, Optional[Fraction]]]],
    ) -> None:
        self.structural = len(program.variables)
        self.lower: List[Rat] = []
        self.upper: List[Optional[Rat]] = []
        for index, variable in enumerate(program.variables):
            low, up = variable.lower, variable.upper
            if overrides is not None and index in overrides:
                low, up = overrides[index]
            if up is not None and up < low:
                raise _Infeasible()
            self.lower.append(_from_fraction(low))
            self.upper.append(_from_fraction(up) if up is not None else None)

        # Nonbasic rest position: True = at upper bound.
        self.at_upper: List[bool] = [False] * self.structural
        self.rows: List[Dict[int, Rat]] = []
        self.basis: List[int] = []
        self.artificials: List[int] = []
        #: variable -> row it is basic in, or -1.
        self.basic_row: List[int] = [-1] * self.structural
        #: Current value of each row's basic variable, maintained
        #: incrementally across pivots and bound flips.
        self.xB: List[Rat] = []
        self.iterations = 0
        self._degenerate_run = 0
        self._bland = False

        for constraint in program.constraints:
            row: Dict[int, Rat] = {}
            residual = _from_fraction(constraint.rhs)
            for index, coefficient in constraint.coefficients:
                value = _from_fraction(coefficient)
                if index in row:
                    value = _r_add(row[index], value)
                row[index] = value
                rest = self._rest_value(index)
                if rest[0]:
                    residual = _r_sub(residual, _r_mul(value, rest))
            slack: Optional[int] = None
            if constraint.sense in (LESS, GREATER):
                slack = self._new_variable(_R_ZERO, None)
                row[slack] = _R_ONE if constraint.sense == LESS else (-1, 1)
            if residual[0] < 0:
                # Flip the whole row so the starting basic value (the
                # residual) is non-negative.
                row = {index: (-n, d) for index, (n, d) in row.items()}
                residual = (-residual[0], residual[1])
            if slack is not None and row[slack] == _R_ONE:
                basic = slack
            else:
                basic = self._new_variable(_R_ZERO, None)
                row[basic] = _R_ONE
                self.artificials.append(basic)
            self.rows.append(row)
            self.basis.append(basic)
            self.basic_row[basic] = len(self.rows) - 1
            self.xB.append(residual)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _new_variable(self, lower: Rat, upper: Optional[Rat]) -> int:
        index = len(self.lower)
        self.lower.append(lower)
        self.upper.append(upper)
        self.at_upper.append(False)
        self.basic_row.append(-1)
        return index

    def _rest_value(self, index: int) -> Rat:
        upper = self.upper[index]
        return upper if (self.at_upper[index] and upper is not None) else self.lower[index]

    def value_of(self, index: int) -> Rat:
        row = self.basic_row[index]
        return self.xB[row] if row >= 0 else self._rest_value(index)

    def reduced_objective(self, objective: Mapping[int, Rat]) -> Dict[int, Rat]:
        """The objective row with every basic column eliminated."""
        reduced = {index: value for index, value in objective.items() if value[0]}
        for i, basic in enumerate(self.basis):
            factor = reduced.get(basic)
            if factor is None or not factor[0]:
                continue
            fn, fd = factor
            for index, (cn, cd) in self.rows[i].items():
                on, od = reduced.get(index, _R_ZERO)
                num = on * fd * cd - fn * cn * od
                if num:
                    reduced[index] = _reduce(num, od * fd * cd)
                else:
                    reduced.pop(index, None)
        return reduced

    # ------------------------------------------------------------------ #
    # The simplex loop
    # ------------------------------------------------------------------ #
    def optimize(self, objective: Dict[int, Rat]) -> str:
        """Minimize over the current basis; returns OPTIMAL or UNBOUNDED."""
        while True:
            self.iterations += 1
            if self.iterations > _MAX_ITERATIONS:  # pragma: no cover - safety valve
                raise LPError("simplex iteration limit exceeded")
            entering = self._price(objective)
            if entering is None:
                return OPTIMAL
            direction = -1 if self.at_upper[entering] else 1
            step, limiting = self._ratio_test(entering, direction)
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
                if delta[0]:
                    dn, dd = delta
                    for i, row in enumerate(self.rows):
                        coefficient = row.get(entering)
                        if coefficient is not None:
                            cn, cd = coefficient
                            bn, bd = self.xB[i]
                            self.xB[i] = _reduce(bn * cd * dd - cn * dn * bd, bd * cd * dd)
                continue
            self._pivot(entering, delta, limiting, objective)

    def _price(self, objective: Dict[int, Rat]) -> Optional[int]:
        best: Optional[int] = None
        best_score = _R_ZERO
        for index, cost in objective.items():
            if self.basic_row[index] >= 0:
                continue
            lower, upper = self.lower[index], self.upper[index]
            if upper is not None and upper == lower:
                continue  # fixed variable can never move
            at_upper = self.at_upper[index] and upper is not None
            if at_upper:
                if cost[0] <= 0:
                    continue
                score = cost
            else:
                if cost[0] >= 0:
                    continue
                score = (-cost[0], cost[1])
            if self._bland:
                if best is None or index < best:
                    best = index
                    best_score = score
            elif _r_lt(best_score, score) or (
                score == best_score and (best is None or index < best)
            ):
                best = index
                best_score = score
        return best

    def _ratio_test(
        self, entering: int, direction: int
    ) -> Tuple[Optional[Rat], Optional[int]]:
        """Largest feasible step for the entering variable.

        Returns ``(step, limiting_row)``; ``limiting_row`` is ``None``
        when the entering variable's own opposite bound binds first (a
        bound flip), and ``step`` is ``None`` when nothing binds at all
        (the LP is unbounded in this direction).
        """
        step: Optional[Rat] = None
        limiting: Optional[int] = None
        span_upper = self.upper[entering]
        if span_upper is not None:
            step = _r_sub(span_upper, self.lower[entering])
        for i, row in enumerate(self.rows):
            coefficient = row.get(entering)
            if coefficient is None or not coefficient[0]:
                continue
            # d(basic_i)/d(step) = -coefficient * direction
            rising = (coefficient[0] < 0) if direction > 0 else (coefficient[0] > 0)
            basic = self.basis[i]
            if rising:
                bound = self.upper[basic]
                if bound is None:
                    continue
                allowance = _r_sub(bound, self.xB[i])
            else:
                allowance = _r_sub(self.xB[i], self.lower[basic])
            rate = (abs(coefficient[0]), coefficient[1])
            candidate = _r_div(allowance, rate)
            if step is None or _r_lt(candidate, step):
                step = candidate
                limiting = i
            elif candidate == step and limiting is not None:
                # Bland tie-break on the leaving variable: smallest index.
                if self.basis[i] < self.basis[limiting]:
                    limiting = i
        return step, limiting

    def _pivot(
        self,
        entering: int,
        delta: Rat,
        limiting: int,
        objective: Dict[int, Rat],
    ) -> None:
        leaving = self.basis[limiting]
        pivot_row = self.rows[limiting]
        pivot = pivot_row[entering]
        # Which of its bounds did the leaving variable hit?
        if delta[0]:
            self.at_upper[leaving] = (pivot[0] * delta[0]) < 0
        else:
            self.at_upper[leaving] = self.xB[limiting] == self.upper[leaving]
        self.basic_row[leaving] = -1

        # Update every basic value for the entering variable's move, then
        # install the entering variable as the limiting row's basic.
        entering_value = _r_add(self._rest_value(entering), delta)
        if delta[0]:
            dn, dd = delta
            for i, row in enumerate(self.rows):
                if i == limiting:
                    continue
                coefficient = row.get(entering)
                if coefficient is not None:
                    cn, cd = coefficient
                    bn, bd = self.xB[i]
                    self.xB[i] = _reduce(bn * cd * dd - cn * dn * bd, bd * cd * dd)
        self.xB[limiting] = entering_value

        if pivot != _R_ONE:
            # Normalize the pivot row so the entering column is 1.
            pn, pd = pivot
            self.rows[limiting] = pivot_row = {
                index: _reduce(n * pd, d * pn) for index, (n, d) in pivot_row.items()
            }
        pivot_items = list(pivot_row.items())
        for i, row in enumerate(self.rows):
            if i == limiting:
                continue
            factor = row.get(entering)
            if factor is None or not factor[0]:
                continue
            fn, fd = factor
            for index, (pn, pd) in pivot_items:
                cn, cd = row.get(index, _R_ZERO)
                num = cn * fd * pd - fn * pn * cd
                if num:
                    row[index] = _reduce(num, cd * fd * pd)
                else:
                    row.pop(index, None)
        factor = objective.get(entering)
        if factor is not None and factor[0]:
            fn, fd = factor
            for index, (pn, pd) in pivot_items:
                cn, cd = objective.get(index, _R_ZERO)
                num = cn * fd * pd - fn * pn * cd
                if num:
                    objective[index] = _reduce(num, cd * fd * pd)
                else:
                    objective.pop(index, None)
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
            mechanism branch-and-bound uses to explore subproblems
            without copying the program.

    Returns:
        A :class:`SimplexSolution`.  ``status`` is exact: ``infeasible``
        and ``unbounded`` are proofs, not tolerance judgements.
    """
    try:
        tableau = _Tableau(program, bounds)
    except _Infeasible:
        return SimplexSolution(status=INFEASIBLE)

    # Phase 1: minimize the sum of artificials down to zero.
    if tableau.artificials:
        phase_one = tableau.reduced_objective(
            {index: _R_ONE for index in tableau.artificials}
        )
        status = tableau.optimize(phase_one)
        if status != OPTIMAL:  # pragma: no cover - sum of artificials is bounded
            raise LPError("phase-1 objective cannot be unbounded")
        if any(tableau.value_of(index)[0] for index in tableau.artificials):
            return SimplexSolution(status=INFEASIBLE, iterations=tableau.iterations)
        # Pin every artificial at zero so phase 2 can never re-use them.
        for index in tableau.artificials:
            tableau.lower[index] = _R_ZERO
            tableau.upper[index] = _R_ZERO
            tableau.at_upper[index] = False

    objective = tableau.reduced_objective(
        {
            index: _from_fraction(value)
            for index, value in program.objective.items()
        }
    )
    status = tableau.optimize(objective)
    if status == UNBOUNDED:
        return SimplexSolution(status=UNBOUNDED, iterations=tableau.iterations)
    values = [
        _to_fraction(tableau.value_of(index)) for index in range(tableau.structural)
    ]
    return SimplexSolution(
        status=OPTIMAL,
        objective=program.evaluate_objective(values),
        values=values,
        iterations=tableau.iterations,
    )
