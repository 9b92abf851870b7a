"""Branch-and-bound over the exact simplex relaxation.

:func:`solve_milp` turns :func:`repro.lp.simplex.solve_lp` into an
integer-programming solver:

* **depth-first search** with per-node bound-override dicts — the shared
  :class:`~repro.lp.model.LinearProgram` is never copied, and its
  constraint matrix is converted to tableau form once per solve
  (:class:`~repro.lp.simplex.PreparedProgram`), not once per node;
* **group branching**: time-indexed scheduling models are stacks of
  SOS1-style rows (one start cycle per operation), and splitting an
  operation's window at the fractional mean start prunes far better than
  fixing one binary at a time.  Callers pass the groups; single-variable
  most-fractional branching is the fallback;
* **exactness**: every LP verdict is a proof (Fractions end to end), so
  ``"infeasible"`` here means *no integer point exists* — the property
  the differential harness relies on when it treats the ILP backend as
  an oracle;
* **bounded effort**: an optional node limit turns exhaustion into the
  distinct ``"limit"`` status instead of a false infeasibility claim.

This module imports nothing outside the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .model import LinearProgram
from .simplex import INFEASIBLE, OPTIMAL, PreparedProgram, SimplexSolution

#: Branch-and-bound statuses (a superset of the LP statuses).
LIMIT = "limit"

_ZERO = Fraction(0)
_ONE = Fraction(1)

Bounds = Dict[int, Tuple[Fraction, Optional[Fraction]]]


@dataclass
class BranchBoundResult:
    """Outcome of one MILP solve.

    Attributes:
        status: ``"optimal"``, ``"infeasible"`` or ``"limit"`` (node
            budget exhausted before the search closed — explicitly *not*
            an infeasibility claim).
        objective: Objective value of the best integer point found.
        values: The best integer assignment (indexed like
            ``program.variables``).
        nodes: Branch-and-bound nodes solved.
        iterations: Total simplex iterations across all nodes (each
            node's pivots and bound flips plus one final pricing round
            per simplex phase; see :class:`SimplexSolution`).
    """

    status: str
    objective: Optional[Fraction] = None
    values: Optional[List[Fraction]] = None
    nodes: int = 0
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def _pick_fractional_group(
    groups: Sequence[Sequence[Tuple[int, int]]],
    values: List[Fraction],
) -> Optional[Sequence[Tuple[int, int]]]:
    """The group whose weighted mean is most fractional, or ``None``."""
    best: Optional[Sequence[Tuple[int, int]]] = None
    best_score = _ZERO
    for group in groups:
        fractional = False
        mean = _ZERO
        for index, weight in group:
            value = values[index]
            if not _is_integral(value):
                fractional = True
            mean += value * weight
        if not fractional:
            continue
        score = abs(mean - Fraction(round(mean)))
        # A fractional group whose mean happens to land on an integer is
        # still branchable: give it a nominal score so it can be picked.
        if score == 0:
            score = Fraction(1, 1_000_000)
        if best is None or score > best_score:
            best = group
            best_score = score
    return best


def _pick_fractional_variable(
    integers: Sequence[int], values: List[Fraction]
) -> Optional[int]:
    """The integer variable closest to value 1/2, or ``None``."""
    best: Optional[int] = None
    best_score = _ZERO
    for index in integers:
        value = values[index]
        if _is_integral(value):
            continue
        score = min(value - math.floor(value), math.ceil(value) - value)
        if best is None or score > best_score:
            best = index
            best_score = score
    return best


def _group_children(
    group: Sequence[Tuple[int, int]],
    values: List[Fraction],
    bounds: Bounds,
) -> List[Bounds]:
    """Split a group at the floor of its fractional weighted mean.

    With ``sum(x) == 1`` and fractional support on at least two weights,
    the mean sits strictly between the smallest and largest supported
    weight, so both children remove LP mass.  The "start early" child
    (weights ≤ split) comes first — for makespan-style objectives the
    first integer point found this way tends to be strong, which
    tightens the incumbent bound early.
    """
    mean = sum((values[index] * weight for index, weight in group), _ZERO)
    split = math.floor(mean)
    weights = sorted(weight for _, weight in group)
    # Keep both children strict subsets even if the mean is degenerate.
    split = max(weights[0], min(split, weights[-1] - 1))
    early: Bounds = dict(bounds)
    late: Bounds = dict(bounds)
    for index, weight in group:
        if weight > split:
            early[index] = (_ZERO, _ZERO)
        else:
            late[index] = (_ZERO, _ZERO)
    return [early, late]


def _variable_children(
    index: int,
    value: Fraction,
    bounds: Bounds,
    lower: Fraction,
    upper: Optional[Fraction],
) -> List[Bounds]:
    floor = Fraction(math.floor(value))
    current = bounds.get(index, (lower, upper))
    down: Bounds = dict(bounds)
    down[index] = (current[0], floor)
    up: Bounds = dict(bounds)
    up[index] = (floor + _ONE, current[1])
    return [down, up]


def solve_milp(
    program: LinearProgram,
    *,
    groups: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
    node_limit: Optional[int] = None,
    integral_objective: bool = False,
) -> BranchBoundResult:
    """Minimize ``program`` subject to its integrality flags.

    Args:
        program: The model.  Variables flagged ``integer`` must be
            integral in any reported solution.
        groups: Optional SOS1-style branching groups: each group is a
            sequence of ``(variable, weight)`` pairs whose variables sum
            to one, branched by splitting the weight axis (for the
            scheduling formulation: one group per operation, weights are
            start cycles).  Variables not covered by any group fall back
            to single-variable branching.
        node_limit: Maximum LP nodes to solve; exhaustion yields status
            ``"limit"``.
        integral_objective: Declare that every integer point has an
            integral objective value (true for makespan and register
            counts), enabling ceiling-rounding of relaxation bounds —
            a substantially sharper prune.

    Returns:
        A :class:`BranchBoundResult`; ``status == "infeasible"`` is a
        proof that no integer point satisfies the constraints.
    """
    integers = program.integer_variables()
    prepared = PreparedProgram(program)
    incumbent: Optional[List[Fraction]] = None
    incumbent_objective: Optional[Fraction] = None
    nodes = 0
    iterations = 0
    limited = False
    stack: List[Bounds] = [{}]

    while stack:
        if node_limit is not None and nodes >= node_limit:
            limited = True
            break
        bounds = stack.pop()
        nodes += 1
        relaxation: SimplexSolution = prepared.solve(bounds)
        iterations += relaxation.iterations
        if relaxation.status == INFEASIBLE:
            continue
        if relaxation.status != OPTIMAL:
            # An unbounded relaxation of a bounded-binary model signals a
            # modelling bug; surface it as a limit, never as a verdict.
            limited = True
            break
        bound = relaxation.objective
        if integral_objective:
            bound = Fraction(math.ceil(bound))
        if incumbent_objective is not None and bound >= incumbent_objective:
            continue
        values = relaxation.values
        if all(_is_integral(values[index]) for index in integers):
            incumbent = values
            incumbent_objective = program.evaluate_objective(values)
            continue
        children: Optional[List[Bounds]] = None
        if groups:
            group = _pick_fractional_group(groups, values)
            if group is not None:
                children = _group_children(group, values, bounds)
        if children is None:
            index = _pick_fractional_variable(integers, values)
            if index is None:  # pragma: no cover - all-integral handled above
                continue
            variable = program.variables[index]
            children = _variable_children(
                index, values[index], bounds, variable.lower, variable.upper
            )
        # DFS: push the preferred child last so it is explored first.
        for child in reversed(children):
            stack.append(child)

    if limited:
        # An incumbent found before the budget ran out is still only a
        # bound, not a proven optimum: report it under the limit status.
        return BranchBoundResult(
            status=LIMIT,
            objective=incumbent_objective,
            values=incumbent,
            nodes=nodes,
            iterations=iterations,
        )
    if incumbent is not None:
        return BranchBoundResult(
            status=OPTIMAL,
            objective=incumbent_objective,
            values=incumbent,
            nodes=nodes,
            iterations=iterations,
        )
    return BranchBoundResult(status=INFEASIBLE, nodes=nodes, iterations=iterations)
