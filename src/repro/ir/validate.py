"""Structural validation of CDFGs.

A CDFG handed to the schedulers must satisfy a handful of structural
rules; violating them would make the scheduling results meaningless (or
crash deep inside an algorithm with an obscure error).  The rules are:

1. The graph is a DAG (enforced incrementally by :class:`CDFG.add_edge`,
   re-checked here with one Kahn pass over the graph's storage, which
   also catches cycles that bypassed ``add_edge``).
2. Input operations have no predecessors; output operations have no
   successors and exactly one predecessor.
3. Binary arithmetic operations (``+ - * > <``) have at most two
   predecessors (constants may be folded, so fewer is allowed) and at
   least one.
4. Every non-virtual, non-input operation is reachable from at least one
   input or constant, i.e. it has a defined data-ready time.
5. Names are unique (guaranteed by construction, re-checked for graphs
   deserialized from external sources).
"""

from __future__ import annotations

from typing import List

from .cdfg import CDFG, CDFGError
from .operation import OpType

#: Maximum number of data operands for a binary arithmetic operation.
_MAX_ARITH_ARITY = 2


class ValidationError(CDFGError):
    """Raised when a CDFG violates a structural rule."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(problems))

    def __reduce__(self):
        # default pickling would split the joined message into characters
        return (ValidationError, (self.problems,))


def collect_problems(cdfg: CDFG) -> List[str]:
    """Return a list of human-readable structural problems (empty if valid).

    Runs in time linear in the graph: one Kahn pass for acyclicity, one
    sweep over the operations for the per-operation rules and one
    traversal from all sources at once for reachability.
    """
    problems: List[str] = []
    # The raw storage, not the memoized adjacency: validation must see
    # exactly what is stored.
    graph = cdfg._graph
    pred, succ = graph.pred, graph.succ
    names = cdfg.operation_names()

    if not _is_acyclic(names, pred, succ):
        problems.append("graph contains a cycle")

    for name in names:
        op = cdfg.operation(name)
        in_degree = sum(int(data.get("multiplicity", 1)) for data in pred[name].values())
        out_degree = len(succ[name])

        if op.optype is OpType.INPUT and in_degree > 0:
            problems.append(f"input operation {name!r} has predecessors")
        if op.optype is OpType.CONST and in_degree > 0:
            problems.append(f"constant operation {name!r} has predecessors")
        if op.optype is OpType.OUTPUT:
            if out_degree > 0:
                problems.append(f"output operation {name!r} has successors")
            if in_degree != 1:
                problems.append(
                    f"output operation {name!r} must have exactly one operand, has {in_degree}"
                )
        if op.is_arithmetic:
            if in_degree == 0:
                problems.append(f"arithmetic operation {name!r} has no operands")
            if in_degree > _MAX_ARITH_ARITY:
                problems.append(
                    f"arithmetic operation {name!r} has {in_degree} operands "
                    f"(max {_MAX_ARITH_ARITY})"
                )

    # Dangling arithmetic results are suspicious (dead code); allowed but
    # reachability from a source is required.
    sources = [
        n
        for n in names
        if cdfg.operation(n).optype in (OpType.INPUT, OpType.CONST) or not pred[n]
    ]
    if sources:
        reachable = set(sources)
        stack = list(sources)
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    stack.append(nxt)
        unreachable = [n for n in names if n not in reachable]
        if unreachable:
            problems.append(f"operations unreachable from any source: {sorted(unreachable)}")

    return problems


def _is_acyclic(names: List[str], pred, succ) -> bool:
    """Kahn's algorithm: every node drains to in-degree zero iff no cycle."""
    in_degree = {name: len(pred[name]) for name in names}
    ready = [name for name, degree in in_degree.items() if degree == 0]
    drained = 0
    while ready:
        drained += 1
        for nxt in succ[ready.pop()]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                ready.append(nxt)
    return drained == len(names)


def validate_cdfg(cdfg: CDFG) -> CDFG:
    """Validate ``cdfg``; raise :class:`ValidationError` on any problem.

    Returns the graph unchanged so the call can be chained.
    """
    problems = collect_problems(cdfg)
    if problems:
        raise ValidationError(problems)
    return cdfg


def is_valid(cdfg: CDFG) -> bool:
    """True if the graph passes all structural checks."""
    return not collect_problems(cdfg)
