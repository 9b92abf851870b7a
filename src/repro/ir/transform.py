"""Graph transformations on CDFGs.

The synthesis flow occasionally needs to clean up or restructure graphs
before scheduling:

* :func:`remove_dead_operations` — drop arithmetic operations whose result
  never reaches an output (dead code in the behavioural description),
* :func:`strip_virtual_operations` — remove constants/no-ops and reconnect
  around them (schedulers only care about real operations),
* :func:`merge_chains` / :func:`relabel` — structural utilities used by the
  random benchmark generator and the tests.

All transforms return *new* graphs; inputs are never mutated.
"""

from __future__ import annotations

from typing import Callable, Dict, Set

from .cdfg import CDFG
from .operation import Operation, OpType


def remove_dead_operations(cdfg: CDFG) -> CDFG:
    """Remove arithmetic operations that cannot reach any output.

    Input and output operations are always kept; virtual operations are
    kept only if something reachable consumes them.
    """
    outputs = set(cdfg.operations_of_type(OpType.OUTPUT))
    if not outputs:
        # Without outputs everything is considered live (common for
        # synthetic test graphs).
        return cdfg.copy()

    live: Set[str] = set(outputs)
    for out in outputs:
        live |= cdfg.ancestors(out)
    live |= set(cdfg.operations_of_type(OpType.INPUT))

    return cdfg.subgraph(live, name=cdfg.name)


def strip_virtual_operations(cdfg: CDFG) -> CDFG:
    """Remove CONST/NOP nodes, reconnecting predecessors to successors.

    Constants have no predecessors so removal simply drops their edges;
    NOP nodes are bypassed (each predecessor is connected to each
    successor).
    """
    result = CDFG(cdfg.name)
    keep = [n for n in cdfg.operation_names() if not cdfg.operation(n).is_virtual]
    for name in keep:
        result.add_operation(cdfg.operation(name))

    # Bypass virtual nodes: find, for every kept node, its kept ancestors
    # through chains of virtual nodes.
    def real_producers(node: str) -> Set[str]:
        producers: Set[str] = set()
        stack = list(cdfg.predecessors(node))
        seen: Set[str] = set()
        while stack:
            pred = stack.pop()
            if pred in seen:
                continue
            seen.add(pred)
            if cdfg.operation(pred).is_virtual:
                stack.extend(cdfg.predecessors(pred))
            else:
                producers.add(pred)
        return producers

    for name in keep:
        for producer in sorted(real_producers(name)):
            if producer != name:
                result.add_edge(producer, name)
    return result


def relabel(cdfg: CDFG, mapper: Callable[[str], str]) -> CDFG:
    """Return a copy with every operation renamed through ``mapper``.

    Raises:
        ValueError: if the mapping is not injective over the graph's names.
    """
    new_names: Dict[str, str] = {n: mapper(n) for n in cdfg.operation_names()}
    if len(set(new_names.values())) != len(new_names):
        raise ValueError("relabel mapper is not injective")
    result = CDFG(cdfg.name)
    for name in cdfg.operation_names():
        op = cdfg.operation(name)
        result.add_operation(Operation(new_names[name], op.optype, op.label, op.attrs))
    for src, dst in cdfg.edges():
        for _ in range(cdfg.edge_multiplicity(src, dst)):
            result.add_edge(new_names[src], new_names[dst])
    return result


def merge_graphs(first: CDFG, second: CDFG, name: str = "merged") -> CDFG:
    """Disjoint union of two CDFGs (operation names must not collide)."""
    overlap = set(first.operation_names()) & set(second.operation_names())
    if overlap:
        raise ValueError(f"operation names collide in merge: {sorted(overlap)}")
    result = CDFG(name)
    for graph in (first, second):
        for op in graph.operations():
            result.add_operation(op)
        for src, dst in graph.edges():
            for _ in range(graph.edge_multiplicity(src, dst)):
                result.add_edge(src, dst)
    return result


def io_wrapped(cdfg: CDFG, name: str | None = None) -> CDFG:
    """Ensure every source is fed by an INPUT and every sink feeds an OUTPUT.

    Benchmark graphs written only with arithmetic nodes can be wrapped so
    the I/O power contribution from the paper's library (``input``/
    ``output`` modules in Table 1) is accounted for.
    """
    result = cdfg.copy(name or cdfg.name)
    for source in list(result.sources()):
        op = result.operation(source)
        if op.optype in (OpType.INPUT, OpType.CONST):
            continue
        feeder = f"in_{source}"
        if feeder in result:
            continue
        result.add_operation(Operation(feeder, OpType.INPUT))
        result.add_edge(feeder, source)
    for sink in list(result.sinks()):
        op = result.operation(sink)
        if op.optype is OpType.OUTPUT:
            continue
        consumer = f"out_{sink}"
        if consumer in result:
            continue
        result.add_operation(Operation(consumer, OpType.OUTPUT))
        result.add_edge(sink, consumer)
    return result
