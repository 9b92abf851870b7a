"""Equivalence tests for the incremental cycle check and the linear validator.

``CDFG.add_edge`` rejects an edge by searching forward from its consumer,
and ``collect_problems`` runs one Kahn pass and one traversal from all
sources.  Both are checked here against networkx on seeded random graphs:
the cycle check against ``nx.has_path``, the validator against a networkx
reference of the original per-source implementation kept below.
"""

from __future__ import annotations

import copy
import random
from typing import List

import networkx as nx
import pytest

from repro.ir.cdfg import CDFG, CDFGError
from repro.ir.operation import Operation, OpType
from repro.ir.validate import _MAX_ARITH_ARITY, collect_problems

SEEDS = range(12)

#: Types drawn for the validator's random graphs: every rule has a type
#: that can violate it.
_TYPES = (
    OpType.INPUT,
    OpType.CONST,
    OpType.ADD,
    OpType.MUL,
    OpType.SUB,
    OpType.OUTPUT,
    OpType.NOP,
)


def reference_problems(cdfg: CDFG) -> List[str]:
    """The validator's rules as a whole-graph DAG test plus per-source descendants."""
    problems: List[str] = []
    if not nx.is_directed_acyclic_graph(cdfg.graph):
        problems.append("graph contains a cycle")
    for name in cdfg.operation_names():
        op = cdfg.operation(name)
        # Read the networkx graph, not the CDFG's adjacency caches: the
        # tests below mutate ``cdfg.graph`` behind the caches' back.
        in_degree = sum(
            int(data.get("multiplicity", 1))
            for _, _, data in cdfg.graph.in_edges(name, data=True)
        )
        out_degree = cdfg.graph.out_degree(name)
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
    sources = {
        n
        for n in cdfg.operation_names()
        if cdfg.operation(n).optype in (OpType.INPUT, OpType.CONST)
        or cdfg.graph.in_degree(n) == 0
    }
    if sources:
        reachable = set(sources)
        for src in sources:
            reachable |= nx.descendants(cdfg.graph, src)
        unreachable = [n for n in cdfg.operation_names() if n not in reachable]
        if unreachable:
            problems.append(f"operations unreachable from any source: {sorted(unreachable)}")
    return problems


def layered_dag(rng: random.Random, layers: int = 6, width: int = 5) -> CDFG:
    """A random layered DAG whose edges only run from lower to higher layers."""
    g = CDFG("layered")
    grid = [[f"n{level}_{i}" for i in range(rng.randint(1, width))] for level in range(layers)]
    for level in grid:
        for name in level:
            g.add_operation(Operation(name, OpType.ADD))
    for level, names in enumerate(grid[1:], start=1):
        lower = [n for layer in grid[:level] for n in layer]
        for name in names:
            for port, producer in enumerate(rng.sample(lower, min(2, len(lower)))):
                g.add_edge(producer, name, port=port)
    return g


def snapshot(g: CDFG):
    return copy.deepcopy(sorted(g.graph.edges(data=True))), g._version


# --------------------------------------------------------------------------- #
# CDFG.add_edge cycle check
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_add_edge_rejects_exactly_the_cycle_closing_edges(seed):
    rng = random.Random(seed)
    g = layered_dag(rng)
    names = g.operation_names()
    rejected = accepted = 0
    for _ in range(60):
        src, dst = rng.sample(names, 2)
        closes_cycle = nx.has_path(g.graph, dst, src)
        before = snapshot(g)
        try:
            g.add_edge(src, dst, port=rng.choice((None, 0, 1)))
        except CDFGError as exc:
            assert closes_cycle, (src, dst)
            assert str(exc) == f"edge {src!r} -> {dst!r} would create a cycle"
            assert snapshot(g) == before
            rejected += 1
        else:
            assert not closes_cycle, (src, dst)
            accepted += 1
        assert nx.is_directed_acyclic_graph(g.graph)
    assert rejected and accepted


def test_rejected_edge_keeps_multiplicities_and_ports():
    g = CDFG()
    for name in "abc":
        g.add_operation(Operation(name, OpType.ADD))
    g.add_edge("a", "b", port=0)
    g.add_edge("a", "b", port=1)
    g.add_edge("b", "c", port=0)
    before = snapshot(g)
    with pytest.raises(CDFGError, match="would create a cycle"):
        g.add_edge("c", "a", port=1)
    assert snapshot(g) == before
    assert g.edge_multiplicity("a", "b") == 2
    assert g.graph["a"]["b"]["ports"] == [0, 1]


def test_add_edge_checks_only_the_new_edge_on_a_graph_with_an_injected_cycle():
    g = CDFG()
    for name in "abcd":
        g.add_operation(Operation(name, OpType.ADD))
    g.add_edge("a", "b")
    g.graph.add_edge("b", "a", multiplicity=1)  # bypasses the check
    g.add_edge("c", "d")
    with pytest.raises(CDFGError):
        g.add_edge("d", "c")


# --------------------------------------------------------------------------- #
# collect_problems
# --------------------------------------------------------------------------- #
def random_graph(rng: random.Random, cyclic: bool) -> CDFG:
    """Random typed operations wired with random (possibly cyclic) edges.

    Edges go straight into the networkx graph, so the validator sees
    arity errors, predecessors on inputs, successors on outputs, cycles
    and operations only reachable through a cycle.
    """
    g = CDFG("random")
    names = [f"v{i}" for i in range(rng.randint(4, 14))]
    for name in names:
        g.add_operation(Operation(name, rng.choice(_TYPES)))
    for _ in range(rng.randint(0, 2 * len(names))):
        i, j = sorted(rng.sample(range(len(names)), 2))
        src, dst = names[i], names[j]
        if cyclic and rng.random() < 0.2:
            src, dst = dst, src
        g.graph.add_edge(src, dst, multiplicity=rng.randint(1, 2))
    return g


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cyclic", [False, True])
def test_collect_problems_matches_the_networkx_reference(seed, cyclic):
    rng = random.Random(seed)
    for _ in range(20):
        g = random_graph(rng, cyclic)
        assert collect_problems(g) == reference_problems(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_collect_problems_on_layered_dags_with_injected_back_edges(seed):
    rng = random.Random(seed)
    g = layered_dag(rng)
    assert collect_problems(g) == reference_problems(g)
    names = g.operation_names()
    for _ in range(3):
        src, dst = rng.sample(names, 2)
        g.graph.add_edge(src, dst, multiplicity=1)
        assert collect_problems(g) == reference_problems(g)


def test_cycle_through_graph_and_unreachable_operations_are_reported():
    g = CDFG()
    g.add_operation(Operation("x", OpType.INPUT))
    g.add_operation(Operation("o", OpType.OUTPUT))
    g.add_edge("x", "o")
    for name in ("p", "q", "r"):
        g.add_operation(Operation(name, OpType.ADD))
    g.add_edge("p", "q")
    g.add_edge("q", "r")
    g.graph.add_edge("r", "p", multiplicity=1)
    problems = collect_problems(g)
    assert problems == reference_problems(g)
    assert problems[0] == "graph contains a cycle"
    assert problems[-1] == "operations unreachable from any source: ['p', 'q', 'r']"


def test_arity_errors_are_reported_in_operation_order():
    g = CDFG()
    for name in ("a", "b", "c"):
        g.add_operation(Operation(name, OpType.INPUT))
    g.add_operation(Operation("wide", OpType.ADD))
    g.add_operation(Operation("bare", OpType.MUL))
    g.add_operation(Operation("o", OpType.OUTPUT))
    for name in ("a", "b", "c"):
        g.add_edge(name, "wide")
    g.add_edge("a", "o")
    g.add_edge("a", "o")
    problems = collect_problems(g)
    assert problems == reference_problems(g)
    assert problems == [
        "arithmetic operation 'wide' has 3 operands (max 2)",
        "arithmetic operation 'bare' has no operands",
        "output operation 'o' must have exactly one operand, has 2",
    ]
