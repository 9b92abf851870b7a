"""The in-tree graph against networkx, kept as a test-only reference.

``CDFG`` used to sit on networkx, and every golden schedule and binding
was pinned with networkx's iteration orders.  These tests hold the
in-tree :class:`repro.ir.graph.DiGraph` to those orders: the
lexicographic topological order, ancestors, and the order of copies and
reversals.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.ir.cdfg import CDFG, CDFGError
from repro.ir.graph import DiGraph, GraphCycleError
from repro.ir.operation import Operation, OpType
from repro.suite.generators import family_cdfg, family_names
from repro.suite.registry import benchmark_names, build_benchmark

SRC = Path(__file__).resolve().parents[2] / "src"


def as_networkx(cdfg: CDFG) -> nx.DiGraph:
    """The CDFG rebuilt as a networkx graph, nodes and edges in its own order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(cdfg.operation_names())
    for src, dst in cdfg.edges():
        graph.add_edge(src, dst, multiplicity=cdfg.edge_multiplicity(src, dst))
    return graph


def random_dag(seed: int) -> CDFG:
    """Operations added in shuffled order, edges between random earlier ranks."""
    rng = random.Random(seed)
    size = rng.randint(2, 40)
    names = [f"v{rng.randrange(10_000):04d}_{i}" for i in range(size)]
    g = CDFG(f"dag{seed}")
    for name in rng.sample(names, size):
        g.add_operation(Operation(name, OpType.ADD))
    for _ in range(rng.randint(0, 3 * size)):
        i, j = sorted(rng.sample(range(size), 2))
        g.add_edge(names[i], names[j])
    return g


def graph_cases():
    for name in benchmark_names():
        yield f"benchmark-{name}", lambda name=name: build_benchmark(name)
    for family in family_names():
        for seed in (0, 1, 7):
            yield f"{family}-{seed}", lambda f=family, s=seed: family_cdfg(f, s)
    for seed in range(15):
        yield f"random-{seed}", lambda s=seed: random_dag(s)


CASES = list(graph_cases())


@pytest.mark.parametrize("build", [c[1] for c in CASES], ids=[c[0] for c in CASES])
class TestAgainstNetworkx:
    def test_topological_order(self, build):
        g = build()
        expected = tuple(nx.lexicographical_topological_sort(as_networkx(g)))
        assert g.topological_order() == expected

    def test_ancestors(self, build):
        g = build()
        reference = as_networkx(g)
        for name in g.operation_names():
            assert g.ancestors(name) == nx.ancestors(reference, name)

    def test_copy_keeps_networkx_adjacency_order(self, build):
        g = build()
        clone = g.copy()
        reference = as_networkx(g).copy()
        assert clone.operation_names() == list(reference.nodes)
        assert clone.edges() == list(reference.edges)
        for name in g.operation_names():
            assert clone.predecessors(name) == tuple(reference.predecessors(name))
            assert clone.successors(name) == tuple(reference.successors(name))

    def test_reversed_keeps_networkx_adjacency_order(self, build):
        g = build()
        rev = g.reversed()
        reference = nx.DiGraph()
        reference.add_nodes_from(g.operation_names())
        reference.add_edges_from((dst, src) for src, dst in g.edges())
        assert rev.operation_names() == list(reference.nodes)
        assert rev.edges() == list(reference.edges)
        for name in g.operation_names():
            assert rev.predecessors(name) == tuple(reference.predecessors(name))
            assert rev.successors(name) == tuple(reference.successors(name))
        for src, dst in g.edges():
            assert rev.edge_multiplicity(dst, src) == g.edge_multiplicity(src, dst)


def test_topological_order_of_a_cycle_is_an_error():
    graph = DiGraph()
    for node in "abc":
        graph.add_node(node)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "b")
    with pytest.raises(GraphCycleError):
        graph.lexicographic_topological_order()
    g = CDFG("cyclic")
    g._graph = graph
    with pytest.raises(CDFGError, match="contains a cycle"):
        g.topological_order()


def test_ancestors_of_an_unknown_operation():
    with pytest.raises(CDFGError):
        CDFG().ancestors("nope")


def test_frozen_graph_rejects_every_mutation_and_its_copy_does_not():
    graph = DiGraph()
    graph.add_node("a")
    graph.add_node("b")
    graph.freeze()
    for mutate in (
        lambda: graph.add_node("c"),
        lambda: graph.add_edge("a", "b"),
        lambda: graph.remove_node("a"),
    ):
        with pytest.raises(TypeError):
            mutate()
    clone = graph.copy()
    clone.add_edge("a", "b")
    assert not graph.has_edge("a", "b") and clone.has_edge("a", "b")


def test_edge_data_is_not_shared_between_copies():
    g = CDFG()
    for name in "ab":
        g.add_operation(Operation(name, OpType.ADD))
    g.add_edge("a", "b", port=0)
    clone = g.copy()
    clone.add_edge("a", "b", port=1)
    assert g.edge_ports("a", "b") == (0,) and g.edge_multiplicity("a", "b") == 1
    assert clone.edge_ports("a", "b") == (0, 1) and clone.edge_multiplicity("a", "b") == 2


# --------------------------------------------------------------------------- #
# CDFG.subgraph order
# --------------------------------------------------------------------------- #
SUBGRAPH_PROBE = """
import json
from repro.ir.cdfg import CDFG
from repro.ir.operation import Operation, OpType

g = CDFG("ten")
for i in range(10):
    g.add_operation(Operation(f"n{i}", OpType.ADD))
for i in range(8):
    g.add_edge(f"n{i}", f"n{i + 1}")
    g.add_edge(f"n{i}", f"n{i + 2}")
sub = g.subgraph(["n7", "n2", "n5", "n0"])
print(json.dumps([sub.operation_names(), sub.edges()]))
"""


def test_subgraph_keeps_insertion_order_under_every_hash_seed():
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", SUBGRAPH_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0] == [["n0", "n2", "n5", "n7"], [["n0", "n2"], ["n5", "n7"]]]


def test_subgraph_keeps_induced_edges_in_order():
    g = random_dag(3)
    keep = g.operation_names()[::3]
    sub = g.subgraph(reversed(keep))
    assert sub.operation_names() == keep
    kept = set(keep)
    assert sub.edges() == [(a, b) for a, b in g.edges() if a in kept and b in kept]


