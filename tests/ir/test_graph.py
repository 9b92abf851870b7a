"""The in-tree graph against networkx, kept as a test-only reference.

``CDFG`` and ``CompatibilityGraph`` used to sit on networkx, and every
golden schedule and binding was pinned with networkx's iteration orders.
These tests hold the in-tree :class:`repro.ir.graph.DiGraph` to those
orders: the lexicographic topological order, ancestors, the order of
copies and reversals, and the compatibility graph's pair and neighbour
order.
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

from repro.binding.compatibility import (
    CompatibilityGraph,
    CompatiblePair,
    build_compatibility_graph,
)
from repro.ir.cdfg import CDFG, CDFGError
from repro.ir.graph import DiGraph, GraphCycleError
from repro.ir.operation import Operation, OpType
from repro.library import default_library
from repro.library.selection import MinPowerSelection, selection_delays, selection_powers
from repro.scheduling.constraints import PowerConstraint, TimeConstraint
from repro.scheduling.mobility import compute_windows
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


# --------------------------------------------------------------------------- #
# CompatibilityGraph order
# --------------------------------------------------------------------------- #
def recorded_compatibility(cdfg: CDFG, latency: int, power: float, monkeypatch):
    """Build the compatibility graph and replay its calls into an ``nx.Graph``."""
    reference = nx.Graph()
    add_operation, add_pair = CompatibilityGraph.add_operation, CompatibilityGraph.add_pair

    def record_operation(self, name):
        reference.add_node(name)
        add_operation(self, name)

    def record_pair(self, pair):
        reference.add_edge(pair.first, pair.second, pair=pair)
        add_pair(self, pair)

    monkeypatch.setattr(CompatibilityGraph, "add_operation", record_operation)
    monkeypatch.setattr(CompatibilityGraph, "add_pair", record_pair)
    library = default_library()
    selection = MinPowerSelection().select(cdfg, library)
    delays = selection_delays(selection, cdfg)
    windows = compute_windows(
        cdfg, delays, selection_powers(selection, cdfg),
        PowerConstraint(power), TimeConstraint(latency),
    )
    return build_compatibility_graph(cdfg, library, windows, delays), reference


@pytest.mark.parametrize(
    "name,latency,power",
    [("hal", 17, 12.0), ("hal", 28, 12.0), ("cosine", 19, 40.0), ("elliptic", 22, 30.0)],
)
def test_compatibility_graph_keeps_networkx_order(name, latency, power, monkeypatch):
    compat, reference = recorded_compatibility(build_benchmark(name), latency, power, monkeypatch)
    assert compat.pairs()
    assert compat.operations() == list(reference.nodes)
    assert compat.pairs() == [data["pair"] for _, _, data in reference.edges(data=True)]
    for op in compat.operations():
        assert compat.neighbours(op) == list(reference.neighbors(op))
        assert compat.degree(op) == reference.degree(op)
    assert compat.density() == nx.density(reference)


def test_compatibility_graph_random_insertions_keep_networkx_order():
    rng = random.Random(5)
    names = [f"op{i}" for i in range(12)]
    compat = CompatibilityGraph(cdfg=CDFG())
    reference = nx.Graph()
    for name in rng.sample(names, 6):
        compat.add_operation(name)
        reference.add_node(name)
    for _ in range(30):
        first, second = sorted(rng.sample(names, 2))
        pair = CompatiblePair(first, second, ())
        compat.add_pair(pair)
        reference.add_edge(first, second, pair=pair)
    assert compat.operations() == list(reference.nodes)
    assert compat.pairs() == [data["pair"] for _, _, data in reference.edges(data=True)]
    for name in compat.operations():
        assert compat.neighbours(name) == list(reference.neighbors(name))
        for other in names:
            assert compat.compatible(name, other) == reference.has_edge(name, other)
            expected = reference[name][other]["pair"] if reference.has_edge(name, other) else None
            assert compat.pair(name, other) == expected
