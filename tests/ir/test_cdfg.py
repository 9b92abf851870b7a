"""Unit tests for repro.ir.cdfg."""

import pytest

from repro.ir.cdfg import CDFG, CDFGError
from repro.ir.operation import Operation, OpType


def build_small() -> CDFG:
    g = CDFG("small")
    g.add_operation(Operation("a", OpType.INPUT))
    g.add_operation(Operation("b", OpType.INPUT))
    g.add_operation(Operation("s", OpType.ADD))
    g.add_operation(Operation("o", OpType.OUTPUT))
    g.add_edge("a", "s", port=0)
    g.add_edge("b", "s", port=1)
    g.add_edge("s", "o")
    return g


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CDFG("")

    def test_duplicate_operation_rejected(self):
        g = CDFG()
        g.add_operation(Operation("a", OpType.INPUT))
        with pytest.raises(CDFGError):
            g.add_operation(Operation("a", OpType.ADD))

    def test_edge_to_unknown_node_rejected(self):
        g = CDFG()
        g.add_operation(Operation("a", OpType.INPUT))
        with pytest.raises(CDFGError):
            g.add_edge("a", "missing")
        with pytest.raises(CDFGError):
            g.add_edge("missing", "a")

    def test_self_loop_rejected(self):
        g = CDFG()
        g.add_operation(Operation("a", OpType.ADD))
        with pytest.raises(CDFGError):
            g.add_edge("a", "a")

    def test_cycle_rejected(self):
        g = CDFG()
        for name in "abc":
            g.add_operation(Operation(name, OpType.ADD))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        with pytest.raises(CDFGError):
            g.add_edge("c", "a")
        # the offending edge must not have been left behind
        assert ("c", "a") not in g.edges()

    def test_duplicate_edge_increases_multiplicity(self):
        g = CDFG()
        g.add_operation(Operation("x", OpType.INPUT))
        g.add_operation(Operation("sq", OpType.MUL))
        g.add_edge("x", "sq", port=0)
        g.add_edge("x", "sq", port=1)
        assert g.edge_multiplicity("x", "sq") == 2
        assert g.num_edges() == 1

    def test_remove_operation(self):
        g = build_small()
        g.remove_operation("o")
        assert "o" not in g
        assert ("s", "o") not in g.edges()

    def test_remove_unknown_operation(self):
        with pytest.raises(CDFGError):
            build_small().remove_operation("nope")


class TestQueries:
    def test_len_and_contains(self):
        g = build_small()
        assert len(g) == 4
        assert "s" in g
        assert "zzz" not in g

    def test_operation_lookup(self):
        g = build_small()
        assert g.operation("s").optype is OpType.ADD
        with pytest.raises(CDFGError):
            g.operation("zzz")

    def test_predecessors_successors(self):
        g = build_small()
        assert sorted(g.predecessors("s")) == ["a", "b"]
        assert g.successors("s") == ("o",)

    def test_sources_and_sinks(self):
        g = build_small()
        assert sorted(g.sources()) == ["a", "b"]
        assert g.sinks() == ["o"]

    def test_topological_order_respects_edges(self):
        g = build_small()
        order = g.topological_order()
        assert order.index("a") < order.index("s") < order.index("o")
        assert tuple(reversed(order)) == g.reverse_topological_order()

    def test_type_histogram(self):
        histogram = build_small().type_histogram()
        assert histogram[OpType.INPUT] == 2
        assert histogram[OpType.ADD] == 1
        assert histogram[OpType.OUTPUT] == 1

    def test_operations_of_type(self):
        assert build_small().operations_of_type(OpType.ADD) == ["s"]

    def test_schedulable_excludes_virtual(self):
        g = build_small()
        g.add_operation(Operation("c", OpType.CONST))
        assert "c" not in g.schedulable_operations()
        assert "s" in g.schedulable_operations()

    def test_arithmetic_operations(self):
        assert build_small().arithmetic_operations() == ["s"]

    def test_summary(self):
        summary = build_small().summary()
        assert summary["operations"] == 4
        assert summary["edges"] == 3
        assert summary["types"]["+"] == 1


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = build_small()
        clone = g.copy()
        clone.remove_operation("o")
        assert "o" in g
        assert "o" not in clone

    def test_copy_keeps_warm_queries_apart_from_the_original(self):
        g = build_small()
        order = g.topological_order()
        assert g.successors("s") == ("o",)
        clone = g.copy()
        assert clone.topological_order() == order
        assert clone.schedulable_operations() == g.schedulable_operations()
        clone.add_operation(Operation("t", OpType.ADD))
        clone.add_edge("s", "t")
        assert clone.successors("s") == ("o", "t")
        assert "t" in clone.topological_order()
        assert g.successors("s") == ("o",)
        assert g.topological_order() == order
        g.remove_operation("o")
        assert clone.successors("s") == ("o", "t")
        assert "o" in clone.topological_order()

    def test_reversed_flips_edges(self):
        g = build_small()
        rev = g.reversed()
        assert ("o", "s") in rev.edges()
        assert ("s", "a") in rev.edges() or ("s", "b") in rev.edges()
        # the original is untouched
        assert ("a", "s") in g.edges()

    def test_reversed_is_cached_and_read_only(self):
        g = build_small()
        rev = g.reversed()
        assert g.reversed() is rev  # cached until the base graph mutates
        with pytest.raises(CDFGError):
            rev.remove_operation("o")
        with pytest.raises(CDFGError):
            rev.add_edge("a", "b")
        # a copy of the view is mutable again
        rev.copy().remove_operation("o")
        # mutating the base graph drops the cached reversal
        g.add_operation(Operation("extra", OpType.ADD))
        assert g.reversed() is not rev

    def test_subgraph(self):
        g = build_small()
        sub = g.subgraph(["a", "b", "s"])
        assert len(sub) == 3
        assert ("a", "s") in sub.edges()
        assert "o" not in sub

    def test_subgraph_unknown_member(self):
        with pytest.raises(CDFGError):
            build_small().subgraph(["a", "zzz"])

    def test_iteration(self):
        g = build_small()
        assert set(iter(g)) == {"a", "b", "s", "o"}
