"""Unit tests for repro.ir.builder."""

import pytest

from repro.ir.builder import CDFGBuilder
from repro.ir.operation import OpType
from repro.ir.validate import ValidationError


class TestBuilder:
    def test_basic_expression(self):
        b = CDFGBuilder("expr")
        x = b.input("x")
        y = b.input("y")
        s = b.add("s", x, y)
        out = b.output("o", s)
        g = b.build()
        assert len(g) == 4
        assert g.operation(s).optype is OpType.ADD
        assert g.predecessors(out) == (s,)

    def test_all_typed_helpers(self):
        b = CDFGBuilder()
        x = b.input()
        y = b.input()
        ops = [
            b.add(None, x, y),
            b.sub(None, x, y),
            b.mul(None, x, y),
            b.gt(None, x, y),
            b.lt(None, x, y),
        ]
        for op in ops:
            b.output(None, op)
        g = b.build()
        types = g.type_histogram()
        assert types[OpType.ADD] == 1
        assert types[OpType.SUB] == 1
        assert types[OpType.MUL] == 1
        assert types[OpType.GT] == 1
        assert types[OpType.LT] == 1
        assert types[OpType.OUTPUT] == 5

    def test_auto_names_are_unique(self):
        b = CDFGBuilder()
        names = {b.input() for _ in range(10)}
        assert len(names) == 10

    def test_const_value_stored_in_attrs(self):
        b = CDFGBuilder()
        c = b.const("three", value=3)
        assert b.cdfg.operation(c).attrs["value"] == 3

    def test_ports_follow_argument_order(self):
        b = CDFGBuilder()
        x = b.input("x")
        y = b.input("y")
        s = b.sub("s", x, y)
        g = b.cdfg
        assert g.edge_ports(x, s) == (0,)
        assert g.edge_ports(y, s) == (1,)

    def test_build_validates_by_default(self):
        b = CDFGBuilder()
        x = b.input("x")
        # An output with no operand is invalid.
        b.op(OpType.OUTPUT, "bad_out", ())
        _ = x
        with pytest.raises(ValidationError):
            b.build()

    def test_build_can_skip_validation(self):
        b = CDFGBuilder()
        b.op(OpType.OUTPUT, "bad_out", ())
        g = b.build(validate=False)
        assert "bad_out" in g

    def test_generated_and_explicit_names_coexist(self):
        b = CDFGBuilder()
        b.input("in1")           # explicit name matching the generator pattern
        generated = b.input()    # must not collide
        assert generated != "in1"
