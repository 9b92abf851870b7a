"""Unit tests for repro.ir.operation."""

import pytest

from repro.ir.operation import COMMUTATIVE_TYPES, Operation, OpType


class TestOpType:
    def test_mnemonic_round_trip(self):
        for optype in OpType:
            assert OpType.from_mnemonic(optype.value) is optype

    def test_from_mnemonic_accepts_names(self):
        assert OpType.from_mnemonic("ADD") is OpType.ADD
        assert OpType.from_mnemonic("mul") is OpType.MUL

    def test_from_mnemonic_rejects_unknown(self):
        with pytest.raises(ValueError):
            OpType.from_mnemonic("bogus")

    def test_from_mnemonic_matches_the_linear_scan_on_every_input(self):
        def scan(text):
            for member in OpType:
                if member.value == text:
                    return member
            try:
                return OpType[text.upper()]
            except KeyError:
                raise ValueError(f"unknown operation mnemonic: {text!r}") from None

        class EqualsPlus:
            def __eq__(self, other):
                return other == "+"

            __hash__ = object.__hash__

            def upper(self):
                return "NOPE"

        inputs = [member.value for member in OpType]
        for member in OpType:
            inputs += [member.name, member.name.lower(), member.name.capitalize()]
        inputs += ["bogus", "", " +", "Add ", 1, 1.5, None, ["+"], b"+", EqualsPlus()]

        def outcome(parse, text):
            try:
                return parse(text)
            except Exception as exc:  # noqa: BLE001 - the type is the result
                return type(exc), str(exc)

        for text in inputs:
            assert outcome(OpType.from_mnemonic, text) == outcome(scan, text), text

    def test_io_classification(self):
        assert OpType.INPUT.is_io
        assert OpType.OUTPUT.is_io
        assert not OpType.ADD.is_io

    def test_arithmetic_classification(self):
        for optype in (OpType.ADD, OpType.SUB, OpType.MUL, OpType.GT, OpType.LT):
            assert optype.is_arithmetic
        assert not OpType.INPUT.is_arithmetic
        assert not OpType.CONST.is_arithmetic

    def test_virtual_classification(self):
        assert OpType.CONST.is_virtual
        assert OpType.NOP.is_virtual
        assert not OpType.MUL.is_virtual

    def test_classes_are_disjoint(self):
        for optype in OpType:
            assert sum([optype.is_io, optype.is_arithmetic, optype.is_virtual]) <= 1

    def test_commutative_types(self):
        assert OpType.ADD in COMMUTATIVE_TYPES
        assert OpType.MUL in COMMUTATIVE_TYPES
        assert OpType.SUB not in COMMUTATIVE_TYPES

    def test_str_is_mnemonic(self):
        assert str(OpType.MUL) == "*"


class TestOperation:
    def test_label_defaults_to_name(self):
        op = Operation("m1", OpType.MUL)
        assert op.label == "m1"

    def test_explicit_label_kept(self):
        op = Operation("m1", OpType.MUL, label="3*x")
        assert op.label == "3*x"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Operation("", OpType.ADD)

    def test_wrong_optype_rejected(self):
        with pytest.raises(TypeError):
            Operation("x", "+")  # type: ignore[arg-type]

    def test_with_attrs_merges(self):
        op = Operation("m1", OpType.MUL, attrs={"width": 16})
        extended = op.with_attrs(signed=True)
        assert extended.attrs == {"width": 16, "signed": True}
        # the original is unchanged (operations are immutable)
        assert op.attrs == {"width": 16}

    def test_classification_properties(self):
        assert Operation("i", OpType.INPUT).is_io
        assert Operation("m", OpType.MUL).is_arithmetic
        assert Operation("c", OpType.CONST).is_virtual

    def test_str_contains_name_and_type(self):
        assert str(Operation("m1", OpType.MUL)) == "m1:*"

    def test_frozen(self):
        op = Operation("m1", OpType.MUL)
        with pytest.raises(AttributeError):
            op.name = "other"  # type: ignore[misc]
