"""Operation model for the control/data-flow graph (CDFG).

The scheduling and binding algorithms in this package manipulate
*operations*: typed nodes of a data-flow graph.  An operation carries an
:class:`OpType` (addition, multiplication, comparison, I/O, ...) which
determines the set of functional-unit modules from the library that can
implement it, and therefore its possible delay, power and area.

The operation set mirrors what the DATE 2003 paper's functional-unit
library (Table 1) supports: ``+``, ``-``, ``>``, ``*`` plus explicit input
and output operations.  A few additional types (``<``, shifts, constants,
no-ops for the virtual source/sink) are provided so the standard HLS
benchmark graphs can be expressed naturally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Mapping


class OpType(enum.Enum):
    """Kinds of operations that may appear in a CDFG.

    The enum *value* is the conventional textual mnemonic used in data-flow
    graph dumps and in the functional-unit library.
    """

    ADD = "+"
    SUB = "-"
    MUL = "*"
    GT = ">"
    LT = "<"
    SHL = "<<"
    SHR = ">>"
    INPUT = "in"
    OUTPUT = "out"
    CONST = "const"
    NOP = "nop"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_io(self) -> bool:
        """True for input/output operations."""
        return self in (OpType.INPUT, OpType.OUTPUT)

    @property
    def is_arithmetic(self) -> bool:
        """True for operations executed on arithmetic functional units."""
        return self in (
            OpType.ADD,
            OpType.SUB,
            OpType.MUL,
            OpType.GT,
            OpType.LT,
            OpType.SHL,
            OpType.SHR,
        )

    @property
    def is_virtual(self) -> bool:
        """True for pseudo operations (constants and no-ops).

        Virtual operations take no functional unit, zero cycles and zero
        power.  They exist so graphs can carry constants and structural
        source/sink nodes without perturbing scheduling.
        """
        return self in (OpType.CONST, OpType.NOP)

    @classmethod
    def from_mnemonic(cls, text: str) -> "OpType":
        """Parse an operation type from its textual mnemonic.

        Accepts both the enum value (``"+"``) and the enum name
        (``"ADD"``, case-insensitive).

        Raises:
            ValueError: if the mnemonic is unknown.
        """
        if type(text) is str:
            member = _BY_MNEMONIC.get(text)
            if member is not None:
                return member
        else:
            # anything but a plain string compares by its own __eq__
            for member in cls:
                if member.value == text:
                    return member
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown operation mnemonic: {text!r}") from None


#: Every operation type by its mnemonic (what :meth:`OpType.from_mnemonic`
#: tries before the name).
_BY_MNEMONIC = {member.value: member for member in OpType}

#: Operation types that commutative-input optimizations may reorder.
COMMUTATIVE_TYPES = frozenset({OpType.ADD, OpType.MUL})


@dataclass(frozen=True)
class Operation:
    """A single operation (node) of a CDFG.

    Attributes:
        name: Unique identifier within its CDFG.
        optype: The operation kind.
        label: Optional human-readable label (defaults to ``name``).
        attrs: Free-form metadata (bit-width, source expression, ...).
    """

    name: str
    optype: OpType
    label: str = ""
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operation name must be a non-empty string")
        if not isinstance(self.optype, OpType):
            raise TypeError("optype must be an OpType")
        if not self.label:
            object.__setattr__(self, "label", self.name)

    @property
    def is_io(self) -> bool:
        return self.optype.is_io

    @property
    def is_arithmetic(self) -> bool:
        return self.optype.is_arithmetic

    @property
    def is_virtual(self) -> bool:
        return self.optype.is_virtual

    def with_attrs(self, **attrs: Any) -> "Operation":
        """Return a copy of this operation with additional attributes."""
        merged = dict(self.attrs)
        merged.update(attrs)
        return replace(self, attrs=merged)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}:{self.optype.value}"
