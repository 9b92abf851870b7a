"""Functional-unit library registry and the paper's default library.

:func:`default_library` returns exactly Table 1 of the reproduced paper:

    ============  =========  =====  =========  =====
    Module        Oprs       Area   Clk-cyc.   P
    ============  =========  =====  =========  =====
    add           {+}        87     1          2.5
    sub           {-}        87     1          2.5
    comp          {>}        8      1          2.5
    ALU           {+,-,>}    97     1          2.5
    Mult (ser.)   {*}        103    4          2.7
    Mult (par.)   {*}        339    2          8.1
    input         imp        16     1          0.2
    output        xpt        16     1          1.7
    ============  =========  =====  =========  =====

The multi-implementation structure (single-function adder vs.
multi-function ALU, serial vs. parallel multiplier) is what lets the
combined synthesis trade speed and power against area.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir.operation import OpType
from .module import FUModule, LibraryError


class FULibrary:
    """A named collection of :class:`FUModule` definitions."""

    def __init__(self, modules: Iterable[FUModule] = (), name: str = "library") -> None:
        self.name = name
        self._modules: Dict[str, FUModule] = {}
        # optype -> candidates(optype); dropped by add() and remove().
        self._candidates: Dict[OpType, Tuple[FUModule, ...]] = {}
        for module in modules:
            self.add(module)

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    def add(self, module: FUModule) -> FUModule:
        """Register a module; names must be unique."""
        if module.name in self._modules:
            raise LibraryError(f"duplicate module name: {module.name!r}")
        self._modules[module.name] = module
        self._candidates.clear()
        return module

    def remove(self, name: str) -> None:
        if name not in self._modules:
            raise LibraryError(f"unknown module: {name!r}")
        del self._modules[name]
        self._candidates.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[FUModule]:
        return iter(self._modules.values())

    def module(self, name: str) -> FUModule:
        """Look up a module by name."""
        try:
            return self._modules[name]
        except KeyError:
            raise LibraryError(f"unknown module: {name!r}") from None

    def modules(self) -> List[FUModule]:
        """All modules, in registration order."""
        return list(self._modules.values())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def candidates(self, optype: OpType) -> Tuple[FUModule, ...]:
        """All modules able to execute ``optype`` (registration order).

        Cached per operation type until the next :meth:`add` or
        :meth:`remove`; the tuple cannot be changed by a caller.
        """
        try:
            return self._candidates[optype]
        except KeyError:
            found = tuple(m for m in self._modules.values() if m.supports(optype))
            self._candidates[optype] = found
            return found

    def supports(self, optype: OpType) -> bool:
        """True if at least one module implements ``optype``."""
        return any(m.supports(optype) for m in self._modules.values())

    def cheapest(self, optype: OpType) -> FUModule:
        """Smallest-area module for ``optype``."""
        candidates = self.candidates(optype)
        if not candidates:
            raise LibraryError(f"no module implements {optype.value!r}")
        return min(candidates, key=lambda m: (m.area, m.latency, m.power))

    def fastest(self, optype: OpType) -> FUModule:
        """Lowest-latency module for ``optype`` (ties broken by area)."""
        candidates = self.candidates(optype)
        if not candidates:
            raise LibraryError(f"no module implements {optype.value!r}")
        return min(candidates, key=lambda m: (m.latency, m.area, m.power))

    def lowest_power(self, optype: OpType) -> FUModule:
        """Lowest per-cycle power module for ``optype``."""
        candidates = self.candidates(optype)
        if not candidates:
            raise LibraryError(f"no module implements {optype.value!r}")
        return min(candidates, key=lambda m: (m.power, m.area, m.latency))

    def restricted(self, names: Iterable[str], name: Optional[str] = None) -> "FULibrary":
        """A new library containing only the listed modules."""
        return FULibrary([self.module(n) for n in names], name=name or f"{self.name}.restricted")

    def describe(self) -> str:
        """Multi-line description of the library (used in reports)."""
        lines = [f"library {self.name!r} ({len(self)} modules)"]
        lines.extend(f"  {module.describe()}" for module in self._modules.values())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FULibrary(name={self.name!r}, modules={list(self._modules)})"


# --------------------------------------------------------------------------- #
# Paper library (Table 1)
# --------------------------------------------------------------------------- #
def default_library() -> FULibrary:
    """The functional-unit library from Table 1 of the paper."""
    return FULibrary(
        [
            FUModule.make("add", {OpType.ADD}, area=87, latency=1, power=2.5),
            FUModule.make("sub", {OpType.SUB}, area=87, latency=1, power=2.5),
            FUModule.make("comp", {OpType.GT}, area=8, latency=1, power=2.5),
            FUModule.make("ALU", {OpType.ADD, OpType.SUB, OpType.GT}, area=97, latency=1, power=2.5),
            FUModule.make("Mult (ser.)", {OpType.MUL}, area=103, latency=4, power=2.7),
            FUModule.make("Mult (par.)", {OpType.MUL}, area=339, latency=2, power=8.1),
            FUModule.make("input", {OpType.INPUT}, area=16, latency=1, power=0.2),
            FUModule.make("output", {OpType.OUTPUT}, area=16, latency=1, power=1.7),
        ],
        name="date03-table1",
    )


def single_implementation_library() -> FULibrary:
    """A reduced library with exactly one module per operation type.

    Used by the library-ablation benchmark: without the ALU and without a
    choice of multiplier implementation, the synthesizer loses the
    speed/power-vs-area trade-off the paper exploits.
    """
    return FULibrary(
        [
            FUModule.make("add", {OpType.ADD}, area=87, latency=1, power=2.5),
            FUModule.make("sub", {OpType.SUB}, area=87, latency=1, power=2.5),
            FUModule.make("comp", {OpType.GT}, area=8, latency=1, power=2.5),
            FUModule.make("Mult (par.)", {OpType.MUL}, area=339, latency=2, power=8.1),
            FUModule.make("input", {OpType.INPUT}, area=16, latency=1, power=0.2),
            FUModule.make("output", {OpType.OUTPUT}, area=16, latency=1, power=1.7),
        ],
        name="single-implementation",
    )


#: Rows of Table 1 as plain tuples (module, ops, area, cycles, power); kept
#: verbatim so the Table-1 benchmark can print exactly what the paper shows.
TABLE1_ROWS = [
    ("add", "{+}", 87, 1, 2.5),
    ("sub", "{-}", 87, 1, 2.5),
    ("comp", "{>}", 8, 1, 2.5),
    ("ALU", "{+,-,>}", 97, 1, 2.5),
    ("Mult (ser.)", "{*}", 103, 4, 2.7),
    ("Mult (par.)", "{*}", 339, 2, 8.1),
    ("input", "imp", 16, 1, 0.2),
    ("output", "xpt", 16, 1, 1.7),
]
