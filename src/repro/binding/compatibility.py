"""Time-extended, power-aware compatibility graph (the paper's ``V1``).

Jou, Kuang & Chen's partial clique partitioning synthesis builds a
*compatibility graph* whose vertices are operations and whose edges
connect pairs of operations that may share one functional unit.  Two
operations are compatible when

1. some library module implements both operation types, and
2. their *time-extended* execution windows allow the two executions to be
   placed without overlapping (one can finish before the other starts
   within their respective windows).

The paper extends this with **power awareness**: the windows are the
power-feasible pasap/palap windows, so a pair is compatible only if a
placement exists that also respects the per-cycle power budget (to the
accuracy of the pasap/palap heuristics).

The graph produced here is consumed two ways:

* directly by the generic clique partitioner (:mod:`repro.binding.clique`)
  for the "bind after scheduling" flows and for the unit tests, and
* as the candidate-pair oracle inside the combined synthesis engine
  (:mod:`repro.synthesis.engine`), which additionally re-validates every
  tentative merge against freshly recomputed windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..ir.cdfg import CDFG
from ..ir.graph import DiGraph
from ..library.library import FULibrary
from ..library.module import FUModule
from ..scheduling.mobility import Window, WindowSet
from .intervals import Interval


@dataclass(frozen=True)
class CompatiblePair:
    """An edge of the compatibility graph.

    Attributes:
        first: Operation name (lexicographically smaller).
        second: Operation name.
        modules: Library modules able to execute both operations.
    """

    first: str
    second: str
    modules: Tuple[FUModule, ...]

    @property
    def best_module(self) -> FUModule:
        """Smallest-area module able to host both operations."""
        return min(self.modules, key=lambda m: (m.area, m.latency, m.power))


@dataclass
class CompatibilityGraph:
    """Power-aware compatibility relation over a set of operations.

    ``graph`` stores each compatible pair as two directed edges, ``a -> b``
    and ``b -> a``, both carrying the :class:`CompatiblePair`, so an
    operation's successors are its neighbours in the order its pairs
    were added.
    """

    cdfg: CDFG
    graph: DiGraph = field(default_factory=DiGraph)

    def add_operation(self, op_name: str) -> None:
        self.graph.add_node(op_name)

    def add_pair(self, pair: CompatiblePair) -> None:
        for name in (pair.first, pair.second):
            self.graph.add_node(name)
        self.graph.add_edge(pair.first, pair.second, pair=pair)
        self.graph.add_edge(pair.second, pair.first, pair=pair)

    def operations(self) -> List[str]:
        return list(self.graph.nodes)

    def pairs(self) -> List[CompatiblePair]:
        """Every pair once, ordered by its earlier-added operation, then by insertion."""
        done = set()
        pairs = []
        for name, neighbours in self.graph.succ.items():
            pairs.extend(data["pair"] for other, data in neighbours.items() if other not in done)
            done.add(name)
        return pairs

    def compatible(self, a: str, b: str) -> bool:
        return self.graph.has_edge(a, b)

    def pair(self, a: str, b: str) -> Optional[CompatiblePair]:
        edge = self.graph.succ.get(a, {}).get(b)
        return None if edge is None else edge["pair"]

    def neighbours(self, op_name: str) -> List[str]:
        return list(self.graph.succ[op_name])

    def degree(self, op_name: str) -> int:
        return len(self.graph.succ[op_name])

    def density(self) -> float:
        """Edges present divided by edges possible (0 for trivial graphs)."""
        n = len(self.graph)
        if n < 2:
            return 0.0
        return self.graph.number_of_edges() / (n * (n - 1))

    def is_clique(self, members: Iterable[str]) -> bool:
        members = list(members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not self.compatible(a, b):
                    return False
        return True

    def common_modules(self, members: Iterable[str]) -> List[FUModule]:
        """Modules able to execute *every* member operation."""
        members = list(members)
        if len(members) < 2:
            return []
        common: Optional[FrozenSet[str]] = None
        module_by_name: Dict[str, FUModule] = {}
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pair = self.pair(a, b)
                if pair is None:
                    return []
                names = frozenset(m.name for m in pair.modules)
                for m in pair.modules:
                    module_by_name[m.name] = m
                common = names if common is None else (common & names)
        if not common:
            return []
        return [module_by_name[name] for name in sorted(common)]


def windows_allow_sharing(
    window_a: Window,
    delay_a: int,
    window_b: Window,
    delay_b: int,
) -> bool:
    """True if two operations can execute sequentially inside their windows.

    Either ``a`` can finish before ``b`` starts (a placed at its earliest,
    b at its latest) or the other way round.  This is the "time-extended"
    test: it uses the full windows rather than one fixed schedule.
    """
    a_before_b = window_a.earliest + delay_a <= window_b.latest
    b_before_a = window_b.earliest + delay_b <= window_a.latest
    return a_before_b or b_before_a


def shared_modules(
    library: FULibrary,
    optype_a,
    optype_b,
) -> List[FUModule]:
    """Modules implementing both operation types."""
    return [
        module
        for module in library.modules()
        if module.supports(optype_a) and module.supports(optype_b)
    ]


def build_compatibility_graph(
    cdfg: CDFG,
    library: FULibrary,
    windows: WindowSet,
    delays: Mapping[str, int],
    operations: Optional[Iterable[str]] = None,
) -> CompatibilityGraph:
    """Construct the power-aware compatibility graph ``V1``.

    Args:
        cdfg: Graph under synthesis.
        library: Technology library.
        windows: Power-feasible pasap/palap windows (already reflect the
            power budget and any locked operations).
        delays: Per-operation delay under the current module selection.
        operations: Subset of operations to include (default: every
            non-virtual operation).

    Returns:
        The compatibility graph over the requested operations.
    """
    if operations is None:
        operations = cdfg.schedulable_operations()
    operations = [n for n in operations if not cdfg.operation(n).is_virtual]

    compatibility = CompatibilityGraph(cdfg=cdfg)
    for name in operations:
        compatibility.add_operation(name)

    for i, a in enumerate(operations):
        for b in operations[i + 1:]:
            type_a = cdfg.operation(a).optype
            type_b = cdfg.operation(b).optype
            modules = shared_modules(library, type_a, type_b)
            if not modules:
                continue
            if a not in windows or b not in windows:
                continue
            if not windows_allow_sharing(windows[a], delays[a], windows[b], delays[b]):
                continue
            first, second = sorted((a, b))
            compatibility.add_pair(CompatiblePair(first, second, tuple(modules)))
    return compatibility


def instance_accepts_operation(
    op_name: str,
    op_window: Window,
    op_delay: int,
    busy: List[Interval],
) -> Optional[int]:
    """Earliest start in ``op_window`` avoiding an instance's busy intervals.

    Returns the start cycle, or ``None`` when no start inside the window
    avoids every busy interval.
    """
    for start in range(op_window.earliest, op_window.latest + 1):
        candidate = Interval(start, start + op_delay)
        if not any(candidate.overlaps(existing) for existing in busy):
            return start
    return None
