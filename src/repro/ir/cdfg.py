"""Control/data-flow graph (CDFG) container.

The :class:`CDFG` wraps an in-tree :class:`~repro.ir.graph.DiGraph` whose
nodes are operation names and whose edges are data dependences.  It is
the single intermediate representation shared by all schedulers, the
compatibility graph construction, the binder and the power analysis.

Design notes
------------
* Nodes are addressed by their *name* (a string); the full
  :class:`~repro.ir.operation.Operation` object is the node's data.
  This keeps lookups one dict access and serialization trivial.
* Edges carry a ``multiplicity`` (how many values flow along them) and,
  for values added with a port, the consumer input ``ports`` each value
  feeds (0 = left, 1 = right); see :meth:`CDFG.edge_ports`.
* The graph must remain a DAG.  :meth:`CDFG.add_edge` rejects an edge
  that would close a cycle with a search from its consumer over
  successors; the search is skipped when the consumer has no successors
  yet, which is always the case when a graph is built producers-first
  (the builders and the benchmark suite), so a bulk build costs time
  linear in its size.  :func:`repro.ir.validate.validate_cdfg` re-checks
  acyclicity together with the other structural rules.

Caching and invalidation contract
---------------------------------
Scheduler inner loops call :meth:`CDFG.predecessors`,
:meth:`CDFG.successors`, :meth:`CDFG.operation` and
:meth:`CDFG.topological_order` millions of times, so these queries are
memoized on the instance:

* adjacency is cached as immutable **tuples** (one per operation),
* the (lexicographic) topological order and its reverse are computed
  once and reused,
* :meth:`CDFG.reversed` returns a **cached, shared** reversed graph
  whose storage is frozen: its mutators raise :class:`CDFGError`,
* the schedulable operations and the set of virtual operations are
  computed once.

Every structural mutation (:meth:`add_operation`, :meth:`add_edge`,
:meth:`remove_operation`) drops all caches, so a mutated graph never
serves stale answers.  The storage itself is private; nothing outside
:mod:`repro.ir` reaches past these methods.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .graph import DiGraph, GraphCycleError
from .operation import Operation, OpType


class CDFGError(Exception):
    """Raised for structural errors in a CDFG."""


class CDFG:
    """A data-flow graph of named, typed operations.

    Args:
        name: Name of the graph (benchmark name, function name, ...).

    Example:
        >>> g = CDFG("tiny")
        >>> g.add_operation(Operation("a", OpType.INPUT))
        >>> g.add_operation(Operation("b", OpType.INPUT))
        >>> g.add_operation(Operation("s", OpType.ADD))
        >>> g.add_edge("a", "s", port=0)
        >>> g.add_edge("b", "s", port=1)
        >>> sorted(g.predecessors("s"))
        ['a', 'b']
    """

    def __init__(self, name: str = "cdfg") -> None:
        if not name:
            raise ValueError("CDFG name must be non-empty")
        self.name = name
        self._graph = DiGraph()
        self._init_caches()

    def _init_caches(self) -> None:
        self._pred_cache: Dict[str, Tuple[str, ...]] = {}
        self._succ_cache: Dict[str, Tuple[str, ...]] = {}
        self._topo_cache: Optional[Tuple[str, ...]] = None
        self._rtopo_cache: Optional[Tuple[str, ...]] = None
        self._topo_pos_cache: Optional[Dict[str, int]] = None
        self._reversed_cache: Optional["CDFG"] = None
        self._schedulable_cache: Optional[Tuple[str, ...]] = None
        self._virtual_cache: Optional[FrozenSet[str]] = None
        #: Bumped on every structural mutation; lets external memoizers
        #: (e.g. ValidatedDelayMap) detect that the graph changed.
        self._version = 0

    def _invalidate(self) -> None:
        """Drop all memoized queries after a structural mutation."""
        self._pred_cache.clear()
        self._succ_cache.clear()
        self._topo_cache = None
        self._rtopo_cache = None
        self._topo_pos_cache = None
        self._reversed_cache = None
        self._schedulable_cache = None
        self._virtual_cache = None
        self._version += 1

    def _check_mutable(self) -> None:
        # Frozen storage marks a shared cached view (reversed()); mutating
        # it would corrupt its owner's caches.
        if self._graph.frozen:
            raise CDFGError(
                f"{self.name!r} is a cached read-only view (a reversed graph); "
                "mutate the original graph, or take a .copy() first"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_operation(self, op: Operation) -> Operation:
        """Add an operation node.

        Raises:
            CDFGError: if an operation with the same name already exists.
        """
        self._check_mutable()
        if op.name in self._graph:
            raise CDFGError(f"duplicate operation name: {op.name!r}")
        self._graph.add_node(op.name, op)
        self._invalidate()
        return op

    def add_edge(self, src: str, dst: str, port: Optional[int] = None) -> None:
        """Add a data dependence ``src -> dst``.

        The cycle check searches forward from ``dst`` and rejects the
        edge if ``src`` is reachable, so its cost is the size of ``dst``'s
        descendant cone.  A ``dst`` with no successors (every edge added
        in producers-first order) costs nothing, and a repeated edge only
        bumps its multiplicity.  A rejected edge leaves the graph
        untouched.

        Args:
            src: Producer operation name (must exist).
            dst: Consumer operation name (must exist).
            port: Optional consumer input port index.

        Raises:
            CDFGError: if either endpoint is missing, the edge is a
                self-loop, or the edge would create a cycle.
        """
        self._check_mutable()
        if src not in self._graph:
            raise CDFGError(f"unknown source operation: {src!r}")
        if dst not in self._graph:
            raise CDFGError(f"unknown destination operation: {dst!r}")
        if src == dst:
            raise CDFGError(f"self-loop on operation {src!r} is not allowed")
        edge = self._graph.succ[src].get(dst)
        if edge is not None:
            # Duplicate data edges are legal in expressions like ``x*x``;
            # record multiplicity so interconnect estimation stays correct.
            edge["multiplicity"] += 1
        elif self._reaches(dst, src):
            raise CDFGError(f"edge {src!r} -> {dst!r} would create a cycle")
        else:
            edge = self._graph.add_edge(src, dst, multiplicity=1)
        if port is not None:
            edge["ports"] = edge.get("ports", ()) + (port,)
        self._invalidate()

    def _reaches(self, start: str, target: str) -> bool:
        """True if ``target`` is reachable from ``start`` along edges."""
        succ = self._graph.succ
        if not succ[start]:
            return False
        seen = {start}
        stack = [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def remove_operation(self, name: str) -> None:
        """Remove an operation and all incident edges."""
        self._check_mutable()
        if name not in self._graph:
            raise CDFGError(f"unknown operation: {name!r}")
        self._graph.remove_node(name)
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def __len__(self) -> int:
        return len(self._graph)

    def __iter__(self) -> Iterator[str]:
        return iter(self._graph.nodes)

    def operation(self, name: str) -> Operation:
        """Return the :class:`Operation` stored under ``name``."""
        try:
            return self._graph.nodes[name]
        except KeyError:
            raise CDFGError(f"unknown operation: {name!r}") from None

    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._graph.nodes.values())

    def operation_names(self) -> List[str]:
        """All operation names, in insertion order."""
        return list(self._graph.nodes)

    def edges(self) -> List[Tuple[str, str]]:
        """All data edges as (producer, consumer) pairs."""
        return [(src, dst) for src, dst, _ in self._graph.edges()]

    def edge_multiplicity(self, src: str, dst: str) -> int:
        """Number of distinct data values flowing along ``src -> dst``."""
        return int(self._graph.succ[src][dst].get("multiplicity", 1))

    def edge_ports(self, src: str, dst: str) -> Tuple[int, ...]:
        """Consumer input ports fed along ``src -> dst``, in the order added.

        Empty when the edge was added without a port.
        """
        return self._graph.succ[src][dst].get("ports", ())

    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def predecessors(self, name: str) -> Tuple[str, ...]:
        """Direct data predecessors (producers feeding ``name``).

        Returns a cached, immutable tuple — do not rely on list identity.
        """
        try:
            return self._pred_cache[name]
        except KeyError:
            value = tuple(self._graph.pred[name])
            self._pred_cache[name] = value
            return value

    def successors(self, name: str) -> Tuple[str, ...]:
        """Direct data successors (consumers of ``name``'s result).

        Returns a cached, immutable tuple — do not rely on list identity.
        """
        try:
            return self._succ_cache[name]
        except KeyError:
            value = tuple(self._graph.succ[name])
            self._succ_cache[name] = value
            return value

    def sources(self) -> List[str]:
        """Operations with no predecessors."""
        return [n for n, preds in self._graph.pred.items() if not preds]

    def sinks(self) -> List[str]:
        """Operations with no successors."""
        return [n for n, succs in self._graph.succ.items() if not succs]

    def ancestors(self, name: str) -> Set[str]:
        """Every operation with a data path into ``name`` (itself excluded)."""
        if name not in self._graph:
            raise CDFGError(f"unknown operation: {name!r}")
        return self._graph.ancestors(name)

    def topological_order(self) -> Tuple[str, ...]:
        """Operation names in a topological order (stable for a fixed graph).

        The order is lexicographic: a heap-ordered Kahn pass that always
        releases the smallest ready name, so it depends only on the
        names and edges.  It is computed once and cached until the graph
        mutates.
        """
        if self._topo_cache is None:
            try:
                self._topo_cache = tuple(self._graph.lexicographic_topological_order())
            except GraphCycleError:
                raise CDFGError(f"{self.name!r} contains a cycle") from None
        return self._topo_cache

    def reverse_topological_order(self) -> Tuple[str, ...]:
        if self._rtopo_cache is None:
            self._rtopo_cache = tuple(reversed(self.topological_order()))
        return self._rtopo_cache

    def topological_positions(self) -> Dict[str, int]:
        """Operation name → index in :meth:`topological_order` (cached).

        Lets incremental algorithms order a worklist by topological rank
        without re-scanning the order; treat the returned dict as
        read-only.
        """
        if self._topo_pos_cache is None:
            self._topo_pos_cache = {
                name: index for index, name in enumerate(self.topological_order())
            }
        return self._topo_pos_cache

    def operations_of_type(self, optype: OpType) -> List[str]:
        """Names of all operations of a given type."""
        return [n for n in self._graph.nodes if self.operation(n).optype is optype]

    def type_histogram(self) -> Dict[OpType, int]:
        """Count of operations per type."""
        histogram: Dict[OpType, int] = {}
        for op in self.operations():
            histogram[op.optype] = histogram.get(op.optype, 0) + 1
        return histogram

    def arithmetic_operations(self) -> List[str]:
        """Names of operations that require an arithmetic functional unit."""
        return [n for n in self._graph.nodes if self.operation(n).is_arithmetic]

    def schedulable_operations(self) -> List[str]:
        """Operations the scheduler must place (everything but virtual ops)."""
        if self._schedulable_cache is None:
            self._schedulable_cache = tuple(
                n for n in self._graph.nodes if not self.operation(n).is_virtual
            )
        return list(self._schedulable_cache)

    def virtual_operations(self) -> FrozenSet[str]:
        """Names of the virtual operations, as a cached frozen set.

        Lets scheduler inner loops test "is virtual" with one set lookup
        instead of an operation fetch and an attribute read.
        """
        if self._virtual_cache is None:
            self._virtual_cache = frozenset(
                n for n, op in self._graph.nodes.items() if op.is_virtual
            )
        return self._virtual_cache

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "CDFG":
        """Deep-ish copy (operations are immutable and shared).

        The clone starts with this graph's memoized structural queries
        (adjacency, topological order), which hold for the same
        structure; its own mutations drop them as usual.
        """
        clone = CDFG(name or self.name)
        clone._graph = self._graph.copy()
        clone._pred_cache = dict(self._pred_cache)
        clone._succ_cache = dict(self._succ_cache)
        clone._topo_cache = self._topo_cache
        clone._rtopo_cache = self._rtopo_cache
        clone._schedulable_cache = self._schedulable_cache
        clone._virtual_cache = self._virtual_cache
        return clone

    def reversed(self) -> "CDFG":
        """A graph with every edge direction flipped (used by ALAP/palap).

        The reversed graph is built once and **cached** (it shares the
        immutable :class:`Operation` objects with this graph), so it is
        read-only: its mutators raise :class:`CDFGError` (take a
        ``.copy()`` to get a mutable reversal).  palap calls this once
        per window recomputation; rebuilding the reversal every time
        used to dominate the engine's runtime.
        """
        if self._reversed_cache is None:
            clone = CDFG(f"{self.name}.rev")
            clone._graph = self._graph.reversed().freeze()
            self._reversed_cache = clone
        return self._reversed_cache

    def subgraph(self, names: Iterable[str], name: Optional[str] = None) -> "CDFG":
        """Induced subgraph over ``names`` (copy, not a view).

        Operations keep this graph's insertion order, whatever order
        ``names`` lists them in.
        """
        names = list(names)
        missing = [n for n in names if n not in self._graph]
        if missing:
            raise CDFGError(f"unknown operations in subgraph request: {missing}")
        clone = CDFG(name or f"{self.name}.sub")
        clone._graph = self._graph.subgraph(names)
        return clone

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """A small dictionary describing the graph (used in reports)."""
        histogram = {t.value: c for t, c in sorted(self.type_histogram().items(), key=lambda kv: kv[0].value)}
        return {
            "name": self.name,
            "operations": len(self),
            "edges": self.num_edges(),
            "types": histogram,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CDFG(name={self.name!r}, ops={len(self)}, edges={self.num_edges()})"
