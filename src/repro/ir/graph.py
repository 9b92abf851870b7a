"""A minimal insertion-ordered directed graph (stdlib only).

:class:`DiGraph` is the storage behind :class:`~repro.ir.cdfg.CDFG`.
It is three plain dicts keyed by node, all in node insertion order:

* ``nodes`` maps a node to its data (any object; a CDFG stores the
  :class:`~repro.ir.operation.Operation` itself),
* ``succ[u][v]`` and ``pred[v][u]`` are the *same* edge-data dict, in
  the order the edges were added.

Every iteration order is deterministic and independent of
``PYTHONHASHSEED``: nodes in insertion order, edges by source node and
then by insertion, and the derived graphs (:meth:`DiGraph.copy`,
:meth:`DiGraph.reversed`, :meth:`DiGraph.subgraph`) rebuild their edges
in exactly that order.  These are the orders the package's schedules and
bindings were pinned with.  :meth:`DiGraph.freeze` makes a graph
read-only, for graphs handed out as shared cached views.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Set, Tuple

EdgeData = Dict[str, Any]
Adjacency = Dict[Hashable, Dict[Hashable, EdgeData]]


class GraphCycleError(ValueError):
    """Raised when a topological order is requested for a cyclic graph."""


class DiGraph:
    """Directed graph over hashable nodes with per-node and per-edge data."""

    __slots__ = ("nodes", "succ", "pred", "frozen")

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, Any] = {}
        self.succ: Adjacency = {}
        self.pred: Adjacency = {}
        self.frozen = False

    def freeze(self) -> "DiGraph":
        """Make the graph read-only (mutators raise ``TypeError``); returns it."""
        self.frozen = True
        return self

    def _check_mutable(self) -> None:
        if self.frozen:
            raise TypeError("a frozen graph cannot be modified; take a .copy() first")

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_node(self, node: Hashable, data: Any = None) -> None:
        """Add ``node`` (or replace an existing node's data, keeping its edges)."""
        self._check_mutable()
        if node not in self.nodes:
            self.succ[node] = {}
            self.pred[node] = {}
        self.nodes[node] = data

    def add_edge(self, u: Hashable, v: Hashable, **data: Any) -> EdgeData:
        """Add ``u -> v`` (or update its data) and return its data dict.

        Both endpoints must already be nodes.  No acyclicity check is
        made here; :meth:`repro.ir.cdfg.CDFG.add_edge` makes it.
        """
        self._check_mutable()
        if u not in self.nodes or v not in self.nodes:
            raise KeyError(f"edge {u!r} -> {v!r} names a missing node")
        edge = self.succ[u].get(v)
        if edge is None:
            edge = self.succ[u][v] = self.pred[v][u] = {}
        edge.update(data)
        return edge

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and every edge touching it."""
        self._check_mutable()
        del self.nodes[node]
        for v in self.succ.pop(node):
            del self.pred[v][node]
        for u in self.pred.pop(node):
            del self.succ[u][node]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self.succ.get(u, ())

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, EdgeData]]:
        """``(u, v, data)`` for every edge, by source node then insertion."""
        return ((u, v, data) for u, nbrs in self.succ.items() for v, data in nbrs.items())

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ.values()))

    def ancestors(self, node: Hashable) -> Set[Hashable]:
        """Every node with a path to ``node`` (``node`` itself excluded)."""
        pred = self.pred
        seen: Set[Hashable] = set()
        stack = [node]
        while stack:
            for u in pred[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def lexicographic_topological_order(self) -> List[Hashable]:
        """Kahn's algorithm, always releasing the smallest ready node first.

        The result is the unique topological order that is smallest
        position by position, so it depends on the nodes and edges only,
        never on insertion order.

        Raises:
            GraphCycleError: if the graph has a cycle.
        """
        succ = self.succ
        in_degree = {v: len(p) for v, p in self.pred.items()}
        ready = [v for v, degree in in_degree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[Hashable] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in succ[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self.nodes):
            raise GraphCycleError("graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # Derived graphs (always mutable, never views)
    # ------------------------------------------------------------------ #
    def _rebuilt(
        self,
        nodes: Iterable[Hashable],
        edges: Iterable[Tuple[Hashable, Hashable, EdgeData]],
    ) -> "DiGraph":
        """A new graph over ``nodes`` (in order) with copies of ``edges``."""
        graph = DiGraph()
        source = self.nodes
        for node in nodes:
            graph.nodes[node] = source[node]
            graph.succ[node] = {}
            graph.pred[node] = {}
        succ, pred = graph.succ, graph.pred
        for u, v, data in edges:
            succ[u][v] = pred[v][u] = dict(data)
        return graph

    def copy(self) -> "DiGraph":
        """Same nodes and edges; node data shared, edge data dicts copied.

        Each node's predecessors come out ordered by node insertion
        order, whatever order their edges were added in.
        """
        return self._rebuilt(self.nodes, self.edges())

    def reversed(self) -> "DiGraph":
        """Every edge flipped, rebuilt in this graph's edge order."""
        return self._rebuilt(self.nodes, ((v, u, data) for u, v, data in self.edges()))

    def subgraph(self, nodes: Iterable[Hashable]) -> "DiGraph":
        """Induced subgraph over ``nodes``, kept in this graph's insertion order."""
        keep = set(nodes)
        return self._rebuilt(
            (node for node in self.nodes if node in keep),
            ((u, v, data) for u, v, data in self.edges() if u in keep and v in keep),
        )
