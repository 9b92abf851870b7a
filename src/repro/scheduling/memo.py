"""A bounded in-process memo of power-oblivious start times.

Three of the classic baselines never read the power budget: list
scheduling, force-directed scheduling, and the first step of the
two-step baseline (force-directed scheduling again).  A Figure-2 sweep
runs them at every power level of a fixed (graph, T), so without a memo
it computes the same schedule once per level and per strategy.

Each entry maps a *signature* of what is actually scheduled to the
start-time dictionaries one computation produced.  The signature is the
graph in topological order, one ``(name, optype, delay, module name,
successors)`` tuple per operation, plus the step name and the latency
bound.  It is the exact tuple, not a hash of it, so two different inputs
can never share an entry; and it never involves a task spec, so a graph
handed in directly (a ``cdfg=`` override) is keyed by its own content.

The memo holds at most :data:`MEMO_ENTRIES` entries, least recently used
first out.  It lives in the process: forked workers inherit what the
parent had, and nothing is shared back.  It is never part of a content
address, and hits hand out fresh copies, so a caller mutating what it
got cannot change what a later caller gets.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from ..ir.cdfg import CDFG
from ..library.module import FUModule

#: Most entries the memo keeps.  A Figure-2 sweep needs two per
#: (graph, T) it visits (force-directed and list).
MEMO_ENTRIES = 64

#: What one entry holds: the dictionaries one computation returned.
Parts = Tuple[Dict, ...]

_entries: "OrderedDict[Hashable, Parts]" = OrderedDict()
_lock = threading.Lock()


def signature(
    cdfg: CDFG,
    delays: Mapping[str, int],
    module_of: Optional[Mapping[str, FUModule]] = None,
) -> Tuple:
    """What a power-oblivious scheduler reads of a graph, as a hashable key."""
    module_of = module_of or {}
    return tuple(
        (
            name,
            cdfg.operation(name).optype.value,
            delays[name],
            module_of[name].name if name in module_of else None,
            cdfg.successors(name),
        )
        for name in cdfg.topological_order()
    )


def recall(key: Hashable, compute: Callable[[], Parts]) -> Parts:
    """Copies of the parts memoized under ``key``, computing them on a miss."""
    with _lock:
        parts = _entries.get(key)
        if parts is not None:
            _entries.move_to_end(key)
    if parts is None:
        parts = compute()
        with _lock:
            _entries[key] = tuple(dict(part) for part in parts)
            _entries.move_to_end(key)
            while len(_entries) > MEMO_ENTRIES:
                _entries.popitem(last=False)
        return parts
    return tuple(dict(part) for part in parts)


def entry_count() -> int:
    """Number of entries the memo holds now."""
    return len(_entries)


def clear() -> None:
    """Drop every entry (tests use this to force a cold computation)."""
    with _lock:
        _entries.clear()
