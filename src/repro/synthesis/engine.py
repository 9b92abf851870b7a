"""The combined power-constrained synthesis engine (the paper's contribution).

The engine solves scheduling, allocation and binding *simultaneously*
under a latency bound ``T`` and a per-cycle power budget ``P``, minimizing
datapath area.  It follows the structure described in Section 2 of the
paper:

1. Choose an initial (tentative) module per operation and verify that a
   power-feasible pasap/palap schedule exists under ``(T, P)``; the
   tentative selection is adapted (critical-path operations upgraded to
   faster modules) until the latency bound is reachable.
2. Greedy partial clique partitioning: repeatedly evaluate the candidate
   decisions offered by the power-aware time-extended compatibility
   relation — bind one ready operation either onto an existing compatible
   FU instance (sharing it) or onto a new instance of some module — pick
   the *best* decision (least area increase, then least interconnect,
   then earliest start), commit it (schedule + allocate + bind), and
   recompute the pasap/palap windows of the remaining operations.
3. If a committed decision makes the remaining schedule infeasible, apply
   the paper's **backtrack-and-lock** rule: undo the decision, lock every
   unbound operation to the last valid pasap start time, and finish the
   binding with those start times fixed.

The result is a :class:`~repro.synthesis.result.SynthesisResult` whose
schedule respects precedence, ``T`` and ``P`` and whose datapath has no
FU-sharing conflicts (verified by the test-suite on every benchmark).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..binding.merge import BindingDecision
from ..datapath.rtl import Datapath
from ..ir.analysis import critical_path, critical_path_length
from ..ir.cdfg import CDFG
from ..library.library import FULibrary
from ..library.module import FUModule
from ..library.selection import MinPowerSelection, Selection
from ..scheduling.constraints import (
    PowerConstraint,
    SynthesisConstraints,
    TimeConstraint,
)
from ..scheduling.mobility import WindowCache, WindowSet, feasible_windows
from ..scheduling.pasap import PowerInfeasibleError
from ..scheduling.schedule import Schedule, add_to_profile
from .result import (
    PowerInfeasibleSynthesisError,
    SynthesisResult,
    TimingInfeasibleError,
)


@dataclass
class EngineOptions:
    """Tunable knobs of the synthesis engine.

    Attributes:
        trace: Record a human-readable line per committed decision.
        allow_module_upgrade: Let individual decisions pick a module other
            than the tentative one (e.g. a parallel multiplier for one
            operation while the rest stay serial).
        interconnect_weight: Weight of the interconnect penalty when
            comparing decisions of equal area increase (kept at 1 — the
            penalty is already secondary in the lexicographic key).
        delay_area_weight: Area-unit penalty per cycle an operation is
            started later than its data-ready time.  Sharing a unit by
            delaying an operation shrinks the slack of everything
            downstream, which often costs area later; pricing the delay
            keeps the greedy from trading a 16-area input port against
            three extra multipliers.  Set to 0 to recover the purely
            area-lexicographic greedy.
        exact_max_operations: Size cap for the exhaustive ``exact``
            scheduler.  Raising it trades exponential runtime for
            coverage; the differential harness reads this instead of
            assuming the module default.
        ilp_memory_model: Register-pressure linearization the ``ilp``
            scheduler uses when a task carries a ``register_budget``
            (``"optimistic"`` or ``"pessimistic"``).
        ilp_node_limit: Branch-and-bound node budget for the ``ilp``
            scheduler.  ``None`` means unlimited; when the budget is
            exhausted the scheduler raises the *inconclusive*
            ``ILPLimitError``, never a fake infeasibility verdict.
    """

    trace: bool = True
    allow_module_upgrade: bool = True
    interconnect_weight: int = 1
    delay_area_weight: float = 4.0
    exact_max_operations: int = 12
    ilp_memory_model: str = "optimistic"
    ilp_node_limit: Optional[int] = 20_000


class _BusyCalendar:
    """The busy intervals ``[start, end)`` of one FU instance, sorted.

    The intervals on an instance never overlap (every binding decision
    avoids them), so sorted by start they are sorted by end too, and at
    most one of them can overlap a window that starts inside a gap.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []

    def add(self, start: int, end: int) -> None:
        index = bisect_left(self.starts, start)
        self.starts.insert(index, start)
        self.ends.insert(index, end)

    def remove(self, start: int) -> None:
        index = bisect_left(self.starts, start)
        del self.starts[index]
        del self.ends[index]

    def first_free(self, start: int, length: int) -> int:
        """Earliest start >= ``start`` whose ``[start, start + length)`` is free.

        A bisect finds the first interval ending after ``start``, the only
        one that can overlap; if it does, every start before its end
        overlaps it too, so the search jumps to that end and tries the
        next interval, until a gap is wide enough.
        """
        starts, ends = self.starts, self.ends
        index = bisect_right(ends, start)
        while index < len(starts) and starts[index] < start + length:
            start = ends[index]
            index += 1
        return start


@dataclass
class _EngineState:
    """Mutable synthesis state threaded through the greedy loop."""

    locked: Dict[str, int] = field(default_factory=dict)
    delays: Dict[str, int] = field(default_factory=dict)
    powers: Dict[str, float] = field(default_factory=dict)
    bound_module: Dict[str, FUModule] = field(default_factory=dict)
    lock_all_mode: bool = False
    # Carries the locked power profiles between window recomputations so
    # each call only commits the newly locked operation (see WindowCache).
    window_cache: WindowCache = field(default_factory=WindowCache)
    # Per FU instance: its busy calendar and the set of operations that
    # feed its bound operations (a sharing decision's interconnect
    # penalty counts the sources it would add);
    # both follow every commit and rollback.
    calendars: Dict[str, _BusyCalendar] = field(default_factory=dict)
    sources: Dict[str, Set[str]] = field(default_factory=dict)
    # Module name -> the schedulable operations it supports.
    supported: Dict[str, List[str]] = field(default_factory=dict)


class _Round:
    """What one decision round evaluates its candidates against.

    Nothing here changes while the round scores candidates, so the
    memos are valid for exactly one round: a commit changes the windows,
    the profile and the calendars.
    """

    __slots__ = ("windows", "profile", "unbound", "starts", "packing")

    def __init__(self, windows: WindowSet, profile: List[float], unbound: Set[str]) -> None:
        self.windows = windows
        self.profile = profile
        self.unbound = unbound
        #: (module name, instance name or None, data-ready, latest) → start
        self.starts: Dict[Tuple[str, Optional[str], int, int], Optional[int]] = {}
        #: module name → unbound operations it supports, in packing order,
        #: with their latest and earliest window bounds
        self.packing: Dict[str, Tuple[List[str], List[int], List[int]]] = {}


class PowerConstrainedSynthesizer:
    """Combined scheduling/allocation/binding under (T, P) constraints."""

    def __init__(
        self,
        library: FULibrary,
        constraints: SynthesisConstraints,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.library = library
        self.constraints = constraints
        self.options = options or EngineOptions()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def synthesize(self, cdfg: CDFG) -> SynthesisResult:
        """Run the full combined synthesis on ``cdfg``.

        Raises:
            TimingInfeasibleError: no module selection meets the latency
                bound.
            PowerInfeasibleSynthesisError: the power budget is too tight
                for the latency bound (even after stretching).
        """
        trace: List[str] = []
        selection = self._initial_selection(cdfg)
        state = _EngineState(
            delays=self._delays_from_selection(cdfg, selection),
            powers=self._powers_from_selection(cdfg, selection),
        )

        windows = self._windows_or_fail(cdfg, state)
        last_valid_pasap = dict(windows.pasap_starts)

        datapath = Datapath(cdfg=cdfg, schedule=None)  # schedule attached later
        profile: List[float] = []
        backtracks = 0

        unbound = set(cdfg.schedulable_operations())
        # Virtual operations are placed at data-ready time at the very end.
        # An operation is ready once every non-virtual predecessor is
        # locked: count the ones still missing, and release successors as
        # their producers commit.
        virtual = cdfg.virtual_operations()
        missing = {
            op: sum(1 for pred in cdfg.predecessors(op) if pred not in virtual)
            for op in unbound
        }
        ready = {op for op, count in missing.items() if not count}

        while unbound:
            if not ready:
                raise PowerInfeasibleSynthesisError(
                    "no ready operations; dependence deadlock in synthesis loop"
                )
            ordered = sorted(ready)
            decision = self._best_decision(
                cdfg,
                state,
                datapath,
                ordered,
                _Round(windows, profile, unbound),
            )
            if decision is None:
                raise PowerInfeasibleSynthesisError(
                    f"no feasible binding decision for ready operations {ordered} "
                    f"under T={self.constraints.time.latency}, "
                    f"P={self.constraints.power.max_power:g}"
                )

            # Tentatively commit and check that the remaining operations
            # are still schedulable; otherwise backtrack-and-lock.
            snapshot = self._commit(cdfg, state, datapath, profile, decision)
            unbound.discard(decision.op_name)
            ready.discard(decision.op_name)

            if not state.lock_all_mode and unbound:
                try:
                    windows = self._windows_or_fail(cdfg, state)
                    last_valid_pasap = dict(windows.pasap_starts)
                except PowerInfeasibleSynthesisError:
                    # Paper's rule: backtrack one step, lock every
                    # unscheduled operation to the last valid pasap start.
                    self._rollback(cdfg, state, datapath, profile, decision, snapshot)
                    unbound.add(decision.op_name)
                    backtracks += 1
                    for op in unbound:
                        state.locked[op] = last_valid_pasap[op]
                    state.lock_all_mode = True
                    # Every unbound operation is locked now, so all are ready.
                    ready = set(unbound)
                    if self.options.trace:
                        trace.append(
                            f"backtrack: undo {decision.op_name}; lock {len(unbound)} "
                            "operations to the last valid pasap schedule"
                        )
                    continue

            if not snapshot["was_locked"]:
                for succ in cdfg.successors(decision.op_name):
                    if succ in missing:
                        missing[succ] -= 1
                        if not missing[succ]:
                            ready.add(succ)

            if self.options.trace:
                trace.append(decision.describe())

        schedule = self._final_schedule(cdfg, state)
        datapath.schedule = schedule
        datapath.finalize()
        result = SynthesisResult(
            datapath=datapath,
            schedule=schedule,
            constraints=self.constraints,
            area=datapath.area(),
            trace=trace,
            backtracks=backtracks,
            metadata={"library": self.library.name},
        )
        result.verify()
        return result

    # ------------------------------------------------------------------ #
    # Initial selection
    # ------------------------------------------------------------------ #
    def _initial_selection(self, cdfg: CDFG) -> Selection:
        """Min-power selection, upgraded along the critical path to meet T.

        Raises:
            TimingInfeasibleError: when even the all-fastest selection
                misses the latency bound.
        """
        latency = self.constraints.time.latency
        selection = MinPowerSelection().select(cdfg, self.library)
        delays = self._delays_from_selection(cdfg, selection)

        guard = len(cdfg) * len(self.library.modules()) + 8
        while critical_path_length(cdfg, delays) > latency and guard > 0:
            guard -= 1
            path = critical_path(cdfg, delays)
            upgraded = False
            # Upgrade the critical-path operation with the best
            # cycles-saved-per-area ratio.
            best: Optional[Tuple[float, str, FUModule]] = None
            for op_name in path:
                op = cdfg.operation(op_name)
                if op.is_virtual:
                    continue
                current = selection[op_name]
                for module in self.library.candidates(op.optype):
                    saved = current.latency - module.latency
                    if saved <= 0:
                        continue
                    cost = max(module.area - current.area, 1e-6)
                    key = (-saved / cost, op_name, module.name)
                    if best is None or key < (best[0], best[1], best[2].name):
                        best = (-saved / cost, op_name, module)
            if best is not None:
                _, op_name, module = best
                selection[op_name] = module
                delays[op_name] = module.latency
                upgraded = True
            if not upgraded:
                break

        if critical_path_length(cdfg, delays) > latency:
            raise TimingInfeasibleError(
                f"latency bound {latency} is below the best achievable critical "
                f"path {critical_path_length(cdfg, delays)} for {cdfg.name!r}"
            )
        return selection

    # ------------------------------------------------------------------ #
    # Windows / feasibility
    # ------------------------------------------------------------------ #
    def _windows_or_fail(self, cdfg: CDFG, state: _EngineState) -> WindowSet:
        try:
            return feasible_windows(
                cdfg,
                state.delays,
                state.powers,
                self.constraints.power,
                self.constraints.time,
                locked=state.locked,
                cache=state.window_cache,
            )
        except PowerInfeasibleError as exc:
            raise PowerInfeasibleSynthesisError(str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Decision generation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_virtual(cdfg: CDFG, name: str) -> bool:
        return cdfg.operation(name).is_virtual

    def _data_ready(self, cdfg: CDFG, state: _EngineState, op_name: str) -> int:
        ready = 0
        virtual = cdfg.virtual_operations()
        for pred in cdfg.predecessors(op_name):
            if pred in virtual:
                continue
            ready = max(ready, state.locked[pred] + state.delays[pred])
        return ready

    def _candidate_modules(self, cdfg: CDFG, op_name: str, state: _EngineState) -> List[FUModule]:
        optype = cdfg.operation(op_name).optype
        candidates = self.library.candidates(optype)
        if not self.options.allow_module_upgrade:
            tentative_power = state.powers[op_name]
            tentative_delay = state.delays[op_name]
            candidates = [
                m
                for m in candidates
                if m.power <= tentative_power + 1e-9 and m.latency <= tentative_delay
            ] or candidates
        if state.lock_all_mode:
            # With start times locked to the last valid pasap schedule, a
            # decision must not lengthen the operation (successor start
            # times assume the tentative delay) nor raise its power (the
            # pasap profile was only proven feasible for the tentative
            # powers).
            candidates = [
                m
                for m in candidates
                if m.latency <= state.delays[op_name]
                and m.power <= state.powers[op_name] + 1e-9
            ]
        return candidates

    def _earliest_feasible_start(
        self,
        module: FUModule,
        data_ready: int,
        latest: int,
        profile: List[float],
        calendar: Optional[_BusyCalendar],
    ) -> Optional[int]:
        """Earliest start in [data_ready, latest] that fits power and the instance.

        ``calendar`` is the instance's busy calendar (``None`` for a new
        instance).  The operation must also finish by ``T``.  A start that
        overlaps a busy interval jumps to that interval's end, and one
        that exceeds the budget in some cycle jumps past that cycle: every
        start skipped would overlap the same interval or cycle.
        """
        length = module.latency
        last = min(latest, self.constraints.time.latency - length)
        power = self.constraints.power
        bounded = not power.is_unbounded
        limit = power.max_power + power.tolerance
        op_power = module.power
        if bounded and not op_power <= limit:
            return None  # over budget even in an idle cycle
        horizon = len(profile)
        start = data_ready
        while start <= last:
            if calendar is not None:
                start = calendar.first_free(start, length)
                if start > last:
                    return None
            if bounded:
                over = None
                for cycle in range(start, min(start + length, horizon)):
                    if profile[cycle] + op_power > limit:
                        over = cycle
                if over is not None:
                    start = over + 1
                    continue
            return start
        return None

    def _estimate_capacity(
        self,
        cdfg: CDFG,
        state: _EngineState,
        round_: _Round,
        module: FUModule,
        op_name: str,
        start: int,
    ) -> int:
        """Estimate how many unbound operations a new instance could host.

        Greedily packs the remaining unbound operations that the module
        supports into non-overlapping slots after ``op_name``'s execution,
        respecting each operation's current pasap/palap window and the
        latency bound.  The estimate amortizes the area of a big,
        shareable module (e.g. the parallel multiplier) over the
        operations it is likely to serve, which is what lets the engine
        trade operator implementations as the paper describes.

        The packing visits operations by (latest, earliest, name), an
        order the round memoizes per module, and skips any whose window
        closes before the instance is free, so a bisect on the latest
        bounds finds the next one it can take.
        """
        order = round_.packing.get(module.name)
        if order is None:
            supported = state.supported.get(module.name)
            if supported is None:
                supported = state.supported[module.name] = [
                    v
                    for v in cdfg.schedulable_operations()
                    if module.supports(cdfg.operation(v).optype)
                ]
            windows = round_.windows
            earliest, latest = windows.pasap_starts, windows.palap_starts
            unbound = round_.unbound
            packing = sorted(
                [(latest[v], earliest[v], v) for v in supported if v in unbound and v in windows]
            )
            order = (
                [v for _, _, v in packing],
                [late for late, _, _ in packing],
                [early for _, early, _ in packing],
            )
            round_.packing[module.name] = order
        names, latests, earliests = order
        length = module.latency
        last_start = self.constraints.time.latency - length
        busy_end = start + length
        count = 1
        index = 0
        while busy_end <= last_start:
            # Operations whose window closes before busy_end are skipped.
            index = bisect_left(latests, busy_end, index)
            if index == len(names):
                break
            other, latest = names[index], latests[index]
            earliest = max(earliests[index], busy_end)
            index += 1
            if other == op_name or earliest > latest or earliest > last_start:
                continue
            count += 1
            busy_end = earliest + length
        return count

    def _best_decision(
        self,
        cdfg: CDFG,
        state: _EngineState,
        datapath: Datapath,
        ready: List[str],
        round_: _Round,
    ) -> Optional[BindingDecision]:
        """The candidate decision with the least sort key, or ``None``.

        No two candidates share a key, so the minimum does not depend on
        the order they are scored in, and a candidate whose least possible
        key already exceeds the best so far is passed over without its
        start search.  A share's key is least with no delay.  Shares are
        scored first: a new instance's amortized area is at least its area
        over the most operations it could host by ``T``, so once a share
        scores below that bound the new instance is passed over without
        its start search or capacity packing too.
        """
        best: Optional[BindingDecision] = None
        best_key: Optional[Tuple] = None
        windows = round_.windows
        interconnect_weight = self.options.interconnect_weight
        delay_weight = self.options.delay_area_weight
        latency = self.constraints.time.latency
        instances_of: Dict[str, List[str]] = {}
        for instance in datapath.instances.values():
            instances_of.setdefault(instance.module.name, []).append(instance.name)

        plans = []
        for op_name in ready:
            data_ready = self._data_ready(cdfg, state, op_name)
            if state.lock_all_mode:
                window_latest = state.locked[op_name]
                data_ready = state.locked[op_name]
            else:
                window_latest = max(windows.palap_starts[op_name], data_ready)
            candidates = self._candidate_modules(cdfg, op_name, state)
            plans.append((op_name, data_ready, window_latest, candidates))

            # (a) share an existing instance of a candidate module
            op_sources = set(cdfg.predecessors(op_name))
            for module in candidates:
                for instance_name in instances_of.get(module.name, ()):
                    penalty = interconnect_weight * len(
                        op_sources.difference(state.sources[instance_name])
                    )
                    # The key's least possible value: no delay, start at
                    # data-ready time.
                    if best_key is not None and delay_weight >= 0 and (
                        0.0, penalty, 0, data_ready, op_name, module.name, instance_name
                    ) > best_key:
                        continue
                    start = self._start_in_round(
                        round_, module, instance_name, data_ready, window_latest,
                        state.calendars[instance_name],
                    )
                    if start is None:
                        continue
                    decision = BindingDecision(
                        op_name=op_name,
                        module=module,
                        instance_name=instance_name,
                        start_time=start,
                        area_increase=0.0,
                        interconnect_penalty=penalty,
                        mobility_loss=start - data_ready,
                        effective_area=delay_weight * (start - data_ready),
                    )
                    decision_key = decision.sort_key()
                    if best_key is None or decision_key < best_key:
                        best, best_key = decision, decision_key

        # (b) allocate a new instance of a candidate module
        prune = not state.lock_all_mode
        for op_name, data_ready, window_latest, candidates in plans:
            for module in candidates:
                length = module.latency
                if prune and best_key is not None and delay_weight >= 0:
                    most = 1 + max(0, (latency - data_ready - length) // length)
                    if module.area / most > best_key[0]:
                        continue
                start = self._start_in_round(
                    round_, module, None, data_ready, window_latest, None
                )
                if start is None:
                    continue
                if state.lock_all_mode:
                    effective_area: Optional[float] = None
                else:
                    delay_cost = delay_weight * (start - data_ready)
                    if best_key is not None:
                        most = 1 + (latency - start - length) // length
                        if module.area / most + delay_cost > best_key[0]:
                            continue
                    capacity = self._estimate_capacity(
                        cdfg, state, round_, module, op_name, start
                    )
                    effective_area = module.area / capacity + delay_cost
                decision = BindingDecision(
                    op_name=op_name,
                    module=module,
                    instance_name=None,
                    start_time=start,
                    area_increase=module.area,
                    interconnect_penalty=0,
                    mobility_loss=start - data_ready,
                    effective_area=effective_area,
                )
                decision_key = decision.sort_key()
                if best_key is None or decision_key < best_key:
                    best, best_key = decision, decision_key
        return best

    def _start_in_round(
        self,
        round_: _Round,
        module: FUModule,
        instance_name: Optional[str],
        data_ready: int,
        latest: int,
        calendar: Optional[_BusyCalendar],
    ) -> Optional[int]:
        """:meth:`_earliest_feasible_start`, memoized for the round."""
        key = (module.name, instance_name, data_ready, latest)
        try:
            return round_.starts[key]
        except KeyError:
            start = round_.starts[key] = self._earliest_feasible_start(
                module, data_ready, latest, round_.profile, calendar
            )
            return start

    # ------------------------------------------------------------------ #
    # Commit / rollback
    # ------------------------------------------------------------------ #
    def _commit(
        self,
        cdfg: CDFG,
        state: _EngineState,
        datapath: Datapath,
        profile: List[float],
        decision: BindingDecision,
    ) -> Dict[str, object]:
        """Apply a decision; return a snapshot sufficient to roll it back."""
        snapshot = {
            "delay": state.delays[decision.op_name],
            "power": state.powers[decision.op_name],
            "was_locked": decision.op_name in state.locked,
            "locked_value": state.locked.get(decision.op_name),
            "new_instance": decision.instance_name is None,
        }
        if decision.instance_name is None:
            instance = datapath.add_instance(decision.module)
            state.calendars[instance.name] = _BusyCalendar()
            state.sources[instance.name] = set()
        else:
            instance = datapath.instances[decision.instance_name]
        datapath.bind(decision.op_name, instance.name)
        snapshot["instance_name"] = instance.name
        state.calendars[instance.name].add(
            decision.start_time, decision.start_time + decision.module.latency
        )
        state.sources[instance.name].update(cdfg.predecessors(decision.op_name))

        state.locked[decision.op_name] = decision.start_time
        state.delays[decision.op_name] = decision.module.latency
        state.powers[decision.op_name] = decision.module.power
        state.bound_module[decision.op_name] = decision.module
        add_to_profile(profile, decision.start_time, decision.module.latency, decision.module.power)
        return snapshot

    def _rollback(
        self,
        cdfg: CDFG,
        state: _EngineState,
        datapath: Datapath,
        profile: List[float],
        decision: BindingDecision,
        snapshot: Dict[str, object],
    ) -> None:
        """Undo a committed decision using its snapshot."""
        instance_name = snapshot["instance_name"]
        instance = datapath.instances[instance_name]
        instance.unbind(decision.op_name)
        del datapath.binding[decision.op_name]
        if snapshot["new_instance"]:
            del datapath.instances[instance_name]
            del state.calendars[instance_name]
            del state.sources[instance_name]
        else:
            state.calendars[instance_name].remove(decision.start_time)
            sources = state.sources[instance_name] = set()
            for op in instance.bound_ops:
                sources.update(cdfg.predecessors(op))

        for cycle in range(decision.start_time, decision.start_time + decision.module.latency):
            profile[cycle] -= decision.module.power

        state.delays[decision.op_name] = snapshot["delay"]  # type: ignore[assignment]
        state.powers[decision.op_name] = snapshot["power"]  # type: ignore[assignment]
        if snapshot["was_locked"]:
            state.locked[decision.op_name] = snapshot["locked_value"]  # type: ignore[assignment]
        else:
            state.locked.pop(decision.op_name, None)
        state.bound_module.pop(decision.op_name, None)

    # ------------------------------------------------------------------ #
    # Final schedule
    # ------------------------------------------------------------------ #
    def _final_schedule(self, cdfg: CDFG, state: _EngineState) -> Schedule:
        start: Dict[str, int] = {}
        for name in cdfg.topological_order():
            if name in state.locked:
                start[name] = state.locked[name]
            else:
                # Virtual operation: data-ready placement.
                ready = 0
                for pred in cdfg.predecessors(name):
                    ready = max(ready, start[pred] + state.delays[pred])
                start[name] = ready
        return Schedule(
            cdfg=cdfg,
            start_times=start,
            delays=dict(state.delays),
            powers=dict(state.powers),
            label=f"synthesis[{cdfg.name}]",
            metadata={
                "latency_bound": self.constraints.time.latency,
                "power_budget": self.constraints.power.max_power,
            },
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _delays_from_selection(cdfg: CDFG, selection: Selection) -> Dict[str, int]:
        delays: Dict[str, int] = {}
        for name in cdfg.operation_names():
            op = cdfg.operation(name)
            delays[name] = 0 if op.is_virtual else selection[name].latency
        return delays

    @staticmethod
    def _powers_from_selection(cdfg: CDFG, selection: Selection) -> Dict[str, float]:
        powers: Dict[str, float] = {}
        for name in cdfg.operation_names():
            op = cdfg.operation(name)
            powers[name] = 0.0 if op.is_virtual else selection[name].power
        return powers


from ..registries import SCHEDULERS as _SCHEDULERS


@_SCHEDULERS.register("engine")
def _engine_strategy(ctx) -> None:
    """The paper's combined scheduling/allocation/binding algorithm.

    Unlike the classical strategies this one binds while scheduling, so it
    sets ``ctx.datapath`` and ``ctx.result`` as well — the pipeline's
    ``bind`` and ``finalize`` passes then have nothing left to do.
    """
    synthesizer = PowerConstrainedSynthesizer(ctx.library, ctx.constraints, ctx.options)
    result = synthesizer.synthesize(ctx.cdfg)
    ctx.schedule = result.schedule
    ctx.datapath = result.datapath
    ctx.result = result


# The engine selects (and adapts) its own modules; the pipeline's select
# pass would be dead work before it.
_engine_strategy.needs_selection = False


def synthesize(
    cdfg: CDFG,
    library: FULibrary,
    latency: int,
    max_power: Optional[float] = None,
    options: Optional[EngineOptions] = None,
) -> SynthesisResult:
    """One-call convenience wrapper; routes through the task/pipeline API."""
    from ..api.pipeline import Pipeline  # local import: api depends on this module
    from ..api.task import SynthesisTask

    # The graph/library fields are nominal records only: the live objects
    # are handed straight to the pipeline, so nothing is serialized here.
    task = SynthesisTask.of(
        cdfg.name,
        library=library.name,
        latency=latency,
        power_budget=max_power,
        options=options,
    )
    return Pipeline.default().run(task, cdfg=cdfg, library=library)
