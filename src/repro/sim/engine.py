"""The simulation engine: drives one state store through a computation.

There is one step cycle, written against the :class:`~repro.sim.network.
StateStore` surface, so the same code runs the object model
(:class:`~repro.sim.network.System`) and the packed encoding
(:class:`repro.fastcore.PackedSystem`); a seed produces the same computation
on both.  Each engine step performs, in order:

1. **faults** — apply every fault event due at this step;
2. **malice** — every process in the arbitrary phase of a malicious crash
   takes one havoc step; a process whose budget runs out halts;
3. **hunger** — refresh the ``needs`` input variable of every live process
   from the hunger policy (consulted per live process in node order; a
   policy that declares itself ``constant`` is asked once per process and
   its answer is put back only where something overwrote it);
4. **action** — the daemon picks one entry of the store's enabled set and
   the engine executes it.  The enabled set is maintained by the store:
   executing an action at ``p`` writes ``p``'s locals and incident edges,
   which the model lets only ``p`` and its neighbours read, so one step
   re-evaluates the guards of a distance-1 neighbourhood, not of the whole
   system.

The interleaving this produces is a legal computation of the paper's model:
exactly one (algorithm or havoc) transition mutates protocol state per step
aside from the environment inputs, and the default daemon is weakly fair.

A run ends at quiescence (no enabled action and no pending fault — the
paper's *maximal* computation reaching a terminal state), when a caller's
``stop_when`` predicate first holds, or at the step budget.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from .configuration import Configuration
from .errors import SchedulingError
from .faults import BenignCrash, FaultPlan, MaliciousCrash
from .hunger import HungerPolicy
from .network import StateStore
from .scheduler import Daemon, WeaklyFairDaemon
from .topology import Pid
from .trace import EventKind, TraceEvent, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..obs.bus import EventBus

StopPredicate = Callable[[Configuration], bool]


@dataclass(frozen=True)
class RunResult:
    """Outcome of :meth:`Engine.run`.

    ``steps`` counts engine steps taken (including idle steps spent waiting
    for scheduled faults).  Exactly one of the three flags explains why the
    run ended.
    """

    steps: int
    quiescent: bool
    stopped: bool
    exhausted: bool
    final: Configuration

    def __post_init__(self) -> None:
        assert self.quiescent + self.stopped + self.exhausted == 1


class Engine:
    """Runs a state store — a :class:`~repro.sim.network.System`, or a
    :class:`repro.fastcore.PackedSystem` — under a daemon, a hunger policy,
    and a fault plan.

    Parameters
    ----------
    system:
        The store to run (mutated in place).
    daemon:
        Scheduling strategy; defaults to a fresh :class:`WeaklyFairDaemon`.
    hunger:
        Drives the algorithm's hunger input variable, if it declares one.
        ``None`` leaves the variable entirely to its initial/corrupted value.
    faults:
        Scheduled fault events; ``None`` means a fault-free run.
    recorder:
        Optional trace recorder.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; every event the recorder
        would see is also published here, live, so probes can observe a run
        without any recorder at all.  ``None`` (the default) costs nothing.
    seed:
        Seed for the engine's private RNG; runs are deterministic given
        (system state, daemon state, seed).
    rng:
        An explicit ``random.Random`` instance to use instead of building
        one from ``seed``.  Callers that thread one RNG through state
        randomization *and* scheduling (campaign shards do) pass it here;
        the engine never touches the global ``random`` module either way.
    """

    def __init__(
        self,
        system: StateStore,
        daemon: Daemon | None = None,
        *,
        hunger: HungerPolicy | None = None,
        faults: FaultPlan | None = None,
        recorder: TraceRecorder | None = None,
        bus: "EventBus | None" = None,
        seed: int = 0,
        rng: random.Random | None = None,
    ) -> None:
        self.system = system
        self.algorithm = system.algorithm
        self.daemon = daemon if daemon is not None else WeaklyFairDaemon()
        self.hunger = hunger
        self.faults = faults
        self.recorder = recorder
        self.bus = bus
        self.rng = rng if rng is not None else random.Random(seed)
        self.step_count = 0
        enabled = system.enabled()
        self._pids = enabled.pids
        self._names = tuple(action.name for action in enabled.actions)
        self._width = len(self._names)
        #: Executed algorithm actions, at ``p * width + a`` (the enabled
        #: set's indices); :attr:`action_counts` is the named reading.
        self._counts = [0] * (len(self._pids) * self._width)
        self._malicious_budget: Dict[Pid, int] = (
            faults.malicious_budget() if faults is not None else {}
        )
        self._hunger_var = self.algorithm.hunger_variable
        #: A constant policy's answers, asked once (see _refresh_hunger).
        self._constant_wants: Dict[Pid, bool] | None = (
            {pid: hunger.wants(pid, 0, None) for pid in system.pids}
            if hunger is not None and hunger.constant and self._hunger_var is not None
            else None
        )

    # ---------------------------------------------------------------- step

    def step(self) -> bool:
        """Advance the computation by one engine step.

        Returns False — without consuming a step — when nothing can ever
        happen again: no enabled action, no malicious process mid-phase, and
        no pending fault event.
        """
        step = self.step_count
        system = self.system
        faults = self.faults

        pending_faults = faults is not None and not faults.exhausted()
        if pending_faults:
            for event in faults.due(step):
                self._apply_fault(event, step)
        if system.malicious_pids():
            self._malice_phase(step)
        # A constant policy's answers are in place unless the store says
        # someone touched an input.
        if self._constant_wants is None or system.hunger_stale:
            self._refresh_hunger(step)

        bus = self.bus
        enabled = system.enabled()
        if enabled.count:
            p, a = self.daemon.select(system, enabled, step, self.rng)
            if not (enabled.bits[p] >> a) & 1:
                raise SchedulingError(
                    f"daemon chose disabled action {self._names[a]!r} "
                    f"at {self._pids[p]!r}"
                )
            # The payload is the acting process's locals *before* the command
            # runs: probes need the value ``depth`` held when ``exit`` fired,
            # not the reset value it holds afterwards.  Only a recorder or a
            # bus subscriber needs it, or an event object at all; taps (the
            # always-armed flight recorder) are handed the fields.
            wanted = self.recorder is not None or (
                bus is not None and bus.wants_events
            )
            payload = system.locals_of(self._pids[p]) if wanted else None
            system.fire(p, a)
            self._counts[p * self._width + a] += 1
            if wanted:
                self._emit(
                    step, EventKind.ACTION, self._pids[p], self._names[a], payload
                )
            elif bus is not None:
                bus.announce(step, EventKind.ACTION, self._pids[p], self._names[a])
        else:
            if not pending_faults and not system.malicious_pids():
                return False
            self._emit(step, EventKind.IDLE)

        self.step_count += 1
        # A snapshot is an O(n) copy (a full unpack on the packed store):
        # build one only on the recorder's cadence.
        recorder = self.recorder
        if recorder is not None and recorder.wants_snapshot(self.step_count):
            recorder.maybe_snapshot(self.step_count, system.snapshot())
        return True

    def snapshot(self) -> "Configuration":
        """The store's current configuration."""
        return self.system.snapshot()

    # ----------------------------------------------------------------- run

    def run(
        self,
        max_steps: int,
        *,
        stop_when: StopPredicate | None = None,
        check_every: int = 1,
    ) -> RunResult:
        """Run until quiescence, ``stop_when``, or ``max_steps``.

        ``stop_when`` is evaluated on a fresh snapshot before the first step
        and then every ``check_every`` executed steps (snapshots cost O(n)).
        """
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be positive")
        if self.recorder is not None:
            self.recorder.force_snapshot(self.step_count, self.snapshot())

        taken = 0
        if stop_when is not None and stop_when(self.snapshot()):
            return self._result(taken, stopped=True)
        step = self.step
        while taken < max_steps:
            if not step():
                return self._result(taken, quiescent=True)
            taken += 1
            if stop_when is not None and taken % check_every == 0:
                if stop_when(self.snapshot()):
                    return self._result(taken, stopped=True)
        return self._result(taken, exhausted=True)

    def run_profiled(self, max_steps: int, **kwargs):
        """:meth:`run` under ``cProfile``; returns ``(result, profile)``.

        The canonical profiling hook point for the engine's hot loop —
        ``repro run --profile-out`` and ``repro bench --profile`` both land
        here, so hotspot reports always cover the same region: the full
        fault/malice/hunger/action step cycle, nothing outside it.
        """
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            result = self.run(max_steps, **kwargs)
        finally:
            profile.disable()
        return result, profile

    def _result(
        self,
        steps: int,
        *,
        quiescent: bool = False,
        stopped: bool = False,
        exhausted: bool = False,
    ) -> RunResult:
        final = self.snapshot()
        if self.recorder is not None:
            self.recorder.force_snapshot(self.step_count, final)
        return RunResult(
            steps=steps,
            quiescent=quiescent,
            stopped=stopped,
            exhausted=exhausted,
            final=final,
        )

    @property
    def observed(self) -> bool:
        """True when someone is listening (recorder attached, or a live bus
        subscriber or tap); gates any per-event work beyond the event itself."""
        return self.recorder is not None or (
            self.bus is not None and self.bus.active
        )

    def _emit(self, step: int, kind: EventKind, pid=None, detail=None, payload=None) -> None:
        """Make the event and hand it to whoever listens — if anyone does."""
        if not self.observed:
            return
        event = TraceEvent(step, kind, pid, detail, payload)
        if self.bus is not None:
            self.bus.publish(event)
        if self.recorder is not None:
            self.recorder.record_event(event)

    @property
    def action_counts(self) -> Counter:
        """Executed algorithm actions, keyed by ``(pid, action_name)``."""
        pids, names, width = self._pids, self._names, self._width
        return Counter({
            (pids[i // width], names[i % width]): count
            for i, count in enumerate(self._counts)
            if count
        })

    def _enter_index(self, enter_action: Optional[str]) -> int:
        """The action index of ``enter_action`` (default: the algorithm's),
        or -1 when the algorithm has no such action."""
        if enter_action is None:
            enter_action = self.algorithm.enter_action
        return self._names.index(enter_action) if enter_action in self._names else -1

    def eats_of(self, pid: Pid, enter_action: Optional[str] = None) -> int:
        """How many times ``pid`` has executed its enter action.

        The action name defaults to what the algorithm itself declares
        (``Algorithm.enter_action``), so variants that rename their
        critical-section entry are counted correctly.
        """
        a = self._enter_index(enter_action)
        if a < 0 or pid not in self._pids:
            return 0
        return self._counts[self._pids.index(pid) * self._width + a]

    def total_eats(self, enter_action: Optional[str] = None) -> int:
        """Total enter-action executions across all processes."""
        a = self._enter_index(enter_action)
        return sum(self._counts[a :: self._width]) if a >= 0 else 0

    # ------------------------------------------------------------ internals

    def _apply_fault(self, event, step: int) -> None:
        event.apply(self.system, self.rng)
        if isinstance(event, MaliciousCrash):
            if event.malicious_steps > 0:
                self._emit(step, EventKind.MALICE_BEGIN, event.pid, event.malicious_steps)
            else:
                self._emit(step, EventKind.CRASH, event.pid, "malicious")
        elif isinstance(event, BenignCrash):
            self._emit(step, EventKind.CRASH, event.pid, "benign")
        else:
            self._emit(step, EventKind.TRANSIENT, None, getattr(event, "pids", None))

    def _malice_phase(self, step: int) -> None:
        for pid in self.system.malicious_pids():
            budget = self._malicious_budget.get(pid, 0)
            if budget > 0:
                self.system.havoc_process(pid, self.rng)
                self._emit(step, EventKind.HAVOC, pid)
                self._malicious_budget[pid] = budget - 1
            if self._malicious_budget.get(pid, 0) <= 0:
                self.system.kill(pid)
                self._emit(step, EventKind.CRASH, pid, "malice exhausted")

    def _refresh_hunger(self, step: int) -> None:
        hunger = self.hunger
        variable = self._hunger_var
        if hunger is None or variable is None:
            return
        system = self.system
        write = system.write_local
        constant = self._constant_wants
        if constant is not None:
            # The answers cannot change, so the variable can differ from
            # them only where someone else wrote it or the process has just
            # come (back) to life — the store keeps that list.
            stale = system.hunger_stale
            for pid in tuple(stale):
                if system.is_live(pid):
                    write(pid, variable, constant[pid])
            stale.clear()
            return
        # ``write_local`` ignores a value already stored, so only changes
        # are validated, written and staled; the policy is consulted per
        # live process in node order, which keeps its RNG draws in place.
        wants, rng = hunger.wants, self.rng
        for pid in system.live_pids():
            write(pid, variable, wants(pid, step, rng))

    def inject(self, event) -> None:
        """Apply a fault event immediately, outside any schedule.

        State-dependent fault scenarios ("crash the victim while it is
        eating") cannot be expressed as step-indexed plans; drive the engine
        to the state you want, then inject.
        """
        if isinstance(event, MaliciousCrash) and event.malicious_steps > 0:
            self._malicious_budget[event.pid] = event.malicious_steps
        self._apply_fault(event, self.step_count)
