"""The simulation engine: drives one system through a computation.

Each engine step performs, in order:

1. **faults** — apply every fault event due at this step;
2. **malice** — every process in the arbitrary phase of a malicious crash
   takes one havoc step; a process whose budget runs out halts;
3. **hunger** — refresh the ``needs`` input variable of every live process
   from the hunger policy (the policy is consulted per live process in node
   order; a value that did not change is not written again);
4. **action** — the daemon picks one pair from ``System.all_enabled()`` and
   the engine executes it.  The enabled set is maintained by the system:
   executing an action at ``p`` writes ``p``'s locals and incident edges,
   which the model lets only ``p`` and its neighbours read, so one step
   re-evaluates the guards of a distance-1 neighbourhood, not of the whole
   system — the same locality rule ``fastcore.FastEngine`` applies to its
   packed state, which leaves representation as the only difference
   between the two engines.

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
from .network import System
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


class EngineBase:
    """The run loop, result packaging and counters both engines share.

    A subclass supplies the state backend: ``step()`` (defined on the
    subclass itself — profilers and tracers wrap it there), ``snapshot()``,
    and the attributes ``algorithm``, ``recorder``, ``bus``, ``step_count``
    and ``action_counts``.
    """

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

    def run_to_quiescence(self, max_steps: int) -> RunResult:
        """Run with no stop predicate; convenience wrapper over :meth:`run`."""
        return self.run(max_steps)

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

    def _emit(self, event: TraceEvent) -> None:
        if self.bus is not None:
            self.bus.publish(event)
        if self.recorder is not None:
            self.recorder.record_event(event)

    def eats_of(self, pid: Pid, enter_action: Optional[str] = None) -> int:
        """How many times ``pid`` has executed its enter action.

        The action name defaults to what the algorithm itself declares
        (``Algorithm.enter_action``), so variants that rename their
        critical-section entry are counted correctly.
        """
        if enter_action is None:
            enter_action = self.algorithm.enter_action
        return self.action_counts[(pid, enter_action)]

    def total_eats(self, enter_action: Optional[str] = None) -> int:
        """Total enter-action executions across all processes."""
        if enter_action is None:
            enter_action = self.algorithm.enter_action
        return sum(
            count
            for (pid, name), count in self.action_counts.items()
            if name == enter_action
        )


class Engine(EngineBase):
    """Runs a :class:`~repro.sim.network.System` under a daemon, a hunger
    policy, and a fault plan.

    Parameters
    ----------
    system:
        The system to run (mutated in place).
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
        system: System,
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
        #: Executed algorithm actions, keyed by ``(pid, action_name)``.
        self.action_counts: Counter = Counter()
        self._malicious_budget: Dict[Pid, int] = (
            faults.malicious_budget() if faults is not None else {}
        )
        self._hunger_var = self.algorithm.hunger_variable

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
            self._apply_due_faults(step)
        if system.malicious_pids():
            self._malice_phase(step)
        self._refresh_hunger(step)

        bus = self.bus
        enabled = system.all_enabled()
        if enabled:
            pid, action = self.daemon.select(system, enabled, step, self.rng)
            if not system.is_enabled(pid, action):
                raise SchedulingError(
                    f"daemon chose disabled action {action.name!r} at {pid!r}"
                )
            # The payload is the acting process's locals *before* the command
            # runs: probes need the value ``depth`` held when ``exit`` fired,
            # not the reset value it holds afterwards.  Only a recorder or a
            # bus subscriber needs it, or an event object at all; taps (the
            # always-armed flight recorder) are handed the fields.
            event = (
                TraceEvent(
                    step, EventKind.ACTION, pid, action.name, system.locals_of(pid)
                )
                if self.recorder is not None
                or (bus is not None and bus.wants_events)
                else None
            )
            system.execute(pid, action)
            self.action_counts[(pid, action.name)] += 1
            if event is not None:
                self._emit(event)
            elif bus is not None:
                bus.announce(step, EventKind.ACTION, pid, action.name)
        else:
            if not pending_faults and not system.malicious_pids():
                return False
            if self.observed:
                self._emit(TraceEvent(step, EventKind.IDLE))

        self.step_count += 1
        if self.recorder is not None:
            self.recorder.maybe_snapshot(self.step_count, system.snapshot())
        return True

    def snapshot(self) -> "Configuration":
        """The system's current configuration.

        Delegation keeps the state-backend seam uniform: callers holding
        either this engine or a :class:`repro.fastcore.FastEngine` can
        observe state without knowing which backend they got.
        """
        return self.system.snapshot()

    # ------------------------------------------------------------ internals

    def _apply_due_faults(self, step: int) -> None:
        for event in self.faults.due(step):
            event.apply(self.system, self.rng)
            if isinstance(event, MaliciousCrash):
                if event.malicious_steps > 0:
                    self._emit(
                        TraceEvent(
                            step, EventKind.MALICE_BEGIN, event.pid, event.malicious_steps
                        )
                    )
                else:
                    self._emit(TraceEvent(step, EventKind.CRASH, event.pid, "malicious"))
            elif isinstance(event, BenignCrash):
                self._emit(TraceEvent(step, EventKind.CRASH, event.pid, "benign"))
            else:
                self._emit(
                    TraceEvent(step, EventKind.TRANSIENT, None, getattr(event, "pids", None))
                )

    def _malice_phase(self, step: int) -> None:
        for pid in self.system.malicious_pids():
            budget = self._malicious_budget.get(pid, 0)
            if budget > 0:
                self.system.havoc_process(pid, self.rng)
                self._emit(TraceEvent(step, EventKind.HAVOC, pid))
                self._malicious_budget[pid] = budget - 1
            if self._malicious_budget.get(pid, 0) <= 0:
                self.system.kill(pid)
                self._emit(TraceEvent(step, EventKind.CRASH, pid, "malice exhausted"))

    def _refresh_hunger(self, step: int) -> None:
        hunger = self.hunger
        variable = self._hunger_var
        if hunger is None or variable is None:
            return
        system = self.system
        # ``write_local`` ignores a value already stored, so only changes
        # are validated, written and staled; the policy is still consulted
        # per live process in node order, which keeps its RNG draws in place.
        wants, write, rng = hunger.wants, system.write_local, self.rng
        for pid in system.live_pids():
            write(pid, variable, wants(pid, step, rng))

    def inject(self, event) -> None:
        """Apply a fault event immediately, outside any schedule.

        State-dependent fault scenarios ("crash the victim while it is
        eating") cannot be expressed as step-indexed plans; drive the engine
        to the state you want, then inject.
        """
        event.apply(self.system, self.rng)
        step = self.step_count
        if isinstance(event, MaliciousCrash):
            if event.malicious_steps > 0:
                self._malicious_budget[event.pid] = event.malicious_steps
                self._emit(
                    TraceEvent(step, EventKind.MALICE_BEGIN, event.pid, event.malicious_steps)
                )
            else:
                self._emit(TraceEvent(step, EventKind.CRASH, event.pid, "malicious"))
        elif isinstance(event, BenignCrash):
            self._emit(TraceEvent(step, EventKind.CRASH, event.pid, "benign"))
        else:
            self._emit(
                TraceEvent(step, EventKind.TRANSIENT, None, getattr(event, "pids", None))
            )
