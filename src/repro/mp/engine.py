"""The message-passing engine.

Events are of two kinds: *deliver* the head of a non-empty channel to its
destination, or *tick* a live process.  The engine interleaves them under
the same weak-fairness discipline as the shared-memory daemon: every event
kind that stays continuously available fires within a bounded number of
opportunities.  This gives the two liveness assumptions message-passing
algorithms rely on — every sent message is eventually delivered, and every
process takes infinitely many spontaneous steps.

The scheduler reads an *event index*, not the network.  Every event has a
slot, in scan order: one delivery per directed channel (in the order the
channels were built), then one tick per process.  Writers record a slot's
availability in the :class:`~repro.sim.fairness.FairSelector`'s
``changes`` whenever it may have changed — a channel through its mutation
funnel (:mod:`repro.mp.channel`), ``crash``/``restart`` for a tick, the
selector itself for the slot it fires — and the next selection reads those
entries alone, in one pass, under the daemons' rule, so a step costs the
same on ring(64) as on ring(8).

The fault repertoire mirrors :mod:`repro.sim.faults`:

* :meth:`MpEngine.crash` — the process stops; messages addressed to it are
  still delivered (and silently discarded), as a real network would;
* :meth:`MpEngine.crash_maliciously` — the process takes ``k`` havoc steps
  (state corruption plus junk messages to neighbours) before halting;
* :meth:`MpEngine.transient_fault` — every process state and every channel
  content is replaced with arbitrary values from their legal spaces.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Tuple,
)

from ..obs.events import MpEventKind
from ..obs.tracing import LamportClock
from ..sim.errors import DeadProcessError, SimulationError, UnknownProcessError
from ..sim.fairness import FairSelector
from ..sim.topology import Pid, Topology
from ..sim.trace import TraceEvent
from .channel import Channel
from .node import MpContext, MpProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..obs.bus import EventBus


class MpEngine:
    """Runs message-passing processes over a topology of FIFO channels.

    Parameters
    ----------
    topology:
        Communication graph; one directed channel per edge direction.
    processes:
        ``{pid: MpProcess}`` covering every node.
    channel_capacity:
        Bound on in-flight messages per directed channel.
    patience:
        Weak-fairness bound: an event continuously available for this many
        selections fires.
    seed:
        Engine RNG seed (scheduling and fault randomness).
    channel_factory:
        Constructor used for every directed link; defaults to
        :class:`~repro.mp.channel.Channel`.  Must accept the same signature.
        This is the engine-side transport seam: passing
        :class:`repro.net.wire_channel.WireChannel` runs the same processes
        with every payload round-tripped through the live cluster's wire
        codec, which is how codec/simulator parity is tested.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; sends, drops, deliveries,
        ticks, havoc steps, and faults are published as
        :class:`~repro.sim.trace.TraceEvent` with
        :class:`~repro.obs.events.MpEventKind` kinds.  ``None`` (the
        default) costs nothing: a step or a send without a bus builds no
        event and makes no call for one.
    """

    def __init__(
        self,
        topology: Topology,
        processes: Mapping[Pid, MpProcess],
        *,
        channel_capacity: int = 8,
        loss_probability: float = 0.0,
        patience: int = 64,
        seed: int = 0,
        channel_factory: Callable[..., Channel] | None = None,
        bus: "EventBus | None" = None,
    ) -> None:
        if set(processes) != set(topology.nodes):
            raise SimulationError("processes must cover exactly the topology nodes")
        self.topology = topology
        self.processes: Dict[Pid, MpProcess] = dict(processes)
        self._channels: Dict[Tuple[Pid, Pid], Channel] = {}
        factory = channel_factory if channel_factory is not None else Channel
        loss_rng = random.Random(seed ^ 0x10552)
        for p in topology.nodes:
            for q in topology.neighbors(p):
                self._channels[(p, q)] = factory(
                    p,
                    q,
                    channel_capacity,
                    loss_probability=loss_probability,
                    rng=loss_rng,
                )
        self._alive: Dict[Pid, bool] = {p: True for p in topology.nodes}
        self._malicious_budget: Dict[Pid, int] = {}
        self._contexts: Dict[Pid, MpContext] = {
            p: MpContext(self, p) for p in topology.nodes
        }
        self.patience = patience
        self.bus = bus
        self.rng = random.Random(seed)
        self.step_count = 0
        #: Every event the scheduler can ever pick, by slot, in scan order
        #: — one delivery per directed channel, then one tick per process.
        self._events: List[Tuple[str, Any, Channel | None]] = [
            ("deliver", key, channel) for key, channel in self._channels.items()
        ] + [("tick", pid, None) for pid in topology.nodes]
        self._tick_slot: Dict[Pid, int] = {
            pid: len(self._channels) + i for i, pid in enumerate(topology.nodes)
        }
        #: Times each slot's event fired; :attr:`counters` reads them.
        self._fired: List[int] = [0] * len(self._events)
        self._selector = FairSelector(patience, len(self._events))
        # The first selection reads every slot.
        changes = self._selector.changes
        for slot, channel in enumerate(self._channels.values()):
            channel._watch(changes, slot)
        for slot in self._tick_slot.values():
            changes[slot] = True
        #: Per-process Lamport clocks, maintained by the engine itself:
        #: ticked on every send/tick/havoc, merged (with the sender's value
        #: at delivery time — an upper bound on its value at send time,
        #: still happened-before-consistent) on every delivery.  Event
        #: detail shapes are untouched, so replay byte-identity holds.
        self.clocks: Dict[Pid, LamportClock] = {
            p: LamportClock() for p in topology.nodes
        }

    # ------------------------------------------------------------- access

    @property
    def counters(self) -> Counter:
        """Per-process ``("delivered"|"tick", pid)`` counts, for tests and
        metrics; built on read, with no entry for a count of zero."""
        counts: Counter = Counter()
        fired = self._fired
        for channel in self._channels.values():
            if fired[channel._slot]:
                counts[("delivered", channel.dst)] += fired[channel._slot]
        for pid, slot in self._tick_slot.items():
            if fired[slot]:
                counts[("tick", pid)] = fired[slot]
        return counts

    @property
    def delivered(self) -> int:
        """Deliveries so far (to dead processes too)."""
        return sum(self._fired[: len(self._channels)])

    @property
    def ticks(self) -> int:
        """Ticks so far, havoc steps included."""
        return sum(self._fired[len(self._channels) :])

    def _emit(self, kind: MpEventKind, pid: Pid | None, detail: Any = None) -> None:
        if self.bus is not None:
            self.bus.publish(TraceEvent(self.step_count, kind, pid, detail))

    def send_message(self, src: Pid, dst: Pid, payload: Tuple) -> bool:
        """Offer ``payload`` to the ``src``→``dst`` channel.

        This is the single path every send takes (contexts route through
        it), so the bus sees an :attr:`~repro.obs.events.MpEventKind.SEND`
        for each accepted message and a
        :attr:`~repro.obs.events.MpEventKind.DROP` for each one the channel
        refused or lost.
        """
        try:
            channel = self._channels[(src, dst)]
        except KeyError:
            raise SimulationError(f"no channel {src!r}->{dst!r}") from None
        accepted = channel.send(payload)
        if accepted:
            self.clocks[src].tick()
        if self.bus is not None:
            self._emit(
                MpEventKind.SEND if accepted else MpEventKind.DROP, src, dst
            )
        return accepted

    def channel(self, src: Pid, dst: Pid) -> Channel:
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise SimulationError(f"no channel {src!r}->{dst!r}") from None

    def channels(self) -> Tuple[Channel, ...]:
        return tuple(self._channels.values())

    def is_alive(self, pid: Pid) -> bool:
        try:
            return self._alive[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    def live_pids(self) -> Tuple[Pid, ...]:
        return tuple(p for p in self.topology.nodes if self._alive[p])

    def in_flight(self) -> int:
        """Total messages currently queued across all channels."""
        return sum(len(c) for c in self._channels.values())

    # ------------------------------------------------------------- faults

    def crash(self, pid: Pid) -> None:
        """Benign crash: the process halts immediately."""
        if not self.is_alive(pid):
            raise DeadProcessError(pid)
        self._alive[pid] = False
        self._selector.changes[self._tick_slot[pid]] = False
        self._malicious_budget.pop(pid, None)
        self._emit(MpEventKind.CRASH, pid)

    def crash_maliciously(self, pid: Pid, havoc_steps: int) -> None:
        """Malicious crash: ``havoc_steps`` arbitrary steps, then halt."""
        if havoc_steps < 0:
            raise SimulationError("havoc_steps must be non-negative")
        if not self.is_alive(pid):
            raise DeadProcessError(pid)
        if havoc_steps == 0:
            self.crash(pid)
        else:
            self._malicious_budget[pid] = havoc_steps
            self._emit(MpEventKind.MALICE_BEGIN, pid, havoc_steps)

    def restart(self, pid: Pid, *, rng: random.Random | None = None) -> None:
        """Relaunch a halted process in place.

        With ``rng`` the process restarts into *arbitrary* local state (its
        :meth:`~repro.mp.node.MpProcess.corrupt` is invoked) — the paper's
        stabilization setting, and the simulator twin of the live cluster's
        :class:`~repro.net.cluster.RestartPolicy` with
        ``arbitrary_state=True``.  Without ``rng`` the process resumes with
        whatever state it halted in.  Channel contents are untouched: junk
        a malicious crash left in flight stays in flight.
        """
        if self.is_alive(pid):
            raise SimulationError(f"restart of a live process {pid!r}")
        self._alive[pid] = True
        self._selector.changes[self._tick_slot[pid]] = True
        self._malicious_budget.pop(pid, None)
        if rng is not None:
            self.processes[pid].corrupt(rng)
        self._emit(MpEventKind.RESTART, pid, rng is not None)

    def transient_fault(self, pids: Iterable[Pid] | None = None) -> None:
        """Corrupt process states and channel contents arbitrarily.

        An unknown pid anywhere in ``pids`` raises before anything is
        corrupted.
        """
        targets = tuple(self.topology.nodes if pids is None else pids)
        target_set = set(targets)
        for pid in targets:
            if pid not in self.processes:
                raise UnknownProcessError(pid)
        for pid in targets:
            self.processes[pid].corrupt(self.rng)
        for (src, dst), channel in self._channels.items():
            if src in target_set or dst in target_set:
                channel.corrupt(self.rng, self.processes[src].random_payload)
        self._emit(MpEventKind.TRANSIENT, None, targets)

    # ----------------------------------------------------------- stepping

    def _choose(self) -> Tuple[str, Any, Channel | None] | None:
        """Pick the next event, or ``None`` when none is available (see
        :meth:`~repro.sim.fairness.FairSelector.select`)."""
        chosen = self._selector.select(self.rng)
        return None if chosen is None else self._events[chosen]

    def step(self) -> bool:
        """One engine step; False when nothing can ever happen again."""
        event = self._choose()
        if event is None:
            return False
        kind, detail, channel = event
        heard = self.bus is not None
        clocks = self.clocks
        if kind == "deliver":
            src, dst = detail
            # ``_choose`` offers only a non-empty channel, so no second
            # check; the pop still goes through the funnel, which writes
            # whether the channel is still non-empty.
            message = channel._pop()
            self._fired[channel._slot] += 1
            clocks[dst].merge(clocks[src].value)
            if heard:
                self._emit(MpEventKind.DELIVER, dst, src)
            # A malicious process consumes messages without meaningful
            # processing; its havoc happens on its ticks.
            if self._alive[dst] and dst not in self._malicious_budget:
                self.processes[dst].on_message(
                    self._contexts[dst], message.src, message.payload
                )
        else:
            pid = detail
            self._fired[self._tick_slot[pid]] += 1
            clocks[pid].tick()
            budget = self._malicious_budget.get(pid)
            if budget is not None:
                if heard:
                    self._emit(MpEventKind.HAVOC, pid)
                self.processes[pid].havoc(self._contexts[pid], self.rng)
                if budget <= 1:
                    self.crash(pid)
                else:
                    self._malicious_budget[pid] = budget - 1
            else:
                if heard:
                    self._emit(MpEventKind.TICK, pid)
                self.processes[pid].on_tick(self._contexts[pid])
        self.step_count += 1
        return True

    def run(
        self,
        max_steps: int,
        *,
        stop_when: Callable[["MpEngine"], bool] | None = None,
        check_every: int = 1,
    ) -> int:
        """Step up to ``max_steps``; returns steps taken.

        ``stop_when`` receives the engine itself (message-passing state has
        no global snapshot object) and is polled every ``check_every`` steps.
        """
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be positive")
        taken = 0
        if stop_when is not None and stop_when(self):
            return taken
        while taken < max_steps:
            if not self.step():
                break
            taken += 1
            if stop_when is not None and taken % check_every == 0 and stop_when(self):
                break
        return taken

    def run_profiled(self, max_steps: int, **kwargs):
        """:meth:`run` under ``cProfile``; returns ``(taken, profile)``.

        The message-passing twin of :meth:`repro.sim.engine.Engine.run_profiled`:
        one hook point over the deliver/tick hot loop.
        """
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            taken = self.run(max_steps, **kwargs)
        finally:
            profile.disable()
        return taken, profile
