"""The adaptive live-cluster adversary: a chaos controller with eyes.

:class:`~repro.net.chaos.ChaosController` plays a fault plan fixed before
the run.  :class:`FeedbackChaosController` additionally *watches* the
cluster's obs event stream (the supervisor feeds it every collected row)
and, on a fixed cadence, aims the chaos layer's actuators at whoever the
stream says is most vulnerable:

* a node that restarted and has not yet converged gets its links
  partitioned — stabilization is attacked mid-flight, exactly when the
  paper's §3 argument has the least slack;
* otherwise the head of the longest waiting chain (the node that has
  waited longest, extended greedily through waiting neighbours) gets
  either a short partition or a burst of replayed captured frames, so
  starvation pressure concentrates where the protocol is already behind.

Every decision draws only on the seeded RNG and previously observed
events, is applied through the ordinary :meth:`apply` path (landing in
``applied`` and the obs stream like any scheduled fault), and
:meth:`as_schedule` renders the whole run — planned and improvised events
alike — as a static :class:`~repro.net.chaos.ChaosSchedule` that replays
without the feedback loop.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..net.chaos import ChaosController, ChaosSchedule, FaultEvent, Link
from ..obs.slo import greedy_chain
from ..sim.topology import Pid, Topology

__all__ = ["FeedbackChaosController"]


class FeedbackChaosController(ChaosController):
    """A :class:`ChaosController` that also improvises, replayably.

    Parameters beyond the base class: ``topology`` (to aim at links),
    ``seed`` (all decision randomness), ``interval_s`` (decision cadence),
    ``hold_s`` (how long an improvised partition lasts before its heal),
    ``max_decisions`` (improvisation budget), and ``on_decision`` — called
    as ``on_decision(event, reason)`` for every improvised fault so the
    supervisor can publish it as an ``ADVERSARY`` obs event.
    """

    def __init__(
        self,
        schedule: ChaosSchedule,
        topology: Topology,
        *,
        seed: int = 0,
        interval_s: float = 0.4,
        hold_s: Optional[float] = None,
        max_decisions: int = 64,
        on_fault=None,
        on_crash=None,
        on_restart=None,
        on_byzantine=None,
        on_decision: Optional[Callable[[FaultEvent, str], None]] = None,
    ) -> None:
        super().__init__(
            schedule,
            on_fault=on_fault,
            on_crash=on_crash,
            on_restart=on_restart,
            on_byzantine=on_byzantine,
        )
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.topology = topology
        self.interval_s = interval_s
        self.hold_s = interval_s * 0.75 if hold_s is None else hold_s
        self.max_decisions = max_decisions
        self._rng = random.Random(seed ^ 0xFEEDBACC)
        self._on_decision = on_decision
        self._by_repr: Dict[str, Pid] = {repr(p): p for p in topology.nodes}
        self._neighbors: Dict[str, Tuple[str, ...]] = {
            repr(p): tuple(sorted(repr(q) for q in topology.neighbors(p)))
            for p in topology.nodes
        }
        self._incident: Dict[str, Tuple[Link, ...]] = {
            repr(p): tuple(
                link
                for q in topology.neighbors(p)
                for link in ((p, q), (q, p))
            )
            for p in topology.nodes
        }
        # --- observed service state, keyed by repr(pid) ---
        self._waiting_since: Dict[str, float] = {
            repr(p): 0.0 for p in topology.nodes
        }
        self._holding: Dict[str, float] = {}
        self._awaiting: Dict[str, float] = {}  # restarted, not yet converged
        #: Most recent open lifecycle span per node (tracing runs only):
        #: decisions name the span they struck, so the offline timeline can
        #: line the adversary's moves up against the victim's own trace.
        self._open_span: Dict[str, str] = {}
        self._pending_heals: List[FaultEvent] = []
        #: improvised events, in decision order (subset of ``applied``).
        self.decisions: List[FaultEvent] = []
        #: human-readable reason per decision, parallel to ``decisions``.
        self.reasons: List[str] = []

    # ------------------------------------------------------------ observing

    def observe(self, row: Mapping[str, Any]) -> None:
        """Feed one collected obs row (the supervisor calls this inline)."""
        node = row.get("node")
        if node is None:
            return
        event = row.get("event")
        t = float(row.get("t") or 0.0)
        if event == "net-grant":
            self._holding[node] = t
            self._waiting_since.pop(node, None)
        elif event == "net-release":
            self._holding.pop(node, None)
            self._waiting_since[node] = t
        elif event == "net-node-restart":
            self._awaiting[node] = t
            self._holding.pop(node, None)
            self._waiting_since[node] = t
        elif event == "net-convergence":
            self._awaiting.pop(node, None)
        elif event == "net-span-open":
            span = (row.get("detail") or {}).get("span")
            if isinstance(span, str):
                self._open_span[node] = span
        elif event == "net-span-close":
            span = (row.get("detail") or {}).get("span")
            if self._open_span.get(node) == span:
                self._open_span.pop(node, None)

    def waiting_chain(self) -> List[str]:
        """Longest-waiting head, extended greedily through waiting
        neighbours — the obs-stream approximation of the simulator's
        :func:`~repro.adversary.strategies.longest_waiting_chain`.

        "Waiting" here is "not holding since the last release or restart",
        not an open wait span: spans exist only in traced runs, and the
        adversary must aim without them."""
        waiting = {
            n: since
            for n, since in self._waiting_since.items()
            if n not in self._holding
        }
        return greedy_chain(waiting, self._neighbors, key=lambda n: (waiting[n], n))

    # ------------------------------------------------------------- deciding

    def decide(self, now_s: float) -> List[FaultEvent]:
        """One improvisation step; pure function of observed state + RNG."""
        at = round(min(now_s, self.schedule.duration_s), 6)
        if self._awaiting:
            # Earliest restarter = deepest into stabilization = closest to
            # converging: cut its links while it is still catching up.
            target = min(self._awaiting, key=lambda n: (self._awaiting[n], n))
            action, reason = "partition", "converging"
        else:
            chain = self.waiting_chain()
            if len(chain) < 2:
                return []
            target = chain[0]
            action = "replay" if self._rng.random() < 0.5 else "partition"
            reason = f"chain-head:{len(chain)}"
        pid = self._by_repr.get(target)
        links = self._incident.get(target, ())
        if pid is None or not links:
            return []
        span = self._open_span.get(target)
        if span is not None:
            reason = f"{reason} span:{span}"
        events: List[FaultEvent] = []
        if action == "partition":
            events.append(
                FaultEvent(at_s=at, kind="partition", links=links, node=pid)
            )
            heal_at = round(
                min(now_s + self.hold_s, self.schedule.duration_s), 6
            )
            self._pending_heals.append(
                FaultEvent(at_s=heal_at, kind="heal", links=links, node=pid)
            )
        else:
            inbound = tuple((a, b) for (a, b) in links if b == pid)
            events.append(
                FaultEvent(at_s=at, kind="replay", links=inbound, node=pid)
            )
        self.reasons.extend(reason for _ in events)
        return events

    # -------------------------------------------------------------- running

    async def run(self, started_at: float, clock=None) -> None:
        """Interleave the base schedule, pending heals, and decisions."""
        loop = asyncio.get_running_loop()
        now = clock if clock is not None else loop.time
        base = list(self.schedule.events)
        i = 0
        next_decision = self.interval_s
        while True:
            now_s = now() - started_at
            while i < len(base) and base[i].at_s <= now_s:
                await self.apply(base[i])
                i += 1
            for event in [e for e in self._pending_heals if e.at_s <= now_s]:
                self._pending_heals.remove(event)
                await self.apply(event)
            if now_s >= next_decision:
                if len(self.decisions) < self.max_decisions:
                    for event in self.decide(now_s):
                        self.decisions.append(event)
                        await self.apply(event)
                        if self._on_decision is not None:
                            self._on_decision(event, self.reasons[-1])
                next_decision = now_s + self.interval_s
            wake = [next_decision]
            if i < len(base):
                wake.append(base[i].at_s)
            wake.extend(e.at_s for e in self._pending_heals)
            delay = min(wake) - (now() - started_at)
            await asyncio.sleep(min(max(delay, 0.01), 0.25))

    def as_schedule(self) -> ChaosSchedule:
        """The run so far as a static fault plan: every applied event —
        planned or improvised — in application order, replayable by a plain
        :class:`~repro.net.chaos.ChaosController` (or written to a corpus
        file) without the feedback loop."""
        return ChaosSchedule(
            seed=self.schedule.seed,
            duration_s=self.schedule.duration_s,
            profiles=dict(self.schedule.profiles),
            events=tuple(self.applied),
        )
