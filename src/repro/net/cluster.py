"""The cluster supervisor: N live nodes on localhost, behind chaos proxies
when the run plays faults.

``ClusterSupervisor`` owns the whole runtime of one run:

* one :class:`~repro.net.node.NodeServer` per topology node (same event
  loop, real TCP sockets on 127.0.0.1, ephemeral ports);
* when a chaos schedule or the adaptive adversary can act on links, one
  :class:`~repro.net.chaos.LinkProxy` per *directed* edge — every peer
  byte crosses a chaos-capable forwarder, so the fault schedule acts at
  the socket level exactly where a real network would.  A fault-free
  cluster has no proxy hop: each node dials its neighbours' own ports;
* a :class:`~repro.net.chaos.ChaosController` playing the seeded
  schedule, including malicious crashes (garbage burst on the victim's
  outgoing links, then the supervisor halts the node);
* a liveness monitor publishing ``CRASH_DETECT`` when a node dies;
* one shared :class:`~repro.obs.bus.EventBus`; everything the nodes and
  the chaos layer publish is collected into an ordered event log and,
  with the nodes' frame counters (traffic is counted, not logged),
  reduced to a :class:`~repro.obs.metrics.MetricsRegistry` and written
  as the standard JSONL artefacts ``repro stats`` summarises.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

from .. import version
from ..adversary.byzantine import subvert
from ..artefact import (
    CANONICAL,
    KINDS,
    present,
    read_jsonl,
    skipped_note,
    tally,
    write_jsonl,
)
from ..mp.diners_mp import DinersMpProcess, precedence_depth
from ..obs.bus import EventBus
from ..obs.events import NetEventKind
from ..obs.flight import DEFAULT_CAPACITY, FlightRecorder, dump_flight
from ..obs.metrics import MetricsRegistry, percentile_of_sorted, write_metrics
from ..obs.prom import PROM_CONTENT_TYPE, Sample, render_prometheus
from ..obs.slo import (
    ExclusionAudit,
    LiveSloEvaluator,
    LockState,
    SloReport,
    SloSpec,
    exclusion_audit,
    read_slo_spec,
)
from ..obs.tracing import LamportClock, SpanRecorder, write_spans
from ..sim.topology import Pid, Topology, from_spec
from ..sim.trace import TraceEvent
from .chaos import ChaosController, ChaosSchedule, LinkProxy, build_schedule
from .node import LockDinerProcess, NodeServer


@dataclass(frozen=True)
class RestartPolicy:
    """How the supervisor relaunches a maliciously crashed node.

    ``arbitrary_state=True`` boots the replacement with randomized local
    protocol state drawn from a seeded RNG — the paper's §3 stabilization
    theorem says the system must converge from *any* state, so recovery
    need not (and, as a test of the claim, deliberately does not) restore
    a checkpoint.  Session state (client demand, held leases) is empty at
    boot regardless: it died with the old server's connections.
    """

    max_restarts: int = 1  #: relaunches allowed per node
    delay_s: float = 0.5  #: downtime between halt and relaunch
    arbitrary_state: bool = True  #: randomize the replacement's state


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines one live-cluster run."""

    topology: Topology
    topology_spec: str
    seed: int = 0
    tick_interval: float = 0.01
    #: ``True`` hosts :class:`LockDinerProcess` (client-driven demand);
    #: ``False`` hosts always-hungry :class:`DinersMpProcess`.
    lock_service: bool = False
    chaos: bool = True
    partitions: int = 1
    malicious_crashes: int = 1
    host: str = "127.0.0.1"
    #: ``None`` leaves crashed nodes down for the rest of the run.
    restart: Optional[RestartPolicy] = None
    #: Play this exact fault plan instead of deriving one from ``seed`` —
    #: the corpus-replay path (``repro cluster soak --schedule-file``).
    #: Overrides ``chaos``/``partitions``/``malicious_crashes``.
    schedule: Optional[ChaosSchedule] = None
    #: Nodes suffering the *beyond-finite* fault: at "crash" time they are
    #: subverted to keep emitting protocol-shaped frames instead of
    #: halting.  Expected to violate neighbour exclusion at the subverted
    #: node — the paper's boundary, demonstrated.
    byzantine: int = 0
    #: Drive chaos through the adaptive adversary
    #: (:class:`repro.adversary.feedback.FeedbackChaosController`): the
    #: controller watches the obs stream and aims partitions/replays at
    #: the most vulnerable node on this cadence.
    adaptive: bool = False
    adaptive_interval: float = 0.4
    #: Write per-node span artefacts (``spans-<node>.jsonl``) here at
    #: teardown; also enables causal tracing on every node server.
    trace_dir: Optional[str] = None
    #: Serve the live Prometheus ``/metrics`` endpoint on this port while
    #: the cluster runs (0 = ephemeral); tracing is enabled too, since the
    #: hunger-latency metrics are derived from span closes.
    metrics_port: Optional[int] = None
    #: Stream every collected event to this JSONL file as it happens, one
    #: flushed line each — a SIGKILL mid-soak loses at most the last line,
    #: not the whole artefact (the final atomic write replaces the file).
    stream_events: Optional[str] = None
    #: Arm a per-node flight recorder and dump ``flight-<node>.jsonl``
    #: black boxes here on a violation, crash, watchdog stall, or SIGTERM.
    flight_dir: Optional[str] = None
    flight_capacity: int = DEFAULT_CAPACITY
    #: Evaluate this SLO spec live against the event stream; a newly
    #: exhausted budget annotates spans and triggers flight dumps.
    slo: Optional[SloSpec] = None

    @property
    def tracing(self) -> bool:
        # Flight dumps carry recent spans, so the recorder implies tracing.
        return (
            self.trace_dir is not None
            or self.metrics_port is not None
            or self.flight_dir is not None
        )


@dataclass
class ClusterResult:
    """What one run leaves behind (pre-artefact, in memory)."""

    topology_spec: str
    seed: int
    duration_s: float
    mode: str  #: ``run`` or ``soak``
    nodes: List[str] = field(default_factory=list)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    events: List[Mapping[str, Any]] = field(default_factory=list)
    schedule: Optional[Dict[str, Any]] = None
    killed: List[str] = field(default_factory=list)
    byzantine: List[str] = field(default_factory=list)
    chunk_faults: Dict[str, int] = field(default_factory=dict)
    restarts: Dict[str, int] = field(default_factory=dict)
    #: Seconds from a node's relaunch to its first client-matched grant —
    #: the run's observed convergence deadline, per restarted node.
    convergence_s: Dict[str, float] = field(default_factory=dict)
    #: Per-node span artefacts written at teardown (tracing runs only).
    trace_paths: List[str] = field(default_factory=list)
    #: Flight-recorder dumps triggered during (or just after) the run.
    flight_paths: List[str] = field(default_factory=list)
    #: The neighbour-exclusion audit (lock-service runs only).
    audit: Optional[ExclusionAudit] = None
    #: The live SLO evaluation (an armed ``slo`` only), its safety verdict
    #: the audit's.
    slo_report: Optional[SloReport] = None
    #: ``True`` when the run was cut short (SIGTERM/SIGINT) — the result
    #: and artefacts cover the partial window.
    interrupted: bool = False

    @property
    def total_grants(self) -> int:
        return sum(c.get("grants", 0) for c in self.counters.values())

    @property
    def total_garbage_bytes(self) -> int:
        return sum(c.get("garbage_bytes", 0) for c in self.counters.values())


_ROW_FIELDS = ("t", "node", "event")


class EventRow(Mapping):
    """One collected event, read as the mapping ``{"t", "node", "event"}``
    plus ``"detail"`` when there is any — the shape the event log has on
    disk.  A run keeps every row (grants, releases, spans, faults; not
    traffic, which is counted) until it ends, so the row is four slots
    (about 100 B with its timestamp), not a dict, and read-only downstream."""

    __slots__ = (*_ROW_FIELDS, "detail")

    def __init__(
        self,
        t: float,
        node: Optional[str],
        event: str,
        detail: Optional[Mapping[str, Any]],
    ) -> None:
        self.t = t
        self.node = node
        self.event = event
        self.detail = detail or None

    def __getitem__(self, key: str) -> Any:
        if key in _ROW_FIELDS:
            return getattr(self, key)
        if key == "detail" and self.detail is not None:
            return self.detail
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        yield from _ROW_FIELDS
        if self.detail is not None:
            yield "detail"

    def __len__(self) -> int:
        return len(_ROW_FIELDS) + (self.detail is not None)

    def __repr__(self) -> str:
        return f"EventRow({dict(self)!r})"


def build_process(pid: Pid, topology: Topology, *, lock_service: bool, seed: int):
    """The diner a live node hosts: :class:`LockDinerProcess` (client-driven
    demand) or an always-hungry :class:`DinersMpProcess`, both in repair
    mode — real links drop frames, and without repair one dropped frame
    loses an edge's fork for good."""
    if lock_service:
        return LockDinerProcess(pid, topology, seed=seed)
    return DinersMpProcess(pid, topology, eat_ticks=2, seed=seed, repair=True)


class ClusterSupervisor:
    """Builds, runs, faults, observes, and tears down one live cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.bus = EventBus()
        self.events: List[EventRow] = []
        #: pid -> its ``repr`` label, shared by every row of that node.
        self._labels: Dict[Pid, str] = {}
        self.bus.subscribe_all(self._collect)
        self.nodes: Dict[Pid, NodeServer] = {}
        self.proxies: Dict[tuple, LinkProxy] = {}
        self.schedule: Optional[ChaosSchedule] = None
        self.controller: Optional[ChaosController] = None
        self.killed: List[Pid] = []
        self.byzantine: List[Pid] = []
        self.chunk_faults: Dict[str, int] = {}
        self.restarts: Dict[Pid, int] = {}
        self.convergence_s: Dict[str, float] = {}
        #: repr(pid) -> relaunch time, cleared at the first post-restart
        #: client-matched grant (the convergence signal).
        self._awaiting_convergence: Dict[str, float] = {}
        #: Counters of retired (pre-restart) server incarnations.
        self._retired_counters: Dict[str, Dict[str, int]] = {}
        self._crash_reported: set = set()
        self._t0: Optional[float] = None
        self._chaos_task: Optional[asyncio.Task] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._stopped = False
        self.interrupted = False
        # ---- causal tracing: one recorder + clock per node, shared by
        # every incarnation (restarts extend the same span history).
        self.tracers: Dict[str, SpanRecorder] = {}
        self._clocks: Dict[str, LamportClock] = {}
        self.trace_paths: List[str] = []
        # ---- black boxes + live SLO judgment
        self.flights: Dict[str, FlightRecorder] = {}
        self.flight_paths: List[str] = []
        self._flight_reasons: set = set()
        self.slo_eval: Optional[LiveSloEvaluator] = (
            None if config.slo is None
            else LiveSloEvaluator(config.slo, config.topology)
        )
        #: Who waits, who holds, grant waits: the one fold of the rows.
        self.lock_state: LockState = (
            LockState(config.topology) if self.slo_eval is None
            else self.slo_eval.state
        )
        self._retired_edge_rtx: Dict[tuple, int] = {}
        self._metrics_endpoint: Optional[MetricsEndpoint] = None
        self.metrics_port: Optional[int] = None
        self._stream_handle: Optional[TextIO] = None

    # ---------------------------------------------------------- collection

    def _collect(self, event: TraceEvent) -> None:
        detail = event.detail if isinstance(event.detail, dict) else {}
        kind = event.kind.value if hasattr(event.kind, "value") else str(event.kind)
        pid = event.pid
        node = None
        if pid is not None:
            node = self._labels.get(pid)
            if node is None:
                node = self._labels[pid] = repr(pid)
        extra = {k: v for k, v in detail.items() if k != "t"}
        row = EventRow(detail.get("t", 0.0), node, kind, extra)
        self.events.append(row)
        if self._stream_handle is not None:
            try:
                self._stream_handle.write(
                    json.dumps({"kind": "event", **row}, **CANONICAL) + "\n"
                )
                self._stream_handle.flush()
            except (OSError, ValueError):
                self._stream_handle = None  # disk gone; keep serving
        # Every node's black box sees its own happenings as they stream by.
        if node is not None:
            flight = self.flights.get(node)
            if flight is not None:
                flight.note_event(row)
        # The lock-service state /metrics reads; an armed SLO evaluator
        # folds the row into it while judging it.  A newly exhausted budget
        # stamps the implicated spans and freezes every black box while the
        # incriminating history is still in the rings.
        if self.slo_eval is not None:
            for hit in self.slo_eval.on_event(row):
                self._on_slo_exhausted(hit, row.t)
        else:
            self.lock_state.feed(row)
        # A client watchdog declaring a link silently stalled is a flight
        # trigger too — the stall's lead-up is exactly what the ring holds.
        if (
            kind == NetEventKind.CLIENT_RECONNECT.value
            and "watchdog" in str(extra.get("after", ""))
        ):
            self.dump_flights(f"stall:{node}")
        # The adaptive adversary (when configured) reads the same stream
        # the artefacts record — no privileged state channel.
        observe = getattr(self.controller, "observe", None)
        if observe is not None:
            observe(row)
        # Convergence watch: a restarted node has re-stabilized (for the
        # service's purposes) at its first grant that answers a real client
        # acquire — corrupted-state "eats" carry no request id and do not
        # count.  Pop before emitting; _emit re-enters this collector.
        if (
            kind == NetEventKind.GRANT.value
            and node in self._awaiting_convergence
            and extra.get("req") is not None
        ):
            restarted_at = self._awaiting_convergence.pop(node)
            elapsed = round(max(0.0, row.t - restarted_at), 6)
            self.convergence_s[node] = elapsed
            self._emit(
                NetEventKind.CONVERGENCE, event.pid, {"elapsed_s": elapsed}
            )

    def _emit(self, kind: NetEventKind, pid: Pid | None, detail: dict) -> None:
        loop = asyncio.get_running_loop()
        t = 0.0 if self._t0 is None else round(loop.time() - self._t0, 6)
        self.bus.publish(TraceEvent(len(self.events), kind, pid, {"t": t, **detail}))

    # ----------------------------------------------------------- lifecycle

    def _build_process(self, pid: Pid, index: int):
        cfg = self.config
        return build_process(
            pid, cfg.topology, lock_service=cfg.lock_service, seed=cfg.seed + index
        )

    def _tracer_for(self, pid: Pid) -> Optional[SpanRecorder]:
        if not self.config.tracing:
            return None
        key = repr(pid)
        return self.tracers.setdefault(key, SpanRecorder(key))

    def _clock_for(self, pid: Pid) -> Optional[LamportClock]:
        if not self.config.tracing:
            return None
        key = repr(pid)
        return self._clocks.setdefault(key, LamportClock())

    def _flight_for(self, pid: Pid) -> Optional[FlightRecorder]:
        if self.config.flight_dir is None:
            return None
        key = repr(pid)
        return self.flights.setdefault(
            key, FlightRecorder(key, capacity=self.config.flight_capacity)
        )

    def _on_slo_exhausted(self, hit: Dict[str, Any], t: float) -> None:
        """An objective's budget just ran out: stamp the implicated nodes'
        current spans (the timeline walk-back lands on them) and freeze
        the black boxes."""
        objective = hit.get("objective", "?")
        for key in hit.get("nodes") or ():
            tracer = self.tracers.get(key)
            if tracer is None:
                continue
            clock = self._clocks.get(key)
            tracer.event(
                tracer.current(),
                "slo",
                lc=clock.tick() if clock is not None else 0,
                t=t,
                detail={"objective": objective},
            )
        self.dump_flights(f"slo:{objective}")

    def dump_flights(self, reason: str) -> List[str]:
        """Dump every armed ring to ``flight-<node>.jsonl``, once per
        distinct reason.  Works after :meth:`stop` too — the rings are
        plain memory, so a post-run audit can still freeze them."""
        if self.config.flight_dir is None or reason in self._flight_reasons:
            return []
        self._flight_reasons.add(reason)
        written: List[str] = []
        for key in sorted(self.flights):
            path = (
                Path(self.config.flight_dir)
                / f"flight-{sanitize_node(key)}.jsonl"
            )
            dump_flight(
                path,
                self.flights[key],
                reason=reason,
                tracer=self.tracers.get(key),
                header={
                    "topology": self.config.topology_spec,
                    "seed": self.config.seed,
                },
            )
            written.append(str(path))
            if str(path) not in self.flight_paths:
                self.flight_paths.append(str(path))
        return written

    def _open_stream(self, path_s: str) -> Optional[TextIO]:
        path = Path(path_s)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            handle = path.open("w", encoding="utf-8")
        except OSError:
            return None
        header = {
            "format": KINDS["events"].format,
            "kind": "header",
            "source": "soak-events" if self.config.lock_service
            else "cluster-events",
            "topology": self.config.topology_spec,
            "seed": self.config.seed,
            "provisional": True,  # the post-run write replaces this file
        }
        handle.write(json.dumps(header, **CANONICAL) + "\n")
        handle.flush()
        return handle

    async def start(self, duration_s: float) -> None:
        """Bring every node and proxy up; wire the peer address maps."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        if cfg.stream_events is not None:
            self._stream_handle = self._open_stream(cfg.stream_events)
        for i, pid in enumerate(cfg.topology.nodes):
            node = NodeServer(
                pid,
                cfg.topology,
                self._build_process(pid, i),
                host=cfg.host,
                tick_interval=cfg.tick_interval,
                bus=self.bus,
                t0=self._t0,
                tracer=self._tracer_for(pid),
                clock=self._clock_for(pid),
                flight=self._flight_for(pid),
            )
            self.nodes[pid] = node
            await node.start_listening()
        if cfg.metrics_port is not None:
            self._metrics_endpoint = MetricsEndpoint(
                self.live_samples, cfg.host, cfg.metrics_port
            )
            self.metrics_port = await self._metrics_endpoint.start()

        policy = cfg.restart
        if cfg.schedule is not None:
            self.schedule = cfg.schedule
        elif cfg.chaos:
            self.schedule = build_schedule(
                cfg.topology,
                seed=cfg.seed,
                duration_s=duration_s,
                partitions=cfg.partitions,
                malicious_crashes=cfg.malicious_crashes,
                restarts=0 if policy is None else policy.max_restarts,
                restart_delay_s=0.5 if policy is None else policy.delay_s,
                byzantine=cfg.byzantine,
            )
        else:
            self.schedule = ChaosSchedule(seed=cfg.seed, duration_s=duration_s)
        if cfg.adaptive:
            # Deferred import: repro.adversary.feedback imports net.chaos.
            from ..adversary.feedback import FeedbackChaosController

            self.controller = FeedbackChaosController(
                self.schedule,
                cfg.topology,
                seed=cfg.seed,
                interval_s=cfg.adaptive_interval,
                on_fault=self._on_scheduled_fault,
                on_crash=self._kill_node,
                on_restart=self._restart_node,
                on_byzantine=self._subvert_node,
                on_decision=self._on_adversary_decision,
            )
        else:
            self.controller = ChaosController(
                self.schedule,
                on_fault=self._on_scheduled_fault,
                on_crash=self._kill_node,
                on_restart=self._restart_node,
                on_byzantine=self._subvert_node,
            )

        # A proxy costs every peer frame one more TCP hop; build them only
        # where something can act on links.
        if cfg.schedule is not None or cfg.chaos or cfg.adaptive:
            await self._start_proxies()
        for p in cfg.topology.nodes:
            await self.nodes[p].connect_peers(self._peer_addresses(p))
        self._monitor_task = asyncio.create_task(self._monitor())

    async def _start_proxies(self) -> None:
        """One :class:`LinkProxy` per directed edge, registered with the
        controller that plays the schedule on them."""
        cfg = self.config
        for p in cfg.topology.nodes:
            for q in cfg.topology.neighbors(p):
                link = (p, q)
                proxy = LinkProxy(
                    link,
                    cfg.host,
                    self.nodes[q].port,
                    profile=self.schedule.profiles.get(link),
                    # A string seed keeps per-link decisions reproducible
                    # across processes (hash() is salted; this is not).
                    rng=random.Random(f"{cfg.seed}:{link!r}"),
                    on_fault=self._on_chunk_fault,
                )
                await proxy.start(cfg.host)
                self.proxies[link] = proxy
                self.controller.register(proxy)

    def _peer_addresses(self, p: Pid) -> Dict[Pid, Tuple[str, int]]:
        """Where ``p`` dials each neighbour: the link's chaos proxy, or
        the neighbour's own port when the run has none."""
        host = self.config.host
        addresses = {}
        for q in self.config.topology.neighbors(p):
            proxy = self.proxies.get((p, q))
            addresses[q] = (
                host, self.nodes[q].port if proxy is None else proxy.port
            )
        return addresses

    async def run(self, duration_s: float) -> None:
        """Play the chaos schedule while the cluster serves for the window."""
        assert self._t0 is not None, "start() must run first"
        self._chaos_task = asyncio.create_task(
            self.controller.run(self._t0)
        )
        loop = asyncio.get_running_loop()
        remaining = self._t0 + duration_s - loop.time()
        if remaining > 0:
            await asyncio.sleep(remaining)

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self.interrupted:
            # SIGTERM/SIGINT: the final artefacts may never be written, so
            # the black boxes are the postmortem.  Dump before teardown.
            self.dump_flights("sigterm")
        for task in (self._chaos_task, self._monitor_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.close()
            self._metrics_endpoint = None
        for node in self.nodes.values():
            await node.stop()
        for proxy in self.proxies.values():
            await proxy.close()
        if self._stream_handle is not None:
            try:
                self._stream_handle.flush()
                os.fsync(self._stream_handle.fileno())
                self._stream_handle.close()
            except (OSError, ValueError):
                pass
            self._stream_handle = None
        if self.config.trace_dir is not None:
            for key in sorted(self.tracers):
                path = (
                    Path(self.config.trace_dir)
                    / f"spans-{sanitize_node(key)}.jsonl"
                )
                write_spans(
                    path,
                    self.tracers[key],
                    header={
                        "topology": self.config.topology_spec,
                        "seed": self.config.seed,
                    },
                )
                self.trace_paths.append(str(path))

    # --------------------------------------------------------------- chaos

    def _on_scheduled_fault(self, event) -> None:
        self._record_chaos_span(event)
        self._emit(
            NetEventKind.CHAOS,
            event.node,
            {"kind": event.kind, "links": len(event.links)},
        )

    def _record_chaos_span(self, event) -> None:
        """Stamp a chaos hit onto the victim's current span, so the offline
        timeline can attribute latency the fault induced."""
        if event.node is None:
            return
        key = repr(event.node)
        tracer = self.tracers.get(key)
        if tracer is None:
            return
        loop = asyncio.get_running_loop()
        t = 0.0 if self._t0 is None else round(loop.time() - self._t0, 6)
        tracer.event(
            tracer.current(),
            "chaos",
            lc=self._clocks[key].tick(),
            t=t,
            detail={"kind": event.kind},
        )

    def _on_chunk_fault(self, kind: str, link) -> None:
        self.chunk_faults[kind] = self.chunk_faults.get(kind, 0) + 1

    def _on_adversary_decision(self, event, reason: str) -> None:
        # The applied fault itself reaches _on_scheduled_fault (and the
        # victim's span) via on_fault; here we only log the decision.
        self._emit(
            NetEventKind.ADVERSARY,
            event.node,
            {"kind": event.kind, "reason": reason, "links": len(event.links)},
        )

    async def _kill_node(self, pid: Pid) -> None:
        """The halt half of a malicious crash: the node simply stops."""
        node = self.nodes.get(pid)
        if node is None:
            return
        self.killed.append(pid)
        await node.stop()

    async def _subvert_node(self, pid: Pid) -> None:
        """The beyond-finite fault: swap the node's process for a Byzantine
        double that claims the lock forever and forges fork frames.  The
        server keeps running — from outside, the node "crashed" but never
        went quiet."""
        node = self.nodes.get(pid)
        if node is None or not node._running:
            return
        try:
            node.process = subvert(node.process)
        except TypeError:
            return  # not a diner process; nothing to subvert
        self.byzantine.append(pid)
        self._emit(NetEventKind.BYZANTINE, pid, {})

    async def _restart_node(self, pid: Pid) -> None:
        """Relaunch a halted node under the configured restart policy.

        The replacement listens on the *same* port (neighbours and their
        proxies dial it by address), hosts a fresh process — randomized to
        an arbitrary state when the policy says so — and re-dials what the
        first incarnation dialled: its outgoing chaos proxies, which the
        controller revived just before calling here, or its neighbours.
        """
        cfg = self.config
        policy = cfg.restart
        if policy is None or policy.max_restarts <= 0:
            return
        old = self.nodes.get(pid)
        if old is None or old._running:
            return
        if self.restarts.get(pid, 0) >= policy.max_restarts:
            return
        count = self.restarts.get(pid, 0) + 1
        index = list(cfg.topology.nodes).index(pid)
        process = self._build_process(pid, index)
        if policy.arbitrary_state:
            rng = random.Random(f"{cfg.seed}:restart:{pid!r}:{count}")
            corrupt = getattr(process, "corrupt", None)
            if corrupt is not None:
                corrupt(rng)
        self._retired_counters[repr(pid)] = merge_counters(
            self._retired_counters.get(repr(pid), {}), old.counters()
        )
        for peer, n in old.retransmits_by_peer.items():
            edge = (repr(pid), peer)
            self._retired_edge_rtx[edge] = self._retired_edge_rtx.get(edge, 0) + n
        node = NodeServer(
            pid,
            cfg.topology,
            process,
            host=cfg.host,
            port=old.port or 0,
            tick_interval=cfg.tick_interval,
            bus=self.bus,
            t0=self._t0,
            epoch=count,
            # Same recorder and clock as every previous incarnation: the
            # node's causal history is one line, epochs tell spans apart.
            tracer=self._tracer_for(pid),
            clock=self._clock_for(pid),
            flight=self._flight_for(pid),
        )
        for _ in range(20):
            try:
                await node.start_listening()
                break
            except OSError:
                await asyncio.sleep(0.05)  # old socket still in TIME_WAIT
        else:
            return  # port never came free; the node stays down
        self.nodes[pid] = node
        self.restarts[pid] = count
        self._crash_reported.discard(pid)
        await node.connect_peers(self._peer_addresses(pid))
        loop = asyncio.get_running_loop()
        restarted_at = round(loop.time() - self._t0, 6)
        self._awaiting_convergence[repr(pid)] = restarted_at
        self._emit(
            NetEventKind.NODE_RESTART,
            pid,
            {"epoch": count, "arbitrary": policy.arbitrary_state},
        )

    async def _monitor(self) -> None:
        """Liveness watchdog: report nodes that stopped ticking."""
        while True:
            await asyncio.sleep(0.2)
            for pid, node in self.nodes.items():
                if node.halted and pid not in self._crash_reported:
                    self._crash_reported.add(pid)
                    expected = pid in self.killed
                    self._emit(
                        NetEventKind.CRASH_DETECT,
                        pid,
                        {"expected": expected},
                    )
                    # Freeze the black boxes while the crash's lead-up is
                    # still in the rings (scheduled kills included — the
                    # point of a flight recorder is the moments *before*).
                    self.dump_flights(f"crash:{pid!r}")

    # ------------------------------------------------------------ telemetry

    def precedence_depth(self) -> int:
        """Longest "has priority over" chain among the nodes still serving
        the protocol, read off their fork state — what bounds how many can
        hold the lock at once (see :func:`repro.mp.diners_mp.precedence_depth`)."""
        return precedence_depth(
            self.config.topology,
            {pid: node.process for pid, node in self.nodes.items()},
            alive=lambda pid: (
                self.nodes[pid]._running and pid not in self.byzantine
            ),
        )

    def live_samples(self) -> List[Sample]:
        """The /metrics sample set — everything ``repro top`` renders."""
        loop = asyncio.get_running_loop()
        uptime = 0.0 if self._t0 is None else round(loop.time() - self._t0, 6)
        samples: List[Sample] = [
            Sample("repro_cluster_uptime_seconds", uptime,
                   help="Seconds since the supervisor started"),
            Sample("repro_cluster_killed", float(len(self.killed)),
                   help="Nodes halted by malicious crashes"),
            Sample("repro_cluster_waiting_chain_length",
                   float(len(self.lock_state.waiting_chain())),
                   help="Longest chain of hungry nodes waiting on each other"),
            Sample("repro_cluster_precedence_depth",
                   float(self.precedence_depth()),
                   help="Longest has-priority-over chain among live nodes"),
        ]
        if self.lock_state.grants:
            ordered = sorted(wait for _t, _n, wait in self.lock_state.grants)
            for q in (0.5, 0.9, 0.99):
                samples.append(
                    Sample("repro_cluster_hunger_latency_seconds",
                           round(percentile_of_sorted(ordered, q), 6),
                           labels={"q": str(q)},
                           help="Acquire-to-grant latency percentiles")
                )
        per_node = self.counters()
        gauges = (
            ("repro_node_grants_total", "grants", "counter"),
            ("repro_node_msgs_in_total", "msgs_in", "counter"),
            ("repro_node_msgs_out_total", "msgs_out", "counter"),
            ("repro_node_retransmits_total", "retransmits", "counter"),
            ("repro_node_epoch", "epoch", "gauge"),
        )
        for pid, node in sorted(self.nodes.items(), key=lambda kv: repr(kv[0])):
            key = repr(pid)
            samples.append(
                Sample("repro_node_up", 1.0 if node._running else 0.0,
                       labels={"node": key},
                       help="1 while the node's server is running")
            )
            counters = per_node[key]
            for name, counter_key, kind in gauges:
                samples.append(
                    Sample(name, float(counters.get(counter_key, 0)),
                           labels={"node": key}, kind=kind)
                )
        edges: Dict[tuple, int] = dict(self._retired_edge_rtx)
        for pid, node in self.nodes.items():
            for peer, n in node.retransmits_by_peer.items():
                edge = (repr(pid), peer)
                edges[edge] = edges.get(edge, 0) + n
        for (src, dst), n in sorted(edges.items()):
            samples.append(
                Sample("repro_edge_retransmits_total", float(n),
                       labels={"node": src, "peer": dst}, kind="counter",
                       help="Identical re-sends per directed edge")
            )
        for node_key, elapsed in sorted(self.convergence_s.items()):
            samples.append(
                Sample("repro_cluster_convergence_seconds", elapsed,
                       labels={"node": node_key},
                       help="Restart to first client-matched grant")
            )
        if self.slo_eval is not None:
            samples.extend(self.slo_eval.samples())
        return samples

    # -------------------------------------------------------------- results

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Every node's counters, its retired incarnations' folded in."""
        return {
            repr(p): merge_counters(
                self._retired_counters.get(repr(p), {}), n.counters()
            )
            for p, n in self.nodes.items()
        }

    def result(self, duration_s: float) -> ClusterResult:
        cfg = self.config
        return ClusterResult(
            topology_spec=cfg.topology_spec,
            seed=cfg.seed,
            duration_s=duration_s,
            mode="soak" if cfg.lock_service else "run",
            nodes=[repr(p) for p in cfg.topology.nodes],
            counters=self.counters(),
            # Stable: rows stamped with the same time keep arrival order.
            events=sorted(self.events, key=lambda e: e.t),
            schedule=None if self.schedule is None else self.schedule.describe(),
            killed=[repr(p) for p in self.killed],
            byzantine=[repr(p) for p in self.byzantine],
            chunk_faults=dict(self.chunk_faults),
            restarts={repr(p): n for p, n in self.restarts.items()},
            convergence_s=dict(self.convergence_s),
            trace_paths=list(self.trace_paths),
            flight_paths=list(self.flight_paths),
            interrupted=self.interrupted,
        )


_NODE_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_node(key: str) -> str:
    """A node key (``repr(pid)``) as a filesystem-safe artefact stem."""
    cleaned = _NODE_SAFE.sub("_", key).strip("_")
    return cleaned or "node"


class MetricsEndpoint:
    """A /metrics HTTP listener (Prometheus text format) over any sampler.

    Deliberately minimal: one GET per connection, rendered from the given
    zero-argument ``sample_fn`` at request time, connection closed.
    Enough for a scraper or ``repro top``; not a web server.  The cluster
    supervisor serves :meth:`ClusterSupervisor.live_samples` through one;
    the gateway serves its mux/batch gauges through another.
    """

    def __init__(self, sample_fn, host: str, port: int) -> None:
        self._sample_fn = sample_fn
        self._host = host
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self.port: Optional[int] = None

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._serve, self._host, self._port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            ok = request.startswith(b"GET ")
            body = (
                render_prometheus(self._sample_fn())
                if ok else "method not allowed\n"
            ).encode("utf-8")
            status = b"200 OK" if ok else b"405 Method Not Allowed"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + PROM_CONTENT_TYPE.encode("ascii") + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def merge_counters(
    older: Dict[str, int], newer: Dict[str, int]
) -> Dict[str, int]:
    """Fold a retired server incarnation's counters into its successor's.

    Everything is additive except ``epoch``, which identifies the latest
    incarnation rather than accumulating.
    """
    merged = dict(older)
    for key, value in newer.items():
        if key == "epoch":
            merged[key] = max(merged.get(key, 0), value)
        else:
            merged[key] = merged.get(key, 0) + value
    return merged


async def supervised_run(
    config: ClusterConfig,
    duration_s: float,
    traffic: Optional[Callable[[ClusterSupervisor, float], Awaitable[None]]] = None,
) -> ClusterResult:
    """The one live run: start → traffic → stop → result, with a lock
    service's :func:`~repro.obs.slo.exclusion_audit` as ``result.audit``.

    ``traffic`` is called with the started supervisor and the window's end
    (loop time); it stops itself or is cancelled, and tears down what it
    started.  Cancellation (SIGTERM/SIGINT, see :func:`run_interruptible`)
    is an orderly early shutdown — traffic first, then the cluster — and
    the partial result still comes back.  An armed SLO evaluator adopts
    the audit's verdict; a violation freezes the black boxes.
    """
    if traffic is not None and not config.lock_service:
        raise ValueError("lock clients need a lock_service cluster config")
    supervisor = ClusterSupervisor(config)
    task: Optional[asyncio.Task] = None
    try:
        await supervisor.start(duration_s)
        if traffic is not None:
            task = asyncio.create_task(
                traffic(supervisor, supervisor._t0 + duration_s)
            )
        await supervisor.run(duration_s)
        if task is not None:
            await task
    except asyncio.CancelledError:
        supervisor.interrupted = True
    finally:
        if task is not None and not task.done():
            task.cancel()
            await asyncio.wait([task])
        await supervisor.stop()
    result = supervisor.result(duration_s)
    if not config.lock_service:
        return result
    # The supervisor's fold saw every grant and release in arrival order —
    # the order the event log keeps for equal times — so its intervals are
    # the log's without a second pass over the retained rows.
    audit = result.audit = exclusion_audit(
        supervisor.lock_state, duration_s, result.killed
    )
    if supervisor.slo_eval is not None:
        # The interval audit is authoritative for safety: adopt any overlap
        # the live grant-order check missed before the final verdict.
        supervisor.slo_eval.reconcile_safety(
            [v.overlap_start for v in audit.violations]
        )
        result.slo_report = supervisor.slo_eval.report()
    if audit.violations:
        # Neighbour exclusion was broken: freeze the black boxes so the
        # postmortem survives even if artefact writes never happen.
        supervisor.dump_flights("soak-violation")
        result.flight_paths = list(supervisor.flight_paths)
    return result


async def run_cluster(config: ClusterConfig, duration_s: float) -> ClusterResult:
    """A supervised run with no traffic but the diners' own hunger."""
    return await supervised_run(config, duration_s)


# ---------------------------------------------------------------- artefacts


def cluster_metrics(result: ClusterResult) -> MetricsRegistry:
    """Reduce a run to the standard metrics instruments."""
    registry = MetricsRegistry()
    for node in sorted(result.counters):
        for key, value in sorted(result.counters[node].items()):
            counter = registry.counter(f"net/{node}/{key}")
            counter.inc(value)
    grants = registry.counter("cluster/grants")
    grants.inc(result.total_grants)
    registry.counter("cluster/garbage_bytes").inc(result.total_garbage_bytes)
    registry.gauge("cluster/nodes").set(len(result.nodes))
    registry.gauge("cluster/killed").set(len(result.killed))
    registry.gauge("cluster/byzantine").set(len(result.byzantine))
    registry.counter("cluster/restarts").inc(sum(result.restarts.values()))
    for node in sorted(result.convergence_s):
        registry.gauge(f"cluster/convergence_s/{node}").set(
            result.convergence_s[node]
        )
    for kind in sorted(result.chunk_faults):
        registry.counter(f"chaos/chunk_faults/{kind}").inc(
            result.chunk_faults[kind]
        )
    scheduled = registry.counter("chaos/scheduled_faults")
    if result.schedule:
        scheduled.inc(len(result.schedule.get("events", ())))
    events_by_kind: Dict[str, int] = {}
    for event in result.events:
        kind = event["event"]
        events_by_kind[kind] = events_by_kind.get(kind, 0) + 1
    for kind in sorted(events_by_kind):
        registry.counter(f"cluster/events/{kind}").inc(events_by_kind[kind])
    return registry


def artefact_header(result: ClusterResult, source: str) -> Dict[str, Any]:
    """The shared header of both cluster artefact files."""
    return {
        "source": source,
        "topology": result.topology_spec,
        "seed": result.seed,
        "duration_s": result.duration_s,
        "nodes": len(result.nodes),
        "version": version(),
    }


def write_cluster_metrics(path: Path | str, result: ClusterResult) -> Path:
    source = "cluster-soak" if result.mode == "soak" else "cluster-run"
    header = artefact_header(result, source)
    if result.audit is not None:
        violations = len(result.audit.violations)
        header.update(safe=not violations, violations=violations)
    return write_metrics(
        path, cluster_metrics(result), header=header, include_meta=True
    )


def read_cluster_events(
    path: Path | str,
) -> tuple[Dict[str, Any], List[Dict[str, Any]], int]:
    """Parse an event-log artefact leniently.

    Returns ``(header, events, skipped_lines)``.  Unparseable or foreign
    lines are counted, not fatal — a soak cut short by a crash leaves a
    truncated tail, and the summary should still come out.
    """
    header, rows, skipped = read_jsonl(path)
    events = [row for row in rows if row.get("kind") == "event"]
    return header, events, skipped + len(rows) - len(events)


def summarize_cluster_events(
    log: tuple[Dict[str, Any], List[Dict[str, Any]], int],
) -> List[str]:
    """The ``repro stats`` lines for a parsed event log — and what
    ``cluster run``/``soak`` print for the log they write (see
    :func:`run_summary`)."""
    header, events, skipped = log
    lines = [f"cluster event log: {len(events)} events "
             f"({header.get('source', '?')})"]
    if header.get("nodes") is not None:  # the final header, not a provisional one
        mode = "soak" if header.get("source") == "soak-events" else "run"
        lines.append(
            f"  cluster {header.get('topology')} seed={header.get('seed')}: "
            f"{mode} for {header.get('duration_s')}s, {header['nodes']} nodes"
            + (" (interrupted)" if header.get("interrupted") else "")
        )
    lines += present(
        header, ("topology", "seed", "duration_s", "nodes", "version")
    )
    for c in header.get("counters") or ():
        lines.append(
            f"    {c.get('node')}: eats={c.get('eats', 0)} "
            f"grants={c.get('grants', 0)} "
            f"msgs in/out={c.get('msgs_in', 0)}/{c.get('msgs_out', 0)} "
            f"garbage={c.get('garbage_bytes', 0)}B junk={c.get('junk_frames', 0)}"
        )
    schedule = header.get("schedule") or {}
    if schedule.get("events") is not None:
        link = header.get("chunk_faults")
        lines.append(f"  scheduled faults: {len(schedule['events'])}"
                     + (f"; link-level {_times(link)}" if link else ""))
    for key, label in (("killed", "maliciously crashed"),
                       ("byzantine", "byzantine (never halted)")):
        if header.get(key):
            lines.append(f"  {label}: {', '.join(header[key])}")
    if header.get("restarts"):
        lines.append(f"  restarted: {_times(header['restarts'])}")
    for node, elapsed in sorted((header.get("convergence_s") or {}).items()):
        lines.append(
            f"  convergence: {node} re-granted {elapsed:.3f}s after restart"
        )
    lines += tally(event.get("event", "?") for event in events)
    return lines + skipped_note(skipped)


def _times(counts: Mapping[str, int]) -> str:
    return ", ".join(f"{name}×{count}" for name, count in sorted(counts.items()))


def events_header(result: ClusterResult) -> Dict[str, Any]:
    """The event log's header: the run's facts, its fault schedule and
    outcome, and every node's counters in node order."""
    source = "soak-events" if result.mode == "soak" else "cluster-events"
    return {
        **artefact_header(result, source),
        "interrupted": result.interrupted,
        "counters": [
            {"node": node, **result.counters.get(node, {})}
            for node in result.nodes
        ],
        "chunk_faults": result.chunk_faults,
        "schedule": result.schedule,
        "killed": result.killed,
        "byzantine": result.byzantine,
        "restarts": result.restarts,
        "convergence_s": result.convergence_s,
    }


def write_cluster_events(path: Path | str, result: ClusterResult) -> Path:
    """The event-log artefact: :func:`events_header`, then one line per
    observed event in time order."""
    return write_jsonl(
        path, "events", events_header(result),
        ({"kind": "event", **event} for event in result.events),
    )


def run_summary(result: ClusterResult) -> List[str]:
    """What ``cluster run``/``soak`` print about a run: the block ``repro
    stats`` prints on its event log (the one ``--events-out`` writes, or
    the same log in memory), then the span and flight paths the log does
    not carry."""
    log = (events_header(result), result.events, 0)
    return (
        summarize_cluster_events(log)
        + [f"  spans: {path}" for path in result.trace_paths]
        + [f"  flight: {path}" for path in result.flight_paths]
    )


# ------------------------------------------------------------------ command


def cluster_config(
    *, lock_service: bool, nodes: int, topology: Optional[str], seed: int,
    duration: float, tick_interval: float, host: str, no_chaos: bool, partitions: int,
    malicious: int, restart_policy: str, max_restarts: int, restart_delay: float,
    byzantine: int, adaptive: bool, adaptive_interval: float,
    schedule_file: Optional[str], trace: Optional[str], metrics_port: Optional[int],
    events_out: Optional[str], flight: Optional[str], flight_capacity: Optional[int],
    slo: Optional[str] = None,
) -> Tuple[ClusterConfig, float]:
    """``(config, duration_s)`` for the flags every live-cluster command
    (``cluster run``/``soak``, ``loadgen``) shares.  The rules:

    * a ``schedule_file`` is the whole experiment — topology, seed,
      duration and the complete fault plan come from it, never from the
      other flags;
    * a replayed plan that schedules restarts may execute them: without a
      ``restart_policy`` they get an arbitrary-state one allowing each
      node's scheduled count, or the replay silently runs a different
      experiment;
    * ``slo`` is the path of a spec evaluated live; ``flight_capacity``
      (``None``: the recorder's default) must be at least 1.
    """
    loaded = None
    if schedule_file:
        from ..adversary.corpus import read_schedule

        loaded = read_schedule(schedule_file)
        spec, topo = loaded.topology_spec, loaded.topology
        seed, duration = loaded.schedule.seed, loaded.schedule.duration_s
    else:
        if nodes < 2 and not topology:
            raise ValueError("--nodes must be >= 2")
        spec = topology or f"ring:{nodes}"
        topo = from_spec(spec)
    restart = None
    if restart_policy != "off":
        if max_restarts < 1:
            raise ValueError("--max-restarts must be >= 1 with a restart policy")
        restart = RestartPolicy(
            max_restarts=max_restarts,
            delay_s=restart_delay,
            arbitrary_state=restart_policy == "arbitrary",
        )
    elif loaded is not None:
        restarts = Counter(
            repr(event.node) for event in loaded.schedule.events
            if event.kind == "restart"
        )
        if restarts:
            restart = RestartPolicy(
                max_restarts=max(restarts.values()), delay_s=0.0,
                arbitrary_state=True,
            )
    if flight_capacity is not None and flight_capacity < 1:
        raise ValueError("--flight-capacity must be >= 1")
    return ClusterConfig(
        topology=topo,
        topology_spec=spec,
        seed=seed,
        tick_interval=tick_interval,
        lock_service=lock_service,
        chaos=not no_chaos,
        partitions=partitions,
        malicious_crashes=malicious,
        host=host,
        restart=restart,
        schedule=None if loaded is None else loaded.schedule,
        byzantine=byzantine,
        adaptive=adaptive,
        adaptive_interval=adaptive_interval,
        trace_dir=trace,
        metrics_port=metrics_port,
        stream_events=events_out,
        flight_dir=flight,
        flight_capacity=flight_capacity or DEFAULT_CAPACITY,
        slo=None if slo is None else read_slo_spec(slo),
    ), duration


def run_interruptible(config: ClusterConfig, coro):
    """Run a live-cluster command's coroutine: ``asyncio.run`` with
    SIGTERM/SIGINT routed to task cancellation.

    The cluster entry points treat cancellation as an early, orderly
    shutdown (teardown still runs, partial artefacts still flush), so a
    killed soak keeps its event/span tail instead of dying mid-write.
    """
    import signal

    if config.metrics_port:
        # Ephemeral (0) binds after the loop starts, so only a fixed port
        # can be announced upfront for `repro top` to attach to.
        print(f"metrics endpoint: http://{config.host}:{config.metrics_port}"
              "/metrics", flush=True)

    async def _main():
        task = asyncio.ensure_future(coro)
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, task.cancel)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix loop; KeyboardInterrupt still works
        try:
            return await task
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    return asyncio.run(_main())


def write_cluster_artefacts(
    result: ClusterResult,
    *,
    metrics_out: Optional[str],
    events_out: Optional[str],
) -> None:
    """Write ``--metrics-out``/``--events-out`` and print their paths."""
    if metrics_out:
        print(f"metrics: {write_cluster_metrics(metrics_out, result)}")
    if events_out:
        print(f"events: {write_cluster_events(events_out, result)}")


def cmd_cluster_run(
    *, metrics_out: Optional[str], events_out: Optional[str], **flags: Any,
) -> int:
    """``repro cluster run``: always-hungry diners under chaos (``flags``
    are :func:`cluster_config`'s); print the :func:`run_summary`."""
    config, duration = cluster_config(
        lock_service=False, events_out=events_out, **flags
    )
    result = run_interruptible(config, run_cluster(config, duration))
    print("\n".join(run_summary(result)))
    write_cluster_artefacts(result, metrics_out=metrics_out, events_out=events_out)
    return 0


def cmd_node(
    *, topology: str, pid: int, host: str, port: int, peer: Optional[List[str]],
    seed: int, tick_interval: float, duration: float, lock_service: bool,
) -> int:
    """``repro node``: serve process ``pid`` (an index into ``topology``)
    behind real sockets for ``duration`` seconds (0: until interrupted),
    dialling each ``peer`` (``IDX=HOST:PORT``); then print its counters."""
    topo = from_spec(topology)
    if not 0 <= pid < len(topo):
        raise ValueError(
            f"--pid {pid} out of range for {topology} (has {len(topo)} processes)"
        )
    me = topo.nodes[pid]
    peers = {}
    for spec in peer or ():
        index, sep, address = spec.partition("=")
        peer_host, sep2, peer_port = address.rpartition(":")
        if not sep or not sep2:
            raise ValueError(f"--peer {spec!r}: expected IDX=HOST:PORT")
        try:
            peers[topo.nodes[int(index)]] = (peer_host, int(peer_port))
        except (ValueError, IndexError):
            raise ValueError(f"--peer {spec!r}: bad node index or port") from None

    async def serve() -> None:
        server = NodeServer(
            me,
            topo,
            build_process(me, topo, lock_service=lock_service, seed=seed),
            host=host,
            port=port,
            tick_interval=tick_interval,
        )
        await server.start_listening()
        print(f"node {me!r} listening on {host}:{server.port}", flush=True)
        try:
            await server.connect_peers(peers)
        except ValueError as exc:
            await server.stop()
            raise ValueError(f"{exc} (give --peer for every neighbour)") from None
        try:
            if duration > 0:
                await asyncio.sleep(duration)
            else:
                await asyncio.Event().wait()  # serve until interrupted
        finally:
            await server.stop()
        print(f"counters: {json.dumps(server.counters(), sort_keys=True)}")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0
