"""``repro loadgen``: a closed/open-loop fleet of logical clients.

One run drives ``clients`` logical clients through the gateway and
reports grant-latency percentiles (p50/p99/p999 via the repo's
``Timer``/``Histogram`` merge), a cross-client fairness CV, shed/retry
accounting, and — in live mode — the neighbour-exclusion safety audit
over the cluster's event stream.

Two engines share the fleet logic and the report format:

* **sim** — a virtual-time, discrete-event twin.  The *real*
  :class:`~repro.gateway.mux.GatewayMux` and admission controller make
  every routing/shed decision; only the transport and the diner are
  modelled (fixed network delay, exponential holds, FIFO grants per
  node).  Everything is seeded, so the report is **byte-stable**: same
  (topology, seed, duration) → identical bytes.  This is how 10⁶
  clients fit in one process, and how CI pins the artefact.
* **live** — a real :class:`~repro.net.cluster.ClusterSupervisor` (with
  chaos, if asked) behind a real :class:`~repro.gateway.server.
  GatewayServer` over TCP.  Latencies are wall-clock; the safety audit
  runs over the emitted grant/release stream exactly as ``soak`` does.

The fleet is driven from one coroutine with a timer heap — no
task-per-client — so 10⁴ clients cost one loop, not 10⁴ stacks.

Closed loop: each client cycles acquire → hold → release → think, with
exponential think/hold times from its own seeded RNG.  Open loop:
arrivals form a seeded Poisson process at ``arrival_rate_hz`` total,
assigned to clients uniformly at random.  A shed (typed RETRY) is
retried after the server's ``retry_after_s`` hint plus seeded jitter, up
to ``max_retries`` per cycle.
"""

from __future__ import annotations

import asyncio
import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import Histogram, Timer
from .admission import AdmissionConfig
from .batch import FlushPolicy
from .mux import Completion, GatewayMux
from .report import (
    LATENCY_SAMPLE_CAP,
    PER_NODE_SAMPLE_CAP,
    build_report,
    summarize_loadgen_report,
    thin_samples,
    write_loadgen_report,
)

#: Sim-mode transport model: one-way network delay and grant overhead.
SIM_NET_DELAY_S = 0.0005
SIM_GRANT_OVERHEAD_S = 0.0002

#: Seeded RNG streams are pooled: a ``random.Random`` carries ~2.5 KB of
#: Mersenne state, so one per client would cost gigabytes at 10⁶ clients.
#: Clients share ``pool[i % RNG_POOL_SIZE]``; the event order is already
#: deterministic, so pooling preserves byte-stability.
RNG_POOL_SIZE = 4096


def _rng_pool(seed: int, clients: int) -> List[random.Random]:
    size = min(clients, RNG_POOL_SIZE)
    return [
        random.Random(seed * 1_000_003 + i + 1) for i in range(size)
    ]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generator run, engine-agnostic."""

    clients: int = 10000
    nodes: int = 3
    topology: str = "ring"
    seed: int = 1
    duration_s: float = 5.0
    mode: str = "closed"  #: ``closed`` (think time) or ``open`` (Poisson)
    arrival_rate_hz: float = 2000.0  #: open-loop aggregate arrival rate
    think_s: float = 0.5  #: closed-loop mean think time
    hold_s: float = 0.01  #: mean lock-hold time
    max_retries: int = 8  #: shed retries per acquire cycle
    upstreams_per_node: int = 1
    max_upstreams: int = 8
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    flush: FlushPolicy = field(default_factory=FlushPolicy)
    gateway_id: str = "gw"

    def validate(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "open" and self.arrival_rate_hz <= 0:
            raise ValueError("open loop needs arrival_rate_hz > 0")
        if self.think_s < 0 or self.hold_s < 0:
            raise ValueError("think_s/hold_s must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.upstreams_per_node < 1:
            raise ValueError("upstreams_per_node must be >= 1")
        total = self.nodes * self.upstreams_per_node
        if total > self.max_upstreams:
            raise ValueError(
                f"{total} upstream connections exceed budget of "
                f"{self.max_upstreams} (nodes x upstreams_per_node)"
            )
        self.admission.validate()
        self.flush.validate()

    def spec_doc(self, engine: str) -> Dict[str, Any]:
        """The reproducibility half of the report."""
        adm = self.admission
        flush = self.flush
        return {
            "engine": engine,
            "clients": self.clients,
            "nodes": self.nodes,
            "topology": self.topology,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "mode": self.mode,
            "arrival_rate_hz": self.arrival_rate_hz,
            "think_s": self.think_s,
            "hold_s": self.hold_s,
            "max_retries": self.max_retries,
            "gateway": {
                "id": self.gateway_id,
                "upstreams_per_node": self.upstreams_per_node,
                "max_upstreams": self.max_upstreams,
                "admission": {
                    "max_per_client": adm.max_per_client,
                    "max_queue_depth": adm.max_queue_depth,
                    "max_in_flight": adm.max_in_flight,
                    "retry_after_s": adm.retry_after_s,
                },
                "flush": {
                    "max_frames": flush.max_frames,
                    "max_bytes": flush.max_bytes,
                    "max_delay_s": flush.max_delay_s,
                },
            },
        }


def coefficient_of_variation(values: List[float]) -> float:
    """Population CV (stdev/mean); 0 for empty or zero-mean input."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return (variance ** 0.5) / abs(mean)


class FleetStats:
    """Per-client and per-node accounting shared by both engines."""

    def __init__(self, clients: int, node_labels: List[str]) -> None:
        self.node_labels = node_labels
        self.grant_counts = [0] * clients
        self.wait_sums = [0.0] * clients
        self.sheds = [0] * clients
        self.retries = [0] * clients
        self.failures = [0] * clients
        self.active = [False] * clients
        self.abandoned = 0
        self.releases = 0
        self.node_timers: Dict[str, Timer] = {
            label: Timer(f"grant-wait/{label}") for label in node_labels
        }
        self.histogram = Histogram("grant-wait-ms")

    def issued(self, client: int) -> None:
        self.active[client] = True

    def grant(self, client: int, node_label: str, wait_s: float) -> None:
        self.grant_counts[client] += 1
        self.wait_sums[client] += wait_s
        self.node_timers[node_label].observe(wait_s)
        self.histogram.observe(round(wait_s * 1000.0, 1))

    def shed(self, client: int) -> None:
        self.sheds[client] += 1

    def merged_timer(self) -> Timer:
        merged = Timer("grant-wait")
        for timer in self.node_timers.values():
            merged.merge(timer)
        return merged

    # ------------------------------------------------------------- results

    def results_doc(
        self,
        duration_s: float,
        mux: GatewayMux,
        *,
        batching: Dict[str, Any],
        safety: Dict[str, Any],
    ) -> Dict[str, Any]:
        merged = self.merged_timer()
        samples = sorted(merged.samples)
        latency: Dict[str, Any] = {"count": merged.count}
        if samples:
            latency.update(
                p50_s=_pct(samples, 0.50),
                p99_s=_pct(samples, 0.99),
                p999_s=_pct(samples, 0.999),
                mean_s=merged.total / merged.count,
                min_s=samples[0],
                max_s=samples[-1],
            )
        per_node: Dict[str, Any] = {}
        for label in self.node_labels:
            timer = self.node_timers[label]
            node_samples = sorted(timer.samples)
            doc: Dict[str, Any] = {"grants": timer.count}
            if node_samples:
                doc.update(
                    mean_wait_s=timer.total / timer.count,
                    p99_s=_pct(node_samples, 0.99),
                    samples_s=thin_samples(node_samples, PER_NODE_SAMPLE_CAP),
                )
            per_node[label] = doc
        granted_counts = [c for c in self.grant_counts if c > 0]
        mean_waits = [
            self.wait_sums[i] / self.grant_counts[i]
            for i in range(len(self.grant_counts))
            if self.grant_counts[i] > 0
        ]
        active_counts = [
            self.grant_counts[i]
            for i in range(len(self.grant_counts))
            if self.active[i]
        ]
        counters = mux.counters()
        return {
            "duration_s": duration_s,
            "grants": sum(self.grant_counts),
            "releases": self.releases,
            "throughput_hz": (
                sum(self.grant_counts) / duration_s if duration_s else 0.0
            ),
            "latency": latency,
            "latency_samples_s": thin_samples(samples, LATENCY_SAMPLE_CAP),
            "histogram_ms": {
                str(k): self.histogram.buckets[k]
                for k in sorted(self.histogram.buckets)
            },
            "per_node": per_node,
            "fairness": {
                "grant_count_cv": coefficient_of_variation(
                    [float(c) for c in active_counts]
                ),
                "mean_wait_cv": coefficient_of_variation(mean_waits),
                "clients_active": sum(1 for a in self.active if a),
                "clients_granted": len(granted_counts),
            },
            "sheds": dict(counters["shed"]),
            "shed_total": sum(counters["shed"].values()),
            "retries": sum(self.retries),
            "failures": sum(self.failures),
            "abandoned": self.abandoned,
            "admission": {
                k: v for k, v in counters.items() if k != "shed"
            },
            "batching": batching,
            "safety": safety,
        }


def _pct(sorted_samples: List[float], q: float) -> float:
    from ..obs.metrics import percentile_of_sorted

    return percentile_of_sorted(sorted_samples, q)


# ---------------------------------------------------------------- sim engine


def run_sim(config: LoadgenConfig) -> Dict[str, Any]:
    """The virtual-time engine: a byte-stable report, no sockets.

    Event-driven over a heap; the real mux/admission objects decide, a
    fixed-delay transport and FIFO-grant nodes model the rest.
    """
    config.validate()
    n_nodes = config.nodes
    node_labels = [f"n{i}" for i in range(n_nodes)]
    mux = GatewayMux(
        node_labels,
        upstreams_per_node=config.upstreams_per_node,
        admission=config.admission,
        gateway_id=config.gateway_id,
    )
    if mux.upstream_count > config.max_upstreams:
        raise ValueError(
            f"{mux.upstream_count} upstreams exceed budget "
            f"{config.max_upstreams}"
        )
    stats = FleetStats(config.clients, node_labels)
    pool = _rng_pool(config.seed, config.clients)
    client_rng = lambda i: pool[i % len(pool)]  # noqa: E731
    arrivals_rng = random.Random(config.seed)
    client_label = [f"c{i}" for i in range(config.clients)]
    client_node = [i % n_nodes for i in range(config.clients)]
    retry_left = [0] * config.clients
    #: req_id -> client index, for completion routing.
    owner: Dict[str, int] = {}

    # Node model: current holder + FIFO of granted order.
    holder: List[Optional[str]] = [None] * n_nodes
    queue: List[deque] = [deque() for _ in range(n_nodes)]

    heap: List[Tuple[float, int, str, Any]] = []
    seq = 0

    def push(t: float, kind: str, data: Any) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (t, seq, kind, data))

    def think_delay(i: int) -> float:
        if config.think_s == 0:
            return 0.0
        return client_rng(i).expovariate(1.0 / config.think_s)

    def hold_delay(i: int) -> float:
        if config.hold_s == 0:
            return 0.0
        return client_rng(i).expovariate(1.0 / config.hold_s)

    def submit_acquire(i: int, t: float) -> None:
        if t > config.duration_s:
            return
        stats.issued(i)
        decision = mux.submit(client_label[i], client_node[i], "acquire", t)
        if decision.admitted:
            retry_left[i] = config.max_retries
            owner[decision.req_id] = i
            push(t + SIM_NET_DELAY_S, "node-arrive", decision.req_id)
            return
        stats.shed(i)
        if retry_left[i] > 0:
            retry_left[i] -= 1
            stats.retries[i] += 1
            backoff = decision.retry_after_s + client_rng(i).expovariate(100.0)
            push(t + backoff, "acquire", i)
        else:
            stats.abandoned += 1
            if config.mode == "closed":
                retry_left[i] = config.max_retries
                push(t + think_delay(i), "acquire", i)

    def grant_next(node: int, t: float) -> None:
        if holder[node] is not None or not queue[node]:
            return
        req_id = queue[node].popleft()
        holder[node] = req_id
        push(t + SIM_GRANT_OVERHEAD_S + SIM_NET_DELAY_S, "grant-rsp", req_id)

    # Seed the first wave.
    if config.mode == "closed":
        for i in range(config.clients):
            retry_left[i] = config.max_retries
            start = client_rng(i).uniform(
                0.0, min(max(config.think_s, 0.001), config.duration_s)
            )
            push(start, "acquire", i)
    else:
        push(arrivals_rng.expovariate(config.arrival_rate_hz), "arrival", None)

    while heap:
        t, _, kind, data = heapq.heappop(heap)
        if kind == "arrival":
            if t <= config.duration_s:
                i = arrivals_rng.randrange(config.clients)
                retry_left[i] = config.max_retries
                submit_acquire(i, t)
                push(
                    t + arrivals_rng.expovariate(config.arrival_rate_hz),
                    "arrival",
                    None,
                )
        elif kind == "acquire":
            submit_acquire(data, t)
        elif kind == "node-arrive":
            req_id = data
            client = owner.get(req_id)
            if client is None:
                continue
            node = client_node[client]
            queue[node].append(req_id)
            grant_next(node, t)
        elif kind == "grant-rsp":
            req_id = data
            i = owner.pop(req_id, None)
            completion = mux.resolve(req_id, True, t)
            if completion is None or i is None:
                continue
            stats.grant(i, node_labels[completion.node], completion.wait_s)
            push(t + hold_delay(i), "release", (i, completion.node, req_id))
        elif kind == "release":
            i, node, held_req = data
            decision = mux.submit(client_label[i], node, "release", t)
            if decision.admitted:
                owner[decision.req_id] = i
                push(
                    t + SIM_NET_DELAY_S,
                    "node-release",
                    (decision.req_id, node, held_req),
                )
        elif kind == "node-release":
            rel_id, node, held_req = data
            if holder[node] == held_req:
                holder[node] = None
            push(t + SIM_NET_DELAY_S, "release-rsp", rel_id)
            grant_next(node, t)
        elif kind == "release-rsp":
            rel_id = data
            i = owner.pop(rel_id, None)
            completion = mux.resolve(rel_id, True, t)
            if completion is None or i is None:
                continue
            stats.releases += 1
            if config.mode == "closed" and t <= config.duration_s:
                retry_left[i] = config.max_retries
                push(t + think_delay(i), "acquire", i)

    results = stats.results_doc(
        config.duration_s,
        mux,
        batching={
            "upstream_frames": mux.admission.admitted,
            "upstream_flushes": 0,
            "mean_batch": 0.0,
            "dials": mux.upstream_count,
        },
        safety={
            "mode": "model",
            "violations": 0,
            "audited_events": 0,
        },
    )
    return build_report(config.spec_doc("sim"), results)


# --------------------------------------------------------------- live engine


class LiveFleet:
    """The timer-heap fleet driver over a running gateway."""

    def __init__(
        self,
        config: LoadgenConfig,
        gateway,
        stats: FleetStats,
        node_labels: List[str],
    ) -> None:
        self.config = config
        self.gateway = gateway
        self.stats = stats
        self.node_labels = node_labels
        self._rng_pool = _rng_pool(config.seed, config.clients)
        self.client_rng = lambda i: self._rng_pool[i % len(self._rng_pool)]
        self.arrivals_rng = random.Random(config.seed)
        self.client_label = [f"c{i}" for i in range(config.clients)]
        self.client_node = [i % config.nodes for i in range(config.clients)]
        self.retry_left = [0] * config.clients
        self.heap: List[Tuple[float, int, str, Any]] = []
        self.seq = 0
        self.completions: deque = deque()
        self.wake = asyncio.Event()
        self.draining = False
        self.holding: Dict[int, int] = {}  #: client -> node while held

    def push(self, t: float, kind: str, data: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, data))

    # ------------------------------------------------------------- actions

    def _submit_acquire(self, i: int, now: float) -> None:
        if self.draining:
            return
        self.stats.issued(i)
        decision = self.gateway.submit(
            self.client_label[i],
            self.client_node[i],
            "acquire",
            self._completed,
        )
        if decision is None:
            return
        self.stats.shed(i)
        if self.retry_left[i] > 0:
            self.retry_left[i] -= 1
            self.stats.retries[i] += 1
            backoff = (
                decision.retry_after_s
                + self.client_rng(i).expovariate(100.0)
            )
            self.push(now + backoff, "acquire", i)
        else:
            self.stats.abandoned += 1
            if self.config.mode == "closed":
                self.retry_left[i] = self.config.max_retries
                self.push(now + self._think(i), "acquire", i)

    def _think(self, i: int) -> float:
        if self.config.think_s == 0:
            return 0.0
        return self.client_rng(i).expovariate(1.0 / self.config.think_s)

    def _hold(self, i: int) -> float:
        if self.config.hold_s == 0:
            return 0.0
        return self.client_rng(i).expovariate(1.0 / self.config.hold_s)

    def _completed(self, completion: Completion) -> None:
        self.completions.append(completion)
        self.wake.set()

    def _client_of(self, completion: Completion) -> Optional[int]:
        label = completion.client
        if label.startswith("c"):
            try:
                return int(label[1:])
            except ValueError:
                return None
        return None

    def _process_completion(self, completion: Completion, now: float) -> None:
        i = self._client_of(completion)
        if i is None:
            return
        if completion.op == "acquire":
            if completion.ok:
                self.stats.grant(
                    i, self.node_labels[completion.node], completion.wait_s
                )
                self.holding[i] = completion.node
                delay = 0.0 if self.draining else self._hold(i)
                self.push(now + delay, "release", i)
            else:
                # Upstream failure (crashed node, lost pipe): back off and
                # retry like a shed — the node may be restarting.
                self.stats.failures[i] += 1
                if not self.draining:
                    if self.retry_left[i] > 0:
                        self.retry_left[i] -= 1
                        self.stats.retries[i] += 1
                        self.push(
                            now + 0.05 + self.client_rng(i).expovariate(50.0),
                            "acquire",
                            i,
                        )
                    elif self.config.mode == "closed":
                        self.stats.abandoned += 1
                        self.retry_left[i] = self.config.max_retries
                        self.push(now + self._think(i), "acquire", i)
        elif completion.op == "release":
            self.holding.pop(i, None)
            if completion.ok:
                self.stats.releases += 1
            else:
                self.stats.failures[i] += 1
            if (
                self.config.mode == "closed"
                and not self.draining
            ):
                self.retry_left[i] = self.config.max_retries
                self.push(now + self._think(i), "acquire", i)

    def _send_release(self, i: int, now: float) -> None:
        node = self.holding.get(i)
        if node is None:
            return
        decision = self.gateway.submit(
            self.client_label[i], node, "release", self._completed
        )
        if decision is not None:
            # Releases are never shed by policy; a refusal here means the
            # mux rejected the node index — count and drop.
            self.stats.failures[i] += 1
            self.holding.pop(i, None)

    # ---------------------------------------------------------------- run

    async def run(self, stop_at: float, drain_grace_s: float = 2.0) -> None:
        loop = asyncio.get_running_loop()
        cfg = self.config
        if cfg.mode == "closed":
            now = loop.time()
            for i in range(cfg.clients):
                self.retry_left[i] = cfg.max_retries
                start = self.client_rng(i).uniform(
                    0.0, min(max(cfg.think_s, 0.001), cfg.duration_s)
                )
                self.push(now + start, "acquire", i)
        else:
            self.push(
                loop.time()
                + self.arrivals_rng.expovariate(cfg.arrival_rate_hz),
                "arrival",
                None,
            )
        drain_deadline = stop_at + drain_grace_s
        while True:
            now = loop.time()
            if not self.draining and now >= stop_at:
                self.draining = True
            if self.draining:
                if now >= drain_deadline:
                    break
                if (
                    not self.holding
                    and self.gateway.mux.pending_count() == 0
                ):
                    break
            while self.completions:
                self._process_completion(self.completions.popleft(), now)
            ran_action = False
            while self.heap and self.heap[0][0] <= now:
                _, _, kind, data = heapq.heappop(self.heap)
                ran_action = True
                if kind == "acquire":
                    self._submit_acquire(data, now)
                elif kind == "release":
                    self._send_release(data, now)
                elif kind == "arrival":
                    if not self.draining:
                        i = self.arrivals_rng.randrange(cfg.clients)
                        self.retry_left[i] = cfg.max_retries
                        self._submit_acquire(i, now)
                        self.push(
                            now
                            + self.arrivals_rng.expovariate(
                                cfg.arrival_rate_hz
                            ),
                            "arrival",
                            None,
                        )
            if ran_action or self.completions:
                continue
            self.gateway.flush()
            next_due = self.heap[0][0] if self.heap else now + 0.05
            timeout = max(0.0, min(next_due - now, 0.05))
            try:
                await asyncio.wait_for(self.wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self.wake.clear()
        # Final sweep: release anything still held, then let it settle.
        for i in list(self.holding):
            self._send_release(i, loop.time())
        self.gateway.flush()
        settle_until = loop.time() + 0.5
        while loop.time() < settle_until and (
            self.holding or self.completions
        ):
            while self.completions:
                self._process_completion(self.completions.popleft(), loop.time())
            try:
                await asyncio.wait_for(self.wake.wait(), 0.05)
            except asyncio.TimeoutError:
                pass
            self.wake.clear()


async def run_live(
    config: LoadgenConfig,
    cluster_config,
) -> Tuple[Dict[str, Any], Any, List[Any]]:
    """The live engine: cluster + gateway + fleet, then the audit.

    Returns ``(report, cluster_result, violations)`` — the CLI writes the
    artefacts and decides the exit code.
    """
    from ..net.cluster import ClusterSupervisor
    from ..net.lock import hold_intervals, neighbour_violations
    from .server import GatewayConfig, GatewayServer

    config.validate()
    if not cluster_config.lock_service:
        raise ValueError("loadgen requires a lock_service cluster config")
    topology_nodes = list(cluster_config.topology.nodes)
    if len(topology_nodes) != config.nodes:
        raise ValueError(
            f"cluster topology has {len(topology_nodes)} nodes, "
            f"loadgen config says {config.nodes}"
        )
    supervisor = ClusterSupervisor(cluster_config)
    gateway: Optional[GatewayServer] = None
    node_labels = [repr(pid) for pid in topology_nodes]
    stats = FleetStats(config.clients, node_labels)
    fleet_task: Optional[asyncio.Task] = None
    interrupted = False
    try:
        await supervisor.start(config.duration_s)
        gateway_config = GatewayConfig(
            upstream_addrs=[
                (cluster_config.host, supervisor.nodes[pid].port)
                for pid in topology_nodes
            ],
            node_labels=node_labels,
            upstreams_per_node=config.upstreams_per_node,
            max_upstreams=config.max_upstreams,
            admission=config.admission,
            upstream_flush=config.flush,
            gateway_id=config.gateway_id,
            host=cluster_config.host,
        )
        gateway = GatewayServer(gateway_config)
        await gateway.start()
        loop = asyncio.get_running_loop()
        fleet = LiveFleet(config, gateway, stats, node_labels)
        stop_at = supervisor._t0 + config.duration_s
        fleet_task = asyncio.create_task(fleet.run(stop_at))
        await supervisor.run(config.duration_s)
        await fleet_task
        fleet_task = None
    except asyncio.CancelledError:
        supervisor.interrupted = True
        interrupted = True
    finally:
        if fleet_task is not None:
            fleet_task.cancel()
            try:
                await fleet_task
            except (asyncio.CancelledError, Exception):
                pass
        batching = (
            gateway.batch_counters() if gateway is not None else {}
        )
        if gateway is not None:
            await gateway.stop()
        await supervisor.stop()
    result = supervisor.result(config.duration_s)
    intervals = hold_intervals(result.events, end_t=config.duration_s)
    violations = neighbour_violations(
        cluster_config.topology, intervals, exclude=result.killed
    )
    mux = gateway.mux if gateway is not None else GatewayMux(node_labels)
    results = stats.results_doc(
        config.duration_s,
        mux,
        batching=batching,
        safety={
            "mode": "live",
            "violations": len(violations),
            "audited_events": len(result.events),
            "killed": sorted(result.killed),
            "interrupted": interrupted,
        },
    )
    return (
        build_report(config.spec_doc("live"), results),
        result,
        violations,
    )


def cmd_loadgen(
    *, nodes: int, topology: Optional[str], seed: int, duration: float, clients: int,
    mode: str, arrival_rate: float, think: float, hold: float, max_retries: int,
    upstreams_per_node: int, max_upstreams: int, max_per_client: int, queue_depth: int,
    max_in_flight: int, retry_after: float, batch_frames: int, batch_bytes: int,
    batch_delay: float, sim: bool, out: Optional[str], metrics_out: Optional[str],
    events_out: Optional[str], **cluster_flags: Any,
) -> int:
    """``repro loadgen``: drive a fleet of logical clients through the
    gateway tier and print the report's summary.

    ``sim`` runs the seeded virtual-time engine (byte-stable report);
    otherwise a real cluster (``cluster_flags`` are
    :func:`~repro.net.cluster.cluster_config`'s) is spawned behind a real
    gateway and the neighbour-exclusion audit runs over the event stream.
    Exit 1 on a safety violation.
    """
    from ..net.cluster import (
        announce_metrics_endpoint,
        cluster_config,
        run_interruptible,
        write_cluster_artefacts,
    )
    from ..sim.topology import from_spec

    spec = topology or f"ring:{nodes}"
    config = LoadgenConfig(
        clients=clients,
        nodes=len(from_spec(spec)),
        topology=spec,
        seed=seed,
        duration_s=duration,
        mode=mode,
        arrival_rate_hz=arrival_rate,
        think_s=think,
        hold_s=hold,
        max_retries=max_retries,
        upstreams_per_node=upstreams_per_node,
        max_upstreams=max_upstreams,
        admission=AdmissionConfig(
            max_per_client=max_per_client,
            max_queue_depth=queue_depth,
            max_in_flight=max_in_flight,
            retry_after_s=retry_after,
        ),
        flush=FlushPolicy(
            max_frames=batch_frames, max_bytes=batch_bytes, max_delay_s=batch_delay
        ),
    )
    config.validate()
    violations: List[Any] = []
    if sim:
        report = run_sim(config)
    else:
        cluster, _ = cluster_config(
            lock_service=True, nodes=nodes, topology=topology, seed=seed,
            duration=duration, events_out=events_out, **cluster_flags,
        )
        announce_metrics_endpoint(cluster)
        report, result, violations = run_interruptible(run_live(config, cluster))
        write_cluster_artefacts(
            result,
            metrics_out=metrics_out,
            events_out=events_out,
            extra_header={"safe": not violations, "violations": len(violations)},
        )
    print("\n".join(summarize_loadgen_report(report)))
    # The overlaps themselves are not in the report, only their count.
    for violation in violations[:10]:
        print(f"    {violation}")
    if out:
        print(f"  loadgen report: {write_loadgen_report(out, report)}")
    return 1 if violations else 0
