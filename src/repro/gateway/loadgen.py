"""``repro loadgen``: a closed/open-loop fleet of logical clients.

One run drives ``clients`` logical clients through the gateway and
reports grant-latency percentiles (p50/p99/p999 via the repo's
``Timer``/``Histogram`` merge), a cross-client fairness CV, shed/retry
accounting, and — in live mode — the neighbour-exclusion safety audit
over the cluster's event stream.

The client policy is written once, as :class:`ClientFleet`, and two
engines drive it through ``GatewayServer``'s in-process seam
(``submit(client, node, op, callback)``, ``flush()``, ``.mux``); they
share the report format too:

* **sim** — a virtual-time, discrete-event twin, in this module.  The
  *real* :class:`~repro.gateway.mux.GatewayMux` and admission controller
  make every routing/shed decision; only the transport and the diner are
  modelled (:class:`SimGateway`: fixed network delay, FIFO grants per
  node).  Everything is seeded, so the report is **byte-stable**: same
  (topology, seed, duration) → identical bytes.  This is how 10⁶
  clients fit in one process, and how CI pins the artefact.
* **live** — :func:`~repro.gateway.live.run_live`, beside the live
  gateway: the fleet is the traffic of a real cluster run, through a
  real :class:`~repro.gateway.server.GatewayServer` over TCP.  This
  module imports no part of that tier; :func:`cmd_loadgen` imports it
  only when it runs live.

The fleet is one timer heap — no task-per-client — so 10⁴ clients cost
one loop, not 10⁴ stacks.

Closed loop: each client cycles acquire → hold → release → think, with
exponential think/hold times from its own seeded RNG.  Open loop:
arrivals form a seeded Poisson process at ``arrival_rate_hz`` total,
assigned to clients uniformly at random.  A shed (typed RETRY) is
retried after the server's ``retry_after_s`` hint plus seeded jitter, up
to ``max_retries`` per cycle; an upstream failure is retried the same
way, after the admission hint.
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.metrics import Histogram, Timer, percentile_of_sorted
from .admission import AdmissionConfig
from .batch import FlushPolicy
from .mux import Completion, Decision, GatewayMux
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
        for name in ("duration_s", "think_s", "hold_s", "arrival_rate_hz"):
            # an inf duration never ends the run and an inf rate draws zero
            # gaps; nan passes every comparison below into the report
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        if self.mode == "closed" and self.think_s == 0 and self.max_retries == 0:
            raise ValueError(
                "a closed loop with think_s 0 needs max_retries >= 1: a shed "
                "client would re-acquire at the same instant for ever"
            )
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

    def grant(self, client: int, node_label: str, wait_s: float) -> None:
        self.grant_counts[client] += 1
        self.wait_sums[client] += wait_s
        self.node_timers[node_label].observe(wait_s)
        self.histogram.observe(round(wait_s * 1000.0, 1))

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
                p50_s=percentile_of_sorted(samples, 0.50),
                p99_s=percentile_of_sorted(samples, 0.99),
                p999_s=percentile_of_sorted(samples, 0.999),
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
                    p99_s=percentile_of_sorted(node_samples, 0.99),
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


# --------------------------------------------------------------- the fleet


class ClientFleet:
    """The client policy, written once, that both engines drive.

    It owns the per-client state — seeded RNG pool, label, node, retry
    budget, what each client holds — and one ``(t, seq, action, arg)``
    timer heap, and reaches the gateway only through ``gateway.submit(
    client, node, op, callback)``: a shed :class:`Decision`, or ``None``
    and ``callback`` later fires with the :class:`Completion`.  An engine
    sets ``now`` before it runs a timer or hands over a completion:
    :meth:`simulate` pops the heap in virtual time (the
    :class:`SimGateway` pushes its transport events onto the same heap),
    :meth:`drive` runs it against the loop clock.  Either holds the
    gateway only while it runs: a :class:`SimGateway` refers back to the
    fleet, and that cycle would keep a finished run's per-client state
    alive until a full garbage collection.

    The retry budget refills on admission, at each closed-loop cycle and
    at each open-loop arrival.  A retry after an upstream failure leaves
    it alone on admission, so a node that keeps failing exhausts it.
    """

    def __init__(self, config: LoadgenConfig, stats: FleetStats) -> None:
        self.config = config
        self.stats = stats
        self.gateway: Any = None
        self.now = 0.0
        self.stop_at = config.duration_s
        self._rngs = [
            random.Random(config.seed * 1_000_003 + i + 1)
            for i in range(min(config.clients, RNG_POOL_SIZE))
        ]
        self.arrivals_rng = random.Random(config.seed)
        self._labels = [f"c{i}" for i in range(config.clients)]
        self._node_of = [i % config.nodes for i in range(config.clients)]
        self.retry_left = [0] * config.clients
        self.holding: Dict[int, int] = {}  #: client -> node while it holds
        self.heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0

    def push(self, t: float, action: Callable[[Any], None], arg: Any) -> None:
        self._seq += 1
        heappush(self.heap, (t, self._seq, action, arg))

    def _rng(self, i: int) -> random.Random:
        return self._rngs[i % len(self._rngs)]

    def _think(self, i: int) -> float:
        think = self.config.think_s
        return self._rng(i).expovariate(1.0 / think) if think else 0.0

    def _hold(self, i: int) -> float:
        hold = self.config.hold_s
        return self._rng(i).expovariate(1.0 / hold) if hold else 0.0

    # ------------------------------------------------------------- policy

    def start(self, t0: float, stop_at: float) -> None:
        """Seed the first wave (closed loop) or the first arrival (open)."""
        cfg = self.config
        self.now, self.stop_at = t0, stop_at
        if cfg.mode == "closed":
            window = min(max(cfg.think_s, 0.001), cfg.duration_s)
            for i in range(cfg.clients):
                self.retry_left[i] = cfg.max_retries
                self.push(t0 + self._rng(i).uniform(0.0, window), self.acquire, i)
        else:
            self.push(
                t0 + self.arrivals_rng.expovariate(cfg.arrival_rate_hz),
                self.arrive,
                None,
            )

    def arrive(self, _: None) -> None:
        """One open-loop arrival: a random client acquires; draw the next."""
        now = self.now
        if now > self.stop_at:
            return
        i = self.arrivals_rng.randrange(self.config.clients)
        self.retry_left[i] = self.config.max_retries
        self.acquire(i)
        self.push(
            now + self.arrivals_rng.expovariate(self.config.arrival_rate_hz),
            self.arrive,
            None,
        )

    def acquire(self, i: int, refill: bool = True) -> None:
        if self.now > self.stop_at:
            return
        stats = self.stats
        stats.active[i] = True
        shed = self.gateway.submit(
            self._labels[i], self._node_of[i], "acquire", self.on_completion
        )
        if shed is None:
            if refill:
                self.retry_left[i] = self.config.max_retries
            return
        stats.sheds[i] += 1
        self._back_off(i, shed.retry_after_s, self.acquire)

    def _acquire_after_failure(self, i: int) -> None:
        self.acquire(i, refill=False)

    def _back_off(
        self, i: int, after_s: float, retry: Callable[[int], None]
    ) -> None:
        """Retry after ``after_s`` plus seeded jitter while the budget
        lasts; then abandon the cycle and, closed loop, think."""
        now = self.now
        if self.retry_left[i] > 0:
            self.retry_left[i] -= 1
            self.stats.retries[i] += 1
            self.push(now + (after_s + self._rng(i).expovariate(100.0)), retry, i)
        else:
            self.stats.abandoned += 1
            if self.config.mode == "closed":
                self.retry_left[i] = self.config.max_retries
                self.push(now + self._think(i), self.acquire, i)

    def release(self, i: int) -> None:
        if self.gateway.submit(
            self._labels[i], self.holding.pop(i), "release", self.on_completion
        ) is not None:
            # Releases are never shed by policy; a refusal here means the
            # mux rejected the node index — count and drop.
            self.stats.failures[i] += 1

    def complete(self, completion: Completion) -> None:
        now = self.now
        i = int(completion.client[1:])
        if completion.op == "acquire":
            if completion.ok:
                self.stats.grant(
                    i, self.stats.node_labels[completion.node], completion.wait_s
                )
                self.holding[i] = completion.node
                self.push(now + self._hold(i), self.release, i)
            else:
                # Upstream failure (crashed node, lost pipe): back off and
                # retry like a shed — the node may be restarting.
                self.stats.failures[i] += 1
                self._back_off(
                    i, self.config.admission.retry_after_s,
                    self._acquire_after_failure,
                )
            return
        if completion.ok:
            self.stats.releases += 1
        else:
            self.stats.failures[i] += 1
        if self.config.mode == "closed" and now <= self.stop_at:
            self.retry_left[i] = self.config.max_retries
            self.push(now + self._think(i), self.acquire, i)

    #: What ``submit`` calls back; :meth:`drive` shadows it with a wrapper.
    on_completion = complete

    # ------------------------------------------------------------ engines

    def simulate(self, gateway: Any) -> None:
        """Run to an empty heap in virtual time, from 0 to ``duration_s``."""
        self.gateway = gateway
        self.start(0.0, self.config.duration_s)
        heap = self.heap
        try:
            while heap:
                self.now, _, action, arg = heappop(heap)
                action(arg)
        finally:
            self.gateway = None

    async def drive(
        self, gateway: Any, stop_at: float, drain_grace_s: float = 2.0
    ) -> None:
        """Run against the loop clock until ``stop_at``; then drain.

        Draining lets held locks run out their hold until nothing is held
        or pending, or ``drain_grace_s`` passes; whatever is still held
        then is released at once and given half a second to complete.  A
        completion after that (the gateway abandoning on stop) is not
        counted.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        listening = True

        def on_completion(completion: Completion) -> None:
            if listening:
                self.now = loop.time()
                self.complete(completion)
                wake.set()

        async def idle(timeout: float) -> None:
            try:
                await asyncio.wait_for(wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            wake.clear()

        self.on_completion = on_completion
        self.gateway = gateway
        self.start(loop.time(), stop_at)
        heap = self.heap
        deadline = stop_at + drain_grace_s
        try:
            while True:
                now = self.now = loop.time()
                if now > stop_at and (
                    now >= deadline
                    or not (self.holding or gateway.mux.pending_count())
                ):
                    break
                if heap and heap[0][0] <= now:
                    while heap and heap[0][0] <= now:
                        _, _, action, arg = heappop(heap)
                        action(arg)
                    continue
                gateway.flush()
                await idle(
                    max(0.0, min(heap[0][0] - now, 0.05) if heap else 0.05)
                )
            for i in list(self.holding):
                self.release(i)
            gateway.flush()
            settle_until = loop.time() + 0.5
            while gateway.mux.pending_count() and loop.time() < settle_until:
                await idle(0.05)
        finally:
            listening = False
            self.gateway = None


# ---------------------------------------------------------------- sim engine


class SimGateway:
    """The sim's transport and diner behind ``GatewayServer``'s seam.

    The real mux decides every submission and resolves every response —
    one ``submit`` and one ``resolve`` per operation.  An admitted
    operation reaches its node ``SIM_NET_DELAY_S`` later; each node grants
    acquires FIFO, one holder at a time, and a response takes the same
    delay back (plus ``SIM_GRANT_OVERHEAD_S`` for a grant).  Transport
    events go on the fleet's heap, at the fleet's virtual ``now``.
    """

    def __init__(self, mux: GatewayMux, fleet: ClientFleet) -> None:
        self.mux = mux
        self._fleet = fleet
        self._callbacks: Dict[str, Callable[[Completion], None]] = {}
        self._holder: List[Optional[str]] = [None] * len(mux.nodes)
        self._queue: List[deque] = [deque() for _ in mux.nodes]

    def submit(
        self, client: str, node: int, op: str,
        callback: Callable[[Completion], None],
    ) -> Optional[Decision]:
        fleet = self._fleet
        decision = self.mux.submit(client, node, op, fleet.now)
        if not decision.admitted:
            return decision
        self._callbacks[decision.req_id] = callback
        fleet.push(
            fleet.now + SIM_NET_DELAY_S,
            self._arrive if op == "acquire" else self._release,
            decision,
        )
        return None

    def _arrive(self, decision: Decision) -> None:
        self._queue[decision.node].append(decision)
        self._grant_next(decision.node)

    def _release(self, decision: Decision) -> None:
        node = decision.node
        if self._holder[node] == decision.client:
            self._holder[node] = None
        self._fleet.push(
            self._fleet.now + SIM_NET_DELAY_S, self._respond, decision.req_id
        )
        self._grant_next(node)

    def _grant_next(self, node: int) -> None:
        if self._holder[node] is not None or not self._queue[node]:
            return
        granted = self._queue[node].popleft()
        self._holder[node] = granted.client
        self._fleet.push(
            self._fleet.now + SIM_GRANT_OVERHEAD_S + SIM_NET_DELAY_S,
            self._respond,
            granted.req_id,
        )

    def _respond(self, req_id: str) -> None:
        completion = self.mux.resolve(req_id, True, self._fleet.now)
        self._callbacks.pop(req_id)(completion)


def run_sim(config: LoadgenConfig) -> Dict[str, Any]:
    """The virtual-time engine: a byte-stable report, no sockets."""
    config.validate()
    node_labels = [f"n{i}" for i in range(config.nodes)]
    mux = GatewayMux(
        node_labels,
        upstreams_per_node=config.upstreams_per_node,
        admission=config.admission,
        gateway_id=config.gateway_id,
    )
    stats = FleetStats(config.clients, node_labels)
    fleet = ClientFleet(config, stats)
    fleet.simulate(SimGateway(mux, fleet))
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
    otherwise :func:`~repro.gateway.live.run_live_command` spawns a real
    cluster (``cluster_flags`` are
    :func:`~repro.net.cluster.cluster_config`'s) behind a real gateway and
    the neighbour-exclusion audit runs over the event stream.  Exit 1 on a
    safety violation.
    """
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
    if sim:
        report, violated = run_sim(config), []
    else:
        from .live import run_live_command

        report, violated = run_live_command(
            config, nodes=nodes, topology=topology, seed=seed,
            duration=duration, metrics_out=metrics_out, events_out=events_out,
            **cluster_flags,
        )
    print("\n".join(summarize_loadgen_report(report)))
    if violated:
        print("\n".join(violated))
    if out:
        print(f"  loadgen report: {write_loadgen_report(out, report)}")
    return 1 if violated else 0
