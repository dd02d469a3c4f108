"""The lock-service client API and the soak harness.

:class:`LockClient` is what an application sees: connect to any node of a
live cluster and ``acquire()``/``release()`` its resource.  Underneath,
an acquire makes the node's philosopher hungry and resolves when it
starts eating — so the paper's guarantees (no neighbouring eaters;
malicious crashes disturb at most radius 2 in the §3 program, and only
the faulty edge-set under Chandy–Misra) become service-level guarantees:
two clients of *neighbouring* nodes never hold their locks at once.

``soak`` drives one client per node against a chaos-injected cluster
through :func:`~repro.net.cluster.supervised_run`, whose safety audit
(:func:`~repro.obs.slo.exclusion_audit`) reads the **emitted event
stream**, not in-process state: grant and release events (state
transitions observed at each node) are folded into hold intervals, and
every topology edge is checked for overlap.  Nodes the schedule crashed
maliciously are excluded from the safety audit — the paper's
specification says nothing about what a faulty process itself does, only
about its healthy neighbourhood.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.events import NetEventKind
from ..obs.slo import (  # Violation, neighbour_violations: public here too
    LockState,
    SloReport,
    Violation,
    in_time_order,
    neighbour_violations,
    summarize_slo_report,
    write_slo_report,
)
from ..sim.topology import Pid
from ..sim.trace import TraceEvent
from .codec import Decoder, Frame, T_RSP, encode_hello, encode_request
from .cluster import (
    ClusterConfig,
    ClusterResult,
    ClusterSupervisor,
    cluster_config,
    run_interruptible,
    run_summary,
    supervised_run,
    write_cluster_artefacts,
)

#: An acquire over a dead or silently partitioned link must fail, not
#: hang forever — the default is deliberately finite.
DEFAULT_ACQUIRE_TIMEOUT = 30.0


class LockError(RuntimeError):
    """The client lost its node or got a refusal."""


@dataclass
class _Pending:
    """One in-flight request: its future and when it was issued."""

    future: asyncio.Future
    at: float


class LockClient:
    """A reconnecting TCP client of one node's lock service.

    When the link drops (node crash, transport error, watchdog abort)
    every pending request fails fast with the real cause, and — with
    ``reconnect=True`` — a background task re-dials with exponential
    backoff plus jitter.  Request ids are prefixed with the connection
    *epoch* (bumped on every successful dial), so an id from a previous
    life can never collide with one from the current connection: a
    replayed ``acquire`` cannot double-grant.  A watchdog fails pending
    requests over a link that stalls *without* closing (a silent
    partition) instead of letting them hang, and a grant that arrives
    after its acquire gave up is released immediately so the node never
    holds a meal open on behalf of nobody.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "client",
        reconnect: bool = True,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
        stall_timeout_s: float = 5.0,
        bus=None,
        obs_pid: Optional[Pid] = None,
        t0: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.reconnect = reconnect
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.stall_timeout_s = stall_timeout_s
        self._bus = bus
        self._obs_pid = obs_pid
        self._obs_seq = 0
        self._t0 = t0
        self._rng = rng if rng is not None else random.Random(client_id)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._reconnect_task: Optional[asyncio.Task] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._pending: Dict[Tuple[str, Any], _Pending] = {}
        self._connected = asyncio.Event()
        self._next_id = 0
        self._last_rx = 0.0
        self._closed = False
        self.epoch = 0
        self.reconnects = 0
        self.orphan_grants = 0
        self.junk_frames = 0
        self.last_error: Optional[BaseException] = None

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> None:
        """Dial the node; raises ``OSError`` when it cannot be reached.

        The first connection is explicit so callers see immediate
        failure; with ``reconnect=True`` every later drop re-dials in the
        background.
        """
        await self._open()
        if self._watchdog_task is None:
            self._watchdog_task = asyncio.create_task(self._watchdog())

    async def _open(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        loop = asyncio.get_running_loop()
        self._writer = writer
        self.epoch += 1
        self._last_rx = loop.time()
        writer.write(encode_hello(self.client_id, role="client"))
        self._read_task = asyncio.create_task(self._read_loop(reader))
        self._connected.set()

    async def close(self) -> None:
        self._closed = True
        self._connected.clear()
        tasks = [
            t
            for t in (self._read_task, self._reconnect_task, self._watchdog_task)
            if t is not None
        ]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._fail_pending(LockError("client closed"))
        if self._writer is not None:
            self._writer.close()

    # ----------------------------------------------------------- transport

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = Decoder()
        cause: Optional[BaseException] = None
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    cause = ConnectionError("connection closed by peer")
                    break
                self._last_rx = asyncio.get_running_loop().time()
                for frame in decoder.feed(data):
                    self._handle_frame(frame)
        except (ConnectionError, OSError) as exc:
            cause = exc
        except asyncio.CancelledError:
            cause = ConnectionError("client closing")
            raise
        except Exception as exc:  # a poison frame must not kill us silently
            cause = exc
            self.last_error = exc
        finally:
            self._connected.clear()
            writer, self._writer = self._writer, None
            if writer is not None:
                writer.close()
            self._fail_pending(LockError(f"connection lost: {cause}"))
            if self.reconnect and not self._closed:
                self._reconnect_task = asyncio.create_task(
                    self._reconnect_loop(cause)
                )

    def _handle_frame(self, frame: Frame) -> None:
        if frame.type != T_RSP or not isinstance(frame.body, dict):
            self.junk_frames += 1
            return
        body = frame.body
        key = (str(body.get("op")), body.get("id"))
        entry = self._pending.pop(key, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(body)
        elif body.get("op") == "acquire" and body.get("ok"):
            # A grant nobody is waiting for: our acquire timed out (or the
            # epoch turned over).  Hand it straight back, or the node
            # would hold the meal open forever on behalf of nobody.
            self.orphan_grants += 1
            self._send_frame("release", body.get("id"))

    async def _reconnect_loop(self, cause: Optional[BaseException]) -> None:
        backoff = self.backoff_s
        while not self._closed:
            # Full jitter keeps a fleet of clients from re-dialing in
            # lockstep after a node restart.
            await asyncio.sleep(backoff * (0.5 + self._rng.random()))
            try:
                await self._open()
            except OSError as exc:
                self.last_error = exc
                backoff = min(backoff * 2, self.max_backoff_s)
                continue
            self.reconnects += 1
            self._publish(
                NetEventKind.CLIENT_RECONNECT,
                {"epoch": self.epoch, "after": str(cause)},
            )
            return

    async def _watchdog(self) -> None:
        """Fail pending requests over a silently stalled link.

        A chaos partition can stop all traffic without closing the TCP
        connection; the read loop then never observes EOF and pending
        futures would hang forever.  When a request has waited
        ``stall_timeout_s`` with nothing at all received in that window,
        declare the link dead: fail the futures and abort the transport
        so the reconnect path takes over.
        """
        interval = max(0.05, self.stall_timeout_s / 4)
        while not self._closed:
            await asyncio.sleep(interval)
            if not self._pending:
                continue
            now = asyncio.get_running_loop().time()
            oldest = min(p.at for p in self._pending.values())
            if (
                now - oldest >= self.stall_timeout_s
                and now - self._last_rx >= self.stall_timeout_s
            ):
                self._fail_pending(LockError("connection stalled (watchdog)"))
                writer = self._writer
                if writer is not None:
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    else:
                        writer.close()

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            if not entry.future.done():
                entry.future.set_exception(exc)

    def _send_frame(self, op: str, req_id: Any) -> None:
        writer = self._writer
        if writer is None or writer.is_closing():
            return
        try:
            writer.write(encode_request(op, req_id))
        except (ConnectionError, OSError):
            pass

    def _publish(self, kind: NetEventKind, detail: Dict[str, Any]) -> None:
        if self._bus is None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        t = 0.0 if self._t0 is None else round(loop.time() - self._t0, 6)
        self._obs_seq += 1
        self._bus.publish(
            TraceEvent(self._obs_seq, kind, self._obs_pid, {"t": t, **detail})
        )

    # ------------------------------------------------------------ requests

    def _request(
        self, op: str, req_id: Any = None
    ) -> Tuple[Any, asyncio.Future]:
        writer = self._writer
        if writer is None or writer.is_closing():
            raise LockError("not connected")
        loop = asyncio.get_running_loop()
        allocate = req_id is None
        if allocate:
            req_id = f"{self.client_id}.{self.epoch}.{self._next_id + 1}"
        # The acquire carries a client-side span id (the request id): the
        # node adopts it as the acquire span's ``client_span`` attribute,
        # chaining the causal trace across the process boundary.  Encoded
        # before anything is registered: an id the wire cannot carry
        # (``release`` of something we never issued) raises CodecError.
        frame = encode_request(op, req_id)
        future = loop.create_future()
        self._pending[(op, req_id)] = _Pending(future, loop.time())
        try:
            writer.write(frame)
        except (ConnectionError, OSError) as exc:
            self._pending.pop((op, req_id), None)
            raise LockError(f"send failed: {exc}") from exc
        if allocate:
            # Burn the sequence number only once the request is on the
            # wire: a refused send must not leave an id gap that skews
            # grant/release audits across reconnects.
            self._next_id += 1
        return req_id, future

    async def acquire(
        self, *, timeout: Optional[float] = DEFAULT_ACQUIRE_TIMEOUT
    ) -> Any:
        """Block until this node's philosopher eats on our behalf.

        Returns the request id (pass it to :meth:`release`).  Raises
        ``asyncio.TimeoutError`` if the node cannot be granted in time —
        under chaos that is a legitimate outcome, not a bug — and
        :class:`LockError` when the connection is lost mid-request (the
        caller decides whether to retry; a silent retry here could
        double-acquire if the lost response was a grant).
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                raise asyncio.TimeoutError("acquire timed out")
            if self.reconnect:
                await asyncio.wait_for(self._connected.wait(), remaining)
                remaining = None if deadline is None else deadline - loop.time()
            try:
                req_id, future = self._request("acquire")
            except LockError:
                if not self.reconnect or self._closed:
                    raise
                await asyncio.sleep(0.01)  # connection flapped; re-await it
                continue
            body = await asyncio.wait_for(future, remaining)
            if not body.get("ok"):
                raise LockError(f"acquire refused: {body!r}")
            return req_id

    async def release(self, req_id: Any, *, timeout: Optional[float] = 5.0) -> None:
        _, future = self._request("release", req_id)
        await asyncio.wait_for(future, timeout)


# ------------------------------------------------------------------- safety


def hold_intervals(
    events: Sequence[Mapping[str, Any]], *, end_t: float
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-node ``(grant_t, release_t)`` intervals from an event stream —
    :class:`~repro.obs.slo.LockState`'s, folded in time order.

    A grant without a matching release (node crashed or run ended while
    eating) closes at ``end_t``.  Tolerates duplicate releases and events
    out of order (sorts by time first; equal times keep stream order) —
    the stream is honest data, not a trusted invariant.
    """
    state = LockState()
    marks = [e for e in events if e.get("event") in ("net-grant", "net-release")]
    for event in in_time_order(marks):
        state.feed(event)
    return state.hold_intervals(end_t)


def attribute_violations(violations: Sequence[Violation]) -> List[str]:
    """Smallest (greedy) set of nodes whose exclusion clears every overlap.

    The fault-attribution step of the Byzantine-boundary demonstration:
    forged forks exist only on the faulty node's own incident edges, so
    every violation pair it causes includes it — the node appearing in the
    most violations is the culprit, and removing it (repeatedly, if several
    nodes misbehave) empties the list.  Ties break alphabetically so the
    audit is deterministic.
    """
    remaining = list(violations)
    blamed: List[str] = []
    while remaining:
        counts: Dict[str, int] = {}
        for v in remaining:
            counts[v.node_a] = counts.get(v.node_a, 0) + 1
            counts[v.node_b] = counts.get(v.node_b, 0) + 1
        worst = max(sorted(counts), key=lambda n: counts[n])
        blamed.append(worst)
        remaining = [
            v for v in remaining if worst not in (v.node_a, v.node_b)
        ]
    return blamed


def violation_lines(
    violations: Sequence[Violation], byzantine: Sequence[str]
) -> List[str]:
    """What ``cluster soak`` and live ``loadgen`` print under a
    ``safety: VIOLATED`` line: the first ten overlaps and the attribution,
    checked against the nodes the run subverted."""
    blamed = attribute_violations(violations)
    attribution = f"  attribution: blames {', '.join(blamed) or 'nobody'}"
    if byzantine:
        same = sorted(blamed) == sorted(byzantine)
        match = "matches" if same else "MISMATCHES"
        attribution += f" (byzantine set {match}: {', '.join(byzantine)})"
    return [f"    {violation}" for violation in violations[:10]] + [attribution]


# --------------------------------------------------------------------- soak


@dataclass
class ClientStats:
    """What one traffic loop observed."""

    node: str
    acquired: int = 0
    released: int = 0
    timeouts: int = 0
    errors: int = 0
    reconnects: int = 0
    latencies_s: List[float] = field(default_factory=list)


@dataclass
class SoakResult:
    """A complete soak: the cluster run plus the audit."""

    cluster: ClusterResult
    clients: List[ClientStats]
    violations: List[Violation]
    intervals: Dict[str, List[Tuple[float, float]]]
    #: Nodes subverted into Byzantine mode during the run (repr'd).  They
    #: stay *inside* the audit — their violations are the demonstration —
    #: and :attr:`blamed` should recover exactly this set from the
    #: violation pairs alone.
    byzantine: List[str] = field(default_factory=list)
    #: Final SLO evaluation (``cluster soak --slo`` only), reconciled with
    #: this audit's violation set.
    slo_report: Optional["SloReport"] = None

    @property
    def safe(self) -> bool:
        return not self.violations

    @property
    def blamed(self) -> List[str]:
        """Fault attribution: see :func:`attribute_violations`."""
        return attribute_violations(self.violations)

    @property
    def starved(self) -> List[str]:
        """Nodes the schedule did not kill that never granted — the
        ``--require-progress`` verdict."""
        cluster = self.cluster
        return [
            n for n in cluster.nodes
            if n not in cluster.killed
            and cluster.counters.get(n, {}).get("grants", 0) == 0
        ]

    def lines(self) -> List[str]:
        """What ``cluster soak`` prints after the run's summary: client
        totals, progress, and the safety audit's verdict."""
        granted = sum(1 for c in self.cluster.counters.values() if c.get("grants"))
        lines = [
            f"  clients: {sum(c.acquired for c in self.clients)} acquisitions, "
            f"{sum(c.timeouts for c in self.clients)} timeouts, "
            f"{sum(c.errors for c in self.clients)} errors",
            f"  progress: {granted}/{len(self.cluster.nodes)} "
            "nodes granted at least once",
        ]
        if self.safe:
            return lines + ["  safety: OK (no neighbouring holders)"]
        return lines + [
            f"  safety: VIOLATED ({len(self.violations)} overlaps)",
            *violation_lines(self.violations, self.byzantine),
        ]


async def _client_loop(
    client: LockClient,
    stats: ClientStats,
    *,
    stop_at: float,
    rng: random.Random,
    hold_s: float,
    acquire_timeout: float,
) -> None:
    loop = asyncio.get_running_loop()
    try:
        await client.connect()
    except OSError:
        stats.errors += 1
        return
    try:
        while True:
            remaining = stop_at - loop.time()
            if remaining <= 0.05:
                break
            started = loop.time()
            try:
                req_id = await client.acquire(
                    timeout=min(acquire_timeout, remaining)
                )
            except asyncio.TimeoutError:
                stats.timeouts += 1
                continue  # starved for now (chaos can do this); keep asking
            except (LockError, OSError):
                # The node may be down pending a restart — stay in the loop
                # so a relaunched node sees fresh demand and can re-grant.
                stats.errors += 1
                await asyncio.sleep(min(0.1, max(0.0, stop_at - loop.time())))
                continue
            stats.acquired += 1
            stats.latencies_s.append(round(loop.time() - started, 6))
            await asyncio.sleep(rng.uniform(0.3, 1.0) * hold_s)
            try:
                await client.release(req_id)
                stats.released += 1
            except (asyncio.TimeoutError, LockError, OSError):
                stats.errors += 1
                continue
            await asyncio.sleep(rng.uniform(0.2, 0.8) * hold_s)
    finally:
        stats.reconnects = client.reconnects
        await client.close()


async def soak(
    config: ClusterConfig,
    duration_s: float,
    *,
    hold_s: float = 0.05,
    acquire_timeout: float = 5.0,
) -> SoakResult:
    """One lock client per node against a chaos-injected cluster for the
    window, then the run's exclusion audit."""
    nodes = config.topology.nodes
    stats = [ClientStats(node=repr(pid)) for pid in nodes]

    async def traffic(supervisor: ClusterSupervisor, stop_at: float) -> None:
        tasks = [
            asyncio.create_task(_client_loop(
                LockClient(
                    config.host, supervisor.nodes[pid].port,
                    client_id=f"client-{i}", stall_timeout_s=acquire_timeout,
                    max_backoff_s=0.5, bus=supervisor.bus, obs_pid=pid,
                    t0=supervisor._t0, rng=random.Random(config.seed * 7919 + i),
                ),
                stats[i],
                stop_at=stop_at, rng=random.Random(config.seed * 1000 + i),
                hold_s=hold_s, acquire_timeout=acquire_timeout,
            ))
            for i, pid in enumerate(nodes)
        ]
        try:
            await asyncio.sleep(stop_at - asyncio.get_running_loop().time())
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    result = await supervised_run(config, duration_s, traffic)
    return SoakResult(
        cluster=result,
        clients=stats,
        violations=result.audit.violations,
        intervals=result.audit.intervals,
        byzantine=list(result.byzantine),
        slo_report=result.slo_report,
    )


def cmd_cluster_soak(
    *, hold: float, acquire_timeout: float, require_progress: bool,
    slo_report: Optional[str], metrics_out: Optional[str], events_out: Optional[str],
    **flags: Any,
) -> int:
    """``repro cluster soak``: lock-service clients under chaos (``flags``
    are :func:`~repro.net.cluster.cluster_config`'s); exit 1 on a safety
    violation, an exhausted SLO budget or, with ``require_progress``, a
    surviving node that never granted."""
    config, duration = cluster_config(
        lock_service=True, events_out=events_out, **flags
    )
    result = run_interruptible(
        config,
        soak(config, duration, hold_s=hold, acquire_timeout=acquire_timeout),
    )
    print("\n".join(run_summary(result.cluster) + result.lines()))
    write_cluster_artefacts(result.cluster, metrics_out=metrics_out, events_out=events_out)
    status = 0 if result.safe else 1
    if result.slo_report is not None:
        for line in summarize_slo_report(result.slo_report.to_json()):
            print(f"  {line}")
        if slo_report:
            print(f"  slo report: {write_slo_report(slo_report, result.slo_report)}")
        if result.slo_report.exhausted:
            status = 1
    if require_progress and result.starved:
        print(f"  progress: FAILED — no grants at {', '.join(result.starved)}")
        status = 1
    return status
