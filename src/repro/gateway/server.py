"""The live gateway: few upstream sockets, many logical clients.

``GatewayServer`` is the asyncio front-end tier.  Downstream it offers
two faces — an in-process submit API (how the load generator drives 10⁴+
logical clients without 10⁴ sockets) and an optional TCP listener
speaking the same framed protocol, where many logical clients share one
downstream connection and requests carry the target ``node`` index.
Upstream it owns a small pool of TCP connections to the diner nodes
(``upstreams_per_node`` per node, total capped by ``max_upstreams``),
speaks the packed lock-service frames, batches writes per
:class:`~repro.gateway.batch.FlushPolicy`, and survives node crashes by
abandoning in-flight operations (typed ``connection-lost`` failures) and
re-dialling with backoff.

All routing, admission, and fairness accounting lives in
:class:`~repro.gateway.mux.GatewayMux`; this module is only the
transport around it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.prom import Sample
from ..net.cluster import MetricsEndpoint
from ..net.codec import (
    Decoder,
    Frame,
    T_REQ,
    T_RSP,
    encode_hello,
    encode_request,
    encode_response,
)
from .admission import AdmissionConfig
from .batch import BatchWriter, FlushPolicy
from .mux import BAD_REQUEST_ERROR, Completion, Decision, GatewayMux, retry_body

#: ``(host, port)`` of one node's client-facing socket.
Address = Tuple[str, int]


@dataclass(frozen=True)
class GatewayConfig:
    """One gateway instance: where the nodes are and how hard to push."""

    upstream_addrs: Sequence[Address]  #: index == mux node index
    node_labels: Optional[Sequence[str]] = None
    upstreams_per_node: int = 1
    max_upstreams: int = 8
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    upstream_flush: FlushPolicy = field(default_factory=FlushPolicy)
    downstream_flush: FlushPolicy = field(
        default_factory=lambda: FlushPolicy(max_delay_s=0.001)
    )
    gateway_id: str = "gw"
    listen_host: Optional[str] = None  #: enable the TCP front end
    listen_port: int = 0
    metrics_port: Optional[int] = None
    host: str = "127.0.0.1"
    reconnect_backoff_s: float = 0.05
    max_reconnect_backoff_s: float = 1.0

    def validate(self) -> None:
        if not self.upstream_addrs:
            raise ValueError("gateway needs at least one upstream node")
        total = len(self.upstream_addrs) * self.upstreams_per_node
        if total > self.max_upstreams:
            raise ValueError(
                f"{total} upstream connections exceed the budget of "
                f"{self.max_upstreams} (nodes x upstreams_per_node)"
            )
        self.admission.validate()
        self.upstream_flush.validate()
        self.downstream_flush.validate()


class _Upstream:
    """One pooled connection slot: socket, batcher, reader task."""

    __slots__ = (
        "slot", "addr", "reader", "writer", "batch", "task", "connected",
        "dials",
    )

    def __init__(self, slot: int, addr: Address) -> None:
        self.slot = slot
        self.addr = addr
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.batch: Optional[BatchWriter] = None
        self.task: Optional[asyncio.Task] = None
        self.connected = asyncio.Event()
        self.dials = 0


class _Downstream:
    """One front-end TCP connection carrying many logical clients."""

    __slots__ = ("name", "writer", "batch", "decoder")

    def __init__(self, name: str, writer: asyncio.StreamWriter,
                 batch: BatchWriter) -> None:
        self.name = name
        self.writer = writer
        self.batch = batch
        self.decoder = Decoder()


class GatewayServer:
    """The running gateway: upstream pool + optional TCP front end."""

    def __init__(self, config: GatewayConfig) -> None:
        config.validate()
        self.config = config
        labels = (
            list(config.node_labels)
            if config.node_labels is not None
            else [str(i) for i in range(len(config.upstream_addrs))]
        )
        self.mux = GatewayMux(
            labels,
            upstreams_per_node=config.upstreams_per_node,
            admission=config.admission,
            gateway_id=config.gateway_id,
        )
        self._upstreams: List[_Upstream] = [
            _Upstream(slot, config.upstream_addrs[node_index])
            for slot, node_index in enumerate(self.mux.slot_node)
        ]
        #: gateway req_id -> in-process completion callback
        self._local: Dict[str, Callable[[Completion], None]] = {}
        #: gateway req_id -> (downstream, original id)
        self._remote: Dict[str, Tuple[_Downstream, str]] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics: Optional[MetricsEndpoint] = None
        self.listen_port: Optional[int] = None
        self.metrics_port: Optional[int] = None
        self._running = False
        self._t0: Optional[float] = None
        self.downstream_conns = 0
        self.junk_frames = 0

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Dial every upstream slot; open the front end if configured."""
        self._running = True
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        dials = [self._dial(u) for u in self._upstreams]
        await asyncio.gather(*dials)
        for upstream in self._upstreams:
            upstream.task = asyncio.create_task(self._upstream_loop(upstream))
        cfg = self.config
        if cfg.listen_host is not None:
            self._server = await asyncio.start_server(
                self._serve_downstream, cfg.listen_host, cfg.listen_port
            )
            self.listen_port = self._server.sockets[0].getsockname()[1]
        if cfg.metrics_port is not None:
            self._metrics = MetricsEndpoint(
                self.live_samples, cfg.host, cfg.metrics_port
            )
            self.metrics_port = await self._metrics.start()

    async def stop(self) -> None:
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics is not None:
            await self._metrics.close()
            self._metrics = None
        for upstream in self._upstreams:
            if upstream.task is not None:
                upstream.task.cancel()
        for upstream in self._upstreams:
            if upstream.task is not None:
                try:
                    await upstream.task
                except (asyncio.CancelledError, Exception):
                    pass
                upstream.task = None
            if upstream.batch is not None:
                upstream.batch.close()
            if upstream.writer is not None:
                upstream.writer.close()
                upstream.writer = None
        loop = asyncio.get_running_loop()
        for slot in range(len(self._upstreams)):
            for completion in self.mux.abandon(slot, loop.time()):
                self._route(completion)

    async def _dial(self, upstream: _Upstream) -> None:
        cfg = self.config
        backoff = cfg.reconnect_backoff_s
        while self._running or upstream.dials == 0:
            try:
                reader, writer = await asyncio.open_connection(*upstream.addr)
            except OSError:
                if not self._running:
                    return
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, cfg.max_reconnect_backoff_s)
                continue
            upstream.dials += 1
            upstream.writer = writer
            upstream.batch = BatchWriter(writer, cfg.upstream_flush)
            writer.write(
                encode_hello(
                    f"{cfg.gateway_id}/u{upstream.slot}", role="client"
                )
            )
            upstream.connected.set()
            upstream.reader = reader
            return
        raise OSError("gateway stopped before upstream connected")

    async def _upstream_loop(self, upstream: _Upstream) -> None:
        """Read responses; on death, abandon in-flight and re-dial."""
        loop = asyncio.get_running_loop()
        while self._running:
            reader = upstream.reader
            if reader is None:
                return
            decoder = Decoder()
            try:
                while True:
                    data = await reader.read(65536)
                    if not data:
                        break
                    for frame in decoder.feed(data):
                        self._on_upstream_frame(frame)
            except (ConnectionError, OSError):
                pass
            upstream.connected.clear()
            if upstream.batch is not None:
                upstream.batch.close()
                upstream.batch = None
            if upstream.writer is not None:
                upstream.writer.close()
                upstream.writer = None
            for completion in self.mux.abandon(upstream.slot, loop.time()):
                self._route(completion)
            if not self._running:
                return
            try:
                await self._dial(upstream)
            except OSError:
                return

    # ----------------------------------------------------------- responses

    def _on_upstream_frame(self, frame: Frame) -> None:
        if frame.type != T_RSP or not isinstance(frame.body, dict):
            self.junk_frames += 1
            return
        body = frame.body
        req_id = body.get("id")
        if not isinstance(req_id, str):
            self.junk_frames += 1
            return
        loop = asyncio.get_running_loop()
        completion = self.mux.resolve(
            req_id,
            bool(body.get("ok")),
            loop.time(),
            error=body.get("error"),
            retry_after_s=float(body.get("retry_after_s") or 0.0),
        )
        if completion is not None:
            self._route(completion)

    def _route(self, completion: Completion) -> None:
        callback = self._local.pop(completion.req_id, None)
        if callback is not None:
            callback(completion)
            return
        remote = self._remote.pop(completion.req_id, None)
        if remote is not None:
            downstream, original_id = remote
            self._respond_downstream(
                downstream,
                original_id,
                completion.op,
                completion.ok,
                error=completion.error,
                retry_after_s=completion.retry_after_s,
            )

    # ------------------------------------------------------ in-process API

    def submit(
        self,
        client: str,
        node: int,
        op: str,
        callback: Callable[[Completion], None],
    ) -> Optional[Decision]:
        """Submit one logical-client operation from in-process.

        Returns the shed :class:`Decision` when admission refuses (the
        callback is *not* invoked); returns ``None`` when the operation
        went upstream — the callback fires with its completion, including
        the typed ``connection-lost`` failure if the pipe dies.
        """
        loop = asyncio.get_running_loop()
        decision = self.mux.submit(client, node, op, loop.time())
        if not decision.admitted:
            return decision
        upstream = self._upstreams[decision.upstream]
        if upstream.batch is None:
            self._local[decision.req_id] = callback  # abandon() routes it
            for completion in self.mux.abandon(decision.upstream, loop.time()):
                self._route(completion)
            return None
        self._local[decision.req_id] = callback
        upstream.batch.send(encode_request(op, decision.req_id))
        return None

    async def request(self, client: str, node: int, op: str) -> Completion:
        """One operation as a coroutine — convenience over :meth:`submit`."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _done(completion: Completion) -> None:
            if not future.done():
                future.set_result(completion)

        decision = self.submit(client, node, op, _done)
        if decision is not None:
            return Completion(
                client=client, node=node, op=op, req_id="",
                ok=False, wait_s=0.0, error=retry_body(decision)["error"],
                retry_after_s=decision.retry_after_s,
            )
        return await future

    def flush(self) -> None:
        """Force every per-connection batch onto the wire now."""
        for upstream in self._upstreams:
            if upstream.batch is not None:
                upstream.batch.flush()

    # ------------------------------------------------------- TCP front end

    async def _serve_downstream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.downstream_conns += 1
        downstream = _Downstream(
            f"ds{self.downstream_conns}",
            writer,
            BatchWriter(writer, self.config.downstream_flush),
        )
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for frame in downstream.decoder.feed(data):
                    self._on_downstream_frame(downstream, frame)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            downstream.batch.close()
            writer.close()
            dead = [
                req_id
                for req_id, (ds, _) in self._remote.items()
                if ds is downstream
            ]
            for req_id in dead:
                # The client is gone; the response (if any) has nowhere to
                # go, but the upstream op must still settle accounting.
                self._remote.pop(req_id, None)

    def _on_downstream_frame(
        self, downstream: _Downstream, frame: Frame
    ) -> None:
        if frame.is_hello:
            return  # identity is per-request on a multiplexed pipe
        if frame.type != T_REQ:
            self.junk_frames += 1
            return
        # A decoded T_REQ body is ``op`` (acquire|release) + ``id`` (a short
        # string) by the codec's schema — what goes upstream and back down
        # is therefore always encodable; only ``node`` is optional.
        body = frame.body
        op, original_id = body["op"], body["id"]
        node = body.get("node")
        if node is None:
            self._respond_downstream(
                downstream, original_id, op, False, error=BAD_REQUEST_ERROR
            )
            return
        # The logical client is the id's stem (``client.seq`` by
        # convention) — admission fairness needs an identity that is
        # stable across a client's requests, not per-request.
        client = original_id.rsplit(".", 1)[0]
        loop = asyncio.get_running_loop()
        decision = self.mux.submit(client, node, op, loop.time())
        if not decision.admitted:
            self._respond_downstream(
                downstream, original_id, op, False,
                error=retry_body(decision)["error"],
                retry_after_s=decision.retry_after_s,
            )
            return
        upstream = self._upstreams[decision.upstream]
        self._remote[decision.req_id] = (downstream, original_id)
        if upstream.batch is None:
            for completion in self.mux.abandon(decision.upstream, loop.time()):
                self._route(completion)
            return
        upstream.batch.send(encode_request(op, decision.req_id))

    def _respond_downstream(
        self,
        downstream: _Downstream,
        original_id: str,
        op: str,
        ok: bool,
        *,
        error: Optional[str] = None,
        retry_after_s: float = 0.0,
    ) -> None:
        if downstream.batch.closed:
            return
        downstream.batch.send(
            encode_response(
                op, original_id, ok, error=error,
                retry_after_s=retry_after_s or None,
            )
        )

    # -------------------------------------------------------------- gauges

    def batch_counters(self) -> Dict[str, Any]:
        frames = sum(
            u.batch.frames_out for u in self._upstreams if u.batch is not None
        )
        flushes = sum(
            u.batch.flushes for u in self._upstreams if u.batch is not None
        )
        return {
            "upstream_frames": frames,
            "upstream_flushes": flushes,
            "mean_batch": frames / flushes if flushes else 0.0,
            "dials": sum(u.dials for u in self._upstreams),
        }

    def live_samples(self) -> List[Sample]:
        loop = asyncio.get_running_loop()
        uptime = 0.0 if self._t0 is None else round(loop.time() - self._t0, 6)
        batch = self.batch_counters()
        samples = [
            Sample("repro_gateway_uptime_seconds", uptime,
                   help="Seconds since the gateway started"),
            Sample("repro_gateway_upstreams",
                   float(sum(1 for u in self._upstreams if u.connected.is_set())),
                   help="Connected upstream sockets"),
            Sample("repro_gateway_batch_frames_total",
                   float(batch["upstream_frames"]), kind="counter",
                   help="Frames batched onto upstream sockets"),
            Sample("repro_gateway_batch_flushes_total",
                   float(batch["upstream_flushes"]), kind="counter",
                   help="Batch writes issued upstream"),
            Sample("repro_gateway_downstream_conns",
                   float(self.downstream_conns), kind="counter",
                   help="Front-end TCP connections accepted"),
        ]
        samples.extend(self.mux.samples())
        return samples
