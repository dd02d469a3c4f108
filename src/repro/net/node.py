"""The live node daemon: one §4 process served over asyncio TCP.

A :class:`NodeServer` hosts one :class:`~repro.mp.node.MpProcess` — the
same object that runs under :class:`~repro.mp.engine.MpEngine` — behind a
real socket transport:

* one listening socket accepts *inbound* peer links and lock clients,
  each served as an :class:`asyncio.Protocol` straight from the event
  loop's read callback;
* one outbound connection per neighbour carries this node's sends, with
  automatic reconnect — dialled through a chaos proxy when the cluster
  plays faults, to the neighbour's own port when it does not;
* the node is **event-driven**: every validated peer delivery, client
  ``acquire``, and ``release`` (or holder disconnect) is followed at once
  by :meth:`~repro.mp.node.MpProcess.on_wake`, the guard half of a tick,
  so a fork hop costs a round trip, not a timer period;
* a ``call_later`` chain fires :meth:`~repro.mp.node.MpProcess.on_tick`
  every ``tick_interval`` seconds — the retransmit/timer period (repair
  re-sends, yield counters, the client-less meal countdown) and the
  model's guarantee that every process takes infinitely many steps even
  when nothing arrives.  A wake is a delivery followed at once by that
  process's tick, minus the timers, so every live execution is still a
  schedule :class:`~repro.mp.engine.MpEngine` could have produced;
* every inbound byte goes through the garbage-tolerant
  :class:`~repro.net.codec.Decoder`, and every decoded ``T_MSG`` is
  validated (dst is me, src is a neighbour, per-link sequence number is
  fresh) before reaching ``on_message`` — the wire image of the model's
  "channels may hold arbitrary junk" discipline;
* peer traffic is counted (``msgs_out``/``msgs_in``), not published per
  frame; only an armed flight ring or tracer records frames one by one.

Per-link sequence numbers make duplication and reordering at the byte
level safe for token-carrying protocols: a stale or repeated frame is
discarded at the transport, so chaos ``dup``/``reorder`` degrade into
``drop`` (a liveness matter the protocols already own) instead of forging
a second fork (a safety matter they must never face).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

from ..mp.diners_mp import DinersMpProcess, E as EATING, H as HUNGRY
from ..mp.message import Message
from ..mp.node import MpProcess
from ..obs.bus import EventBus
from ..obs.events import NetEventKind
from ..obs.flight import FlightRecorder
from ..obs.tracing import LamportClock, ROOT_SPAN, Span, SpanRecorder
from ..sim.topology import Pid, Topology
from ..sim.trace import TraceEvent
from .codec import (
    Decoder,
    Frame,
    T_MSG,
    T_REQ,
    WIRE_VERSION,
    decode_message,
    encode_frame,
    encode_hello,
    encode_response,
    hello_fields,
)

#: ``(host, port)`` of a peer's inbound socket (or its chaos proxy).
Address = Tuple[str, int]


class NetContext:
    """The live transport's :class:`~repro.mp.node.ProcessContext`.

    Handed to the hosted process on every tick, message and wake, exactly
    like :class:`~repro.mp.node.MpContext` — ``send`` returns False when
    the link to ``dst`` is currently down, which the simulator models as a
    channel refusing a message.
    """

    __slots__ = ("_server",)

    def __init__(self, server: "NodeServer") -> None:
        self._server = server

    @property
    def pid(self) -> Pid:
        return self._server.pid

    @property
    def neighbors(self) -> Tuple[Pid, ...]:
        return self._server.neighbors

    @property
    def topology(self) -> Topology:
        return self._server.topology

    def send(self, dst: Pid, payload: Tuple) -> bool:
        return self._server.send_message(dst, payload)


class LockDinerProcess(DinersMpProcess):
    """A Chandy–Misra philosopher exposed as a resource lock.

    The process is hungry exactly while ``waiters`` — the node server's
    own queue of acquires awaiting a grant — is non-empty; there is no
    second count to drift from it when a waiting connection dies.  Once
    eating, the meal is *held open* until the client releases — every
    tick tops the countdown up while ``holding`` — so "eating" and
    "client holds the lock" are the same interval, which is what the soak
    safety checker audits.  A meal nobody claimed (the waiter left while
    the forks were in flight) runs its ``eat_ticks`` down on the timer.
    """

    def __init__(self, pid: Pid, topology: Topology, *, seed: int = 0) -> None:
        super().__init__(
            pid,
            topology,
            needs=lambda: bool(self.waiters),
            eat_ticks=2,
            seed=seed,
            repair=True,  # real links drop frames; see diners_mp docstring
        )
        #: The hosting server's waiter queue, bound by :class:`NodeServer`.
        self.waiters: Sequence = ()
        self.holding = False

    def on_tick(self, ctx) -> None:
        if self.state == EATING and self.holding:
            self._eating_remaining = max(self._eating_remaining, 2)
        super().on_tick(ctx)

    def grant_taken(self) -> None:
        """The server matched this meal to a waiting acquire."""
        self.holding = True

    def release(self, ctx) -> None:
        """Client released (or its connection died): exit the meal now."""
        self.holding = False
        if self.state == EATING:
            self._exit(ctx)


class _PeerLink:
    """State of one outbound neighbour connection."""

    __slots__ = ("address", "writer", "task", "seq", "retries")

    def __init__(self, address: Address) -> None:
        self.address = address
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional[asyncio.Task] = None
        self.seq = 0
        self.retries = 0


class NodeServer:
    """One live node: listener + outbound peer links + tick loop."""

    def __init__(
        self,
        pid: Pid,
        topology: Topology,
        process: MpProcess,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.01,
        bus: EventBus | None = None,
        t0: float | None = None,
        epoch: int = 0,
        tracer: SpanRecorder | None = None,
        clock: LamportClock | None = None,
        flight: "FlightRecorder | None" = None,
    ) -> None:
        if pid not in topology:
            raise ValueError(f"{pid!r} is not in the topology")
        self.pid = pid
        self.topology = topology
        #: This node's neighbours, fixed for its lifetime (read per message).
        self.neighbors: Tuple[Pid, ...] = topology.neighbors(pid)
        self.process = process
        self.host = host
        self.requested_port = port
        self.tick_interval = tick_interval
        self.bus = bus
        #: 0 for a node's first launch; bumped by the supervisor on restart.
        self.epoch = epoch
        self.port: Optional[int] = None
        self._t0 = t0
        self._server: asyncio.base_events.Server | None = None
        self._links: Dict[Pid, _PeerLink] = {}
        self._ctx = NetContext(self)
        #: The next tick, while the chain runs; see :attr:`halted`.
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._ticked = False
        self._seq = 0
        self._running = False
        self._prev_state: Optional[str] = None
        # ---- causal tracing (both optional; the supervisor hands the SAME
        # recorder and clock to every incarnation of a node, so restarts
        # extend one per-node history and ``epoch`` tells the spans apart).
        self.tracer = tracer
        self.clock = clock if clock is not None else (
            LamportClock() if tracer is not None else None
        )
        # ---- flight recorder (optional): decoded/sent frame summaries go
        # into the node's bounded black box.  Like the tracer, the SAME
        # ring serves every incarnation, so a dump spans restarts.
        self.flight = flight
        self._root_span: Optional[Span] = None
        self._active_span: Optional[Span] = None  # granted lifecycle span
        self._hunger_span: Optional[Span] = None  # plain-diner hungry span
        #: Last payload written per neighbour — an identical re-send is the
        #: repair-mode retransmit the timeline attributes chaos latency to.
        self._last_sent: Dict[Pid, Tuple] = {}
        #: FIFO of ``(transport, request_id, span)`` acquires awaiting a grant.
        self._waiters: Deque[
            Tuple[asyncio.Transport, str, Optional[Span]]
        ] = deque()
        if isinstance(process, LockDinerProcess):
            process.waiters = self._waiters  # hungry iff someone is queued
        #: Connection currently holding the lock — its death releases the
        #: lease, else the meal stays topped up forever and starves the
        #: neighbourhood.
        self._holder: Optional[asyncio.Transport] = None
        #: Open inbound connections, closed on :meth:`stop` so peers and
        #: clients observe the halt instead of a silent zombie socket.
        self._conns: set = set()
        # ---- counters surfaced as metrics by the supervisor
        self.msgs_in = 0
        self.msgs_out = 0
        self.send_failures = 0
        self.junk_frames = 0
        self.stale_frames = 0
        self.garbage_bytes = 0
        self.resyncs = 0
        self.ticks = 0
        self.grants = 0
        self.releases = 0
        self.retransmits = 0
        #: Per-peer retransmit counts (``repr(pid)`` keys), surfaced as the
        #: ``repro_edge_retransmits_total`` live metric.
        self.retransmits_by_peer: Dict[str, int] = {}

    # ------------------------------------------------------------- obs

    def _now(self) -> float:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return 0.0
        if self._t0 is None:
            self._t0 = loop.time()
        return round(loop.time() - self._t0, 6)

    def publish(self, kind: NetEventKind, detail: Optional[dict] = None) -> None:
        if self.bus is None:
            return
        body = {"t": self._now()}
        if detail:
            body.update(detail)
        self._seq += 1
        self.bus.publish(TraceEvent(self._seq, kind, self.pid, body))

    # ------------------------------------------------------------- tracing

    def _trace_open(
        self,
        name: str,
        *,
        parent: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        if self.tracer is None:
            return None
        span = self.tracer.open(
            name,
            lc=self.clock.tick(),
            t=self._now(),
            epoch=self.epoch,
            parent=parent,
            attrs=attrs,
        )
        self.publish(NetEventKind.SPAN_OPEN, {"span": span.span_id, "name": name})
        return span

    def _trace_event(
        self,
        span: Optional[Span],
        name: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self.tracer is None or span is None:
            return
        self.tracer.event(
            span, name, lc=self.clock.tick(), t=self._now(), detail=detail
        )

    def _trace_close(self, span: Optional[Span]) -> None:
        if self.tracer is None or span is None or span.closed:
            return
        self.tracer.close(span, lc=self.clock.tick(), t=self._now())
        detail: Dict[str, Any] = {
            "span": span.span_id,
            "name": span.name,
            "dur_s": span.duration_s(),
        }
        grant = span.first_event("grant")
        if grant is not None:
            detail["wait_s"] = round(grant.t - span.open_t, 6)
        self.publish(NetEventKind.SPAN_CLOSE, detail)

    # ------------------------------------------------------------ lifecycle

    async def start_listening(self) -> int:
        """Bind the inbound socket; returns the (ephemeral) port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), self.host, self.requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._running = True
        detail: Dict[str, Any] = {"port": self.port}
        if self.epoch:
            detail["epoch"] = self.epoch
        self.publish(NetEventKind.NODE_START, detail)
        self._root_span = self._trace_open(ROOT_SPAN, attrs={"port": self.port})
        return self.port

    async def connect_peers(self, peers: Dict[Pid, Address]) -> None:
        """Start one persistent outbound link per neighbour.

        ``peers`` maps each neighbour to the address this node should dial
        — the neighbour's own port, or its chaos proxy.
        """
        for q in self.neighbors:
            if q not in peers:
                raise ValueError(f"no address for neighbour {q!r}")
            link = _PeerLink(peers[q])
            self._links[q] = link
            link.task = asyncio.create_task(self._maintain_link(q, link))
        self._ticked = True
        self._tick_handle = asyncio.get_running_loop().call_later(
            self.tick_interval, self._tick
        )

    @property
    def halted(self) -> bool:
        """The tick chain started and no longer runs: the node was
        stopped, or a tick raised."""
        return self._ticked and self._tick_handle is None

    async def stop(self) -> None:
        """Halt: cancel tasks, close every socket, publish NODE_STOP."""
        if not self._running:
            return
        self._running = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        tasks = [l.task for l in self._links.values()]
        for task in tasks:
            if task is not None:
                task.cancel()
        for task in tasks:
            if task is not None:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        for link in self._links.values():
            if link.writer is not None:
                link.writer.close()
                link.writer = None
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.tracer is not None:
            # An incarnation takes its open spans down with it — a crashed
            # node's intervals truncate cleanly instead of dangling.
            for span in self.tracer.open_spans():
                self._trace_close(span)
            self._root_span = None
            self._active_span = None
            self._hunger_span = None
        self.publish(NetEventKind.NODE_STOP)

    # ------------------------------------------------------------- outbound

    async def _maintain_link(self, q: Pid, link: _PeerLink) -> None:
        """Keep the outbound connection to ``q`` alive; reconnect on loss."""
        backoff = 0.05
        host, port = link.address
        while self._running:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                link.retries += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)
                continue
            opened_at = asyncio.get_running_loop().time()
            writer.write(encode_hello(repr(self.pid)))
            link.writer = writer
            self.publish(NetEventKind.CONN_OPEN, {"peer": repr(q)})
            try:
                # The outbound side is write-only; reading detects EOF.
                while await reader.read(4096):
                    pass
            except (ConnectionError, OSError):
                pass
            finally:
                link.writer = None
                writer.close()
                if self._running:
                    self.publish(NetEventKind.CONN_LOST, {"peer": repr(q)})
            # A connection that died at birth means the far side is down
            # (the chaos proxy accepts, then fails to reach a dead node):
            # back off instead of re-dialling in a tight storm.
            if asyncio.get_running_loop().time() - opened_at >= 1.0:
                backoff = 0.05
            elif self._running:
                link.retries += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)

    def send_message(self, dst: Pid, payload: Tuple) -> bool:
        """Write one framed message toward ``dst``; False if the link is down."""
        link = self._links.get(dst)
        if link is None or link.writer is None or link.writer.is_closing():
            self.send_failures += 1
            return False
        link.seq += 1
        lc: Optional[int] = None
        span_id: Optional[str] = None
        if self.clock is not None:
            lc = self.clock.tick()
            if self.tracer is not None:
                current = self.tracer.current()
                span_id = None if current is None else current.span_id
        frame = encode_frame(
            T_MSG,
            {
                "src": self.pid,
                "dst": dst,
                "payload": list(payload),
                "seq": link.seq,
            },
            lc=lc,
            span=span_id,
        )
        try:
            link.writer.write(frame)
        except (ConnectionError, OSError):
            self.send_failures += 1
            return False
        self.msgs_out += 1
        if self.flight is not None:
            self.flight.note_frame(self._now(), "out", T_MSG, peer=repr(dst))
        payload_key = tuple(payload)
        retransmit = self._last_sent.get(dst) == payload_key
        self._last_sent[dst] = payload_key
        if retransmit:
            self.retransmits += 1
            peer = repr(dst)
            self.retransmits_by_peer[peer] = (
                self.retransmits_by_peer.get(peer, 0) + 1
            )
        if self.tracer is not None and lc is not None:
            # Same stamp as the frame: the span event IS the emission.  A
            # retransmit keeps its own event name so the timeline can
            # attribute the latency it closes (the matched-edge check only
            # pairs first sends, which is conservative, never wrong).
            self.tracer.event(
                self.tracer.current(),
                "retransmit" if retransmit else "send",
                lc=lc,
                t=self._now(),
                detail={"dst": repr(dst), "seq": link.seq},
            )
        return True

    # -------------------------------------------------------------- inbound

    def _drop_connection(self, conn: asyncio.Transport) -> None:
        """An inbound stream ended: its queued acquires go, and if it held
        the lock, the lease ends with it."""
        self._conns.discard(conn)
        abandoned = [e for e in self._waiters if e[0] is conn]
        if abandoned:
            # Prune in place: the hosted process reads this very queue.
            kept = [e for e in self._waiters if e[0] is not conn]
            self._waiters.clear()
            self._waiters.extend(kept)
        for _, _, span in abandoned:
            self._trace_event(span, "abandon")
            self._trace_close(span)
        if self._holder is conn:
            self._release()

    def _handle_peer_message(
        self, frame: Frame, last_seen: Dict[Pid, int]
    ) -> None:
        message = decode_message(frame)
        body = frame.body if isinstance(frame.body, dict) else {}
        if message is None or message.dst != self.pid:
            self.junk_frames += 1
            return
        src = message.src
        if src not in self.neighbors:
            self.junk_frames += 1
            return
        seq = body.get("seq")
        if isinstance(seq, int):
            if seq <= last_seen.get(src, 0):
                self.stale_frames += 1  # duplicate or reordered-behind
                return
            last_seen[src] = seq
        self.msgs_in += 1
        # Fresh traffic from a neighbour resets its retransmit watch: the
        # next identical re-send is new protocol state, not a repair echo.
        self._last_sent.pop(src, None)
        if self.clock is not None:
            lc = (
                self.clock.merge(frame.lc)
                if frame.lc is not None
                else self.clock.tick()
            )
            if self.tracer is not None:
                detail: Dict[str, Any] = {"src": repr(src)}
                if isinstance(seq, int):
                    detail["seq"] = seq
                if frame.span:
                    detail["span"] = frame.span
                self.tracer.event(
                    self.tracer.current(), "recv", lc=lc, t=self._now(),
                    detail=detail,
                )
        self.process.on_message(self._ctx, src, message.payload)
        self._after_step()
        self._wake()

    # ---------------------------------------------------------- lock service

    def _handle_request(self, frame: Frame, conn: asyncio.Transport) -> None:
        # A decoded T_REQ body is ``op`` (acquire|release) + ``id`` (a short
        # string) by the codec's schema; anything else never left the decoder.
        body = frame.body
        op, req_id = body["op"], body["id"]
        if not isinstance(self.process, LockDinerProcess):
            self._respond(conn, op, req_id, False, error="bad-op")
        elif op == "acquire":
            span = self._trace_open(
                "acquire",
                parent=None if self._root_span is None
                else self._root_span.span_id,
                attrs={"req": repr(req_id), "client_span": body["span"]},
            )
            self._waiters.append((conn, req_id, span))
            self._wake()
        else:
            self._release()
            self._respond(conn, op, req_id, True)

    def _respond(
        self,
        conn: asyncio.Transport,
        op: str,
        req_id: str,
        ok: bool,
        *,
        error: Optional[str] = None,
    ) -> None:
        if conn.is_closing():
            return
        try:
            conn.write(encode_response(op, req_id, ok, error=error))
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------- stepping

    def _tick(self) -> None:
        """The retransmit/timer period; progress itself rides the wakes.
        A tick that raises schedules no next one, so the node reads as
        :attr:`halted`."""
        self._tick_handle = None
        self.ticks += 1
        self.process.on_tick(self._ctx)
        self._after_step()
        self._tick_handle = asyncio.get_running_loop().call_later(
            self.tick_interval, self._tick
        )

    def _wake(self) -> None:
        """Something the process reacts to just changed: run its guards
        now instead of on the next tick."""
        self.process.on_wake(self._ctx)
        self._after_step()

    def _release(self) -> None:
        """The lease is over (release request, or its holder's connection
        died): end the meal, publish it, and let the next waiter in."""
        self._holder = None
        if isinstance(self.process, LockDinerProcess):
            self.process.release(self._ctx)
            self._after_step()
            self._wake()

    def _after_step(self) -> None:
        """Detect eating-state transitions; emit GRANT/RELEASE and answer
        waiting clients.  Works for any process exposing ``state``."""
        state = getattr(self.process, "state", None)
        if state is None:
            return
        prev = self._prev_state
        self._prev_state = state
        if prev == state:
            return
        if state == HUNGRY and prev != EATING:
            # Plain-diner mode only: lock-service hunger is an acquire span
            # opened at the request, so a live waiter already covers it.
            if (self.tracer is not None and not self._waiters
                    and self._hunger_span is None
                    and not isinstance(self.process, LockDinerProcess)):
                self._hunger_span = self._trace_open("hunger")
        if state == EATING:
            self.grants += 1
            detail: Dict[str, Any] = {}
            granted_span: Optional[Span] = None
            if self._waiters and isinstance(self.process, LockDinerProcess):
                conn, req_id, granted_span = self._waiters.popleft()
                self.process.grant_taken()
                self._holder = conn
                self._respond(conn, "acquire", req_id, True)
                detail["req"] = req_id
            if granted_span is None:
                granted_span = self._hunger_span
            if granted_span is None and self.tracer is not None:
                # No request and no hungry interval on record (byzantine
                # self-grants land here): the lifecycle starts at the grant.
                granted_span = self._trace_open("hunger")
            self._hunger_span = None
            if granted_span is not None:
                detail["span"] = granted_span.span_id
                self._trace_event(granted_span, "grant")
                self._active_span = granted_span
            self.publish(NetEventKind.GRANT, detail)
        elif prev == EATING:
            self.releases += 1
            self.publish(NetEventKind.RELEASE)
            if self._active_span is not None:
                self._trace_event(self._active_span, "release")
                self._trace_close(self._active_span)
                self._active_span = None

    # -------------------------------------------------------------- metrics

    def counters(self) -> Dict[str, int]:
        """Everything the supervisor turns into per-node metrics."""
        return {
            "msgs_in": self.msgs_in,
            "msgs_out": self.msgs_out,
            "send_failures": self.send_failures,
            "junk_frames": self.junk_frames,
            "stale_frames": self.stale_frames,
            "garbage_bytes": self.garbage_bytes,
            "resyncs": self.resyncs,
            "ticks": self.ticks,
            "grants": self.grants,
            "releases": self.releases,
            "retransmits": self.retransmits,
            "eats": getattr(self.process, "eats", 0),
            "epoch": self.epoch,
        }


class _Inbound(asyncio.Protocol):
    """One inbound stream: a peer link or a lock client (HELLO decides).

    Served from the event loop's read callback, so a frame costs no task
    switch.  Garbage may precede, interleave with, or replace valid
    frames; the decoder resynchronises and only validated frames are
    trusted.
    """

    def __init__(self, server: NodeServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = Decoder()
        self.is_client = False
        self.reported_garbage = 0
        self.reported_resyncs = 0
        # Highest accepted per-source sequence number, scoped to THIS
        # connection: duplication/reordering only happen inside one proxied
        # stream, and a restarted peer (fresh counters) arrives on a fresh
        # connection — per-node tracking would drop its messages as stale.
        self.last_seen: Dict[Pid, int] = {}

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._drop_connection(self.transport)

    def data_received(self, data: bytes) -> None:
        server = self.server
        decoder = self.decoder
        frames = decoder.feed(data)
        if decoder.garbage_bytes > self.reported_garbage:
            fresh = decoder.garbage_bytes - self.reported_garbage
            server.garbage_bytes += fresh
            server.resyncs += decoder.resyncs - self.reported_resyncs
            self.reported_garbage = decoder.garbage_bytes
            self.reported_resyncs = decoder.resyncs
            server.publish(NetEventKind.GARBAGE, {"bytes": fresh})
        for frame in frames:
            if server.flight is not None and not frame.is_hello:
                server.flight.note_frame(server._now(), "in", frame.type)
            if frame.is_hello:
                fields = hello_fields(frame)
                if fields is None or fields[0] != WIRE_VERSION:
                    server.publish(
                        NetEventKind.HELLO_BAD,
                        {"got": None if fields is None else fields[0]},
                    )
                    self.transport.close()  # incompatible peer: drop it
                    return
                self.is_client = fields[2] == "client"
                server.publish(
                    NetEventKind.HELLO_OK,
                    {"from": fields[1], "role": fields[2]},
                )
            elif frame.type == T_REQ and self.is_client:
                server._handle_request(frame, self.transport)
            elif frame.type == T_MSG:
                server._handle_peer_message(frame, self.last_seen)
            else:
                server.junk_frames += 1
