"""Chaos at the socket layer: seeded fault schedules and link proxies.

Every peer link of a live cluster that plays faults runs through a
:class:`LinkProxy` — a tiny asyncio TCP forwarder that can delay, drop,
duplicate, and reorder byte chunks, black-hole a partitioned link, and
deliver a **malicious crash** as the paper defines it operationally: a
burst of arbitrary bytes on every outgoing link, then silence.

Determinism contract: all *decisions* derive from :class:`ChaosSchedule`,
which is a pure function of ``(topology, seed, duration, profile)`` —
building it twice yields equal schedules, and the schedule is written into
the soak artefact so a run's faults can be audited after the fact.  Real
sockets make event *timing* environmental, but the injected-fault plan
(which links jitter and with what probabilities, when partitions open and
heal, who crashes maliciously and when) reproduces exactly for a seed.

Mapping to the paper's fault model (§2): the garbage burst is the wire
image of a malicious crash's "arbitrary steps before halting" — the
neighbours' decoders and ``on_message`` validators must absorb it, and the
:class:`~repro.net.wire_channel.WireChannel` mirrors the same semantics for
the in-process engine so the two fault repertoires never drift apart.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..sim.topology import Pid, Topology

#: Directed link identifier: ``(src_pid, dst_pid)``.
Link = Tuple[Pid, Pid]

#: Every fault kind a schedule may carry.  ``byzantine-crash`` is the
#: *beyond-the-model* fault: the node keeps emitting protocol-shaped frames
#: instead of halting (the paper's tolerance boundary, see
#: :mod:`repro.adversary.byzantine`).  ``replay`` re-injects captured frames
#: on a link — the adaptive adversary's third actuator.
EVENT_KINDS = frozenset(
    ("partition", "heal", "malicious-crash", "byzantine-crash", "restart",
     "replay")
)

#: Fault kinds that leave the named node crashed (a later ``restart`` may
#: legally target it).  A byzantine node never halts, so it is *not* here.
_CRASH_KINDS = frozenset(("malicious-crash",))

#: How many recently forwarded chunks a proxy retains for replay.
CAPTURE_DEPTH = 32


@dataclass(frozen=True)
class LinkProfile:
    """Continuous per-link misbehaviour (applies whenever the link is up)."""

    delay_s: float = 0.0  #: fixed extra latency per forwarded chunk
    jitter_s: float = 0.0  #: uniform extra latency on top of ``delay_s``
    drop_p: float = 0.0  #: probability a chunk is silently discarded
    dup_p: float = 0.0  #: probability a chunk is written twice
    reorder_p: float = 0.0  #: probability a chunk is held and swapped


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled discrete fault."""

    at_s: float  #: seconds after cluster start
    kind: str  #: ``partition`` | ``heal`` | ``malicious-crash`` | ``restart``
    #: Links affected (for partitions) or the crashing node's outgoing links.
    links: Tuple[Link, ...] = ()
    node: Optional[Pid] = None  #: the crashing/restarting node
    #: Garbage burst for a malicious crash, per affected link.
    garbage: Tuple[bytes, ...] = ()

    def describe(self) -> Dict[str, Any]:
        """JSON-ready rendering (garbage as lengths, not raw bytes)."""
        body: Dict[str, Any] = {
            "at_s": round(self.at_s, 6),
            "kind": self.kind,
            "links": [[repr(a), repr(b)] for a, b in self.links],
        }
        if self.node is not None:
            body["node"] = repr(self.node)
        if self.garbage:
            body["garbage_bytes"] = [len(g) for g in self.garbage]
        return body


@dataclass(frozen=True)
class ChaosSchedule:
    """The complete, reproducible fault plan for one run."""

    seed: int
    duration_s: float
    profiles: Dict[Link, LinkProfile] = field(default_factory=dict)
    events: Tuple[FaultEvent, ...] = ()

    @property
    def malicious_nodes(self) -> Tuple[Pid, ...]:
        return tuple(
            e.node for e in self.events if e.kind == "malicious-crash"
        )

    def describe(self) -> Dict[str, Any]:
        """JSON-ready audit record, embedded in soak artefacts."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "profiles": {
                f"{a!r}->{b!r}": vars(p).copy()
                for (a, b), p in sorted(
                    self.profiles.items(), key=lambda kv: repr(kv[0])
                )
            },
            "events": [e.describe() for e in self.events],
        }


def validate_schedule(schedule: ChaosSchedule) -> None:
    """Reject structurally impossible fault plans.

    Raises ``ValueError`` when an event kind is unknown, an event lies
    outside the run window, or — the bug this guards against — a
    ``restart`` targets a node with *no earlier crash entry*: the
    controller would revive links of a node that never went down, silently
    turning the plan into a different experiment.  :func:`build_schedule`
    and every schedule-file loader call this, so hand-edited or mutated
    schedules fail loudly instead of replaying something else.
    """
    crashed_at: Dict[Pid, float] = {}
    for event in schedule.events:
        if event.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind {event.kind!r}")
        if not 0.0 <= event.at_s <= schedule.duration_s:
            raise ValueError(
                f"{event.kind} at {event.at_s}s lies outside the "
                f"{schedule.duration_s}s run"
            )
        if event.kind in _CRASH_KINDS:
            if event.node is None:
                raise ValueError(f"{event.kind} without a node")
            crashed_at[event.node] = event.at_s
        elif event.kind == "byzantine-crash":
            if event.node is None:
                raise ValueError("byzantine-crash without a node")
        elif event.kind == "restart":
            if event.node is None:
                raise ValueError("restart without a node")
            when = crashed_at.get(event.node)
            if when is None or when > event.at_s:
                raise ValueError(
                    f"restart of {event.node!r} at {event.at_s}s has no "
                    "prior crash entry"
                )
        if event.garbage and len(event.garbage) != len(event.links):
            raise ValueError(
                f"{event.kind} at {event.at_s}s: {len(event.garbage)} "
                f"garbage bursts for {len(event.links)} links"
            )


def build_schedule(
    topology: Topology,
    *,
    seed: int,
    duration_s: float,
    partitions: int = 1,
    malicious_crashes: int = 1,
    flaky_links: float = 0.5,
    max_delay_s: float = 0.02,
    restarts: int = 0,
    restart_delay_s: float = 0.5,
    byzantine: int = 0,
) -> ChaosSchedule:
    """Derive the fault plan deterministically from ``seed``.

    * a ``flaky_links`` fraction of directed links get a nonzero
      :class:`LinkProfile` (delay/jitter/drop/dup/reorder drawn from the
      seed);
    * ``partitions`` partition windows, each cutting every link across a
      random node bipartition for a window inside the middle 60 % of the
      run, paired with its ``heal``;
    * ``malicious_crashes`` nodes crash maliciously in the last third of
      the run: one garbage burst per outgoing link, then the node halts;
    * with ``restarts > 0``, every crashed node gets a ``restart`` event
      ``restart_delay_s`` later (capped so recovery fits in the run) —
      the stabilization theorem's restart-into-arbitrary-state setting;
    * ``byzantine`` further nodes suffer the *beyond-finite* fault in the
      middle of the run: instead of halting after its arbitrary steps, the
      node keeps emitting protocol-shaped frames forever.  The paper's
      malicious-crash model ends with a halt, so these runs are expected
      to violate neighbour exclusion at the faulty node — the boundary
      demonstrated, not asserted.

    Pure function of its arguments — the reproducibility tests compare two
    builds structurally.  The result always passes
    :func:`validate_schedule`.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = random.Random(seed ^ 0xC4A05)
    links: List[Link] = []
    for p in topology.nodes:
        for q in topology.neighbors(p):
            links.append((p, q))
    links.sort(key=repr)

    profiles: Dict[Link, LinkProfile] = {}
    for link in links:
        if rng.random() >= flaky_links:
            continue
        profiles[link] = LinkProfile(
            delay_s=round(rng.uniform(0.0, max_delay_s / 2), 6),
            jitter_s=round(rng.uniform(0.0, max_delay_s / 2), 6),
            drop_p=round(rng.uniform(0.0, 0.05), 6),
            dup_p=round(rng.uniform(0.0, 0.05), 6),
            reorder_p=round(rng.uniform(0.0, 0.1), 6),
        )

    events: List[FaultEvent] = []
    nodes = list(topology.nodes)
    for _ in range(partitions):
        if len(nodes) < 2:
            break
        side_size = rng.randint(1, len(nodes) - 1)
        side = set(rng.sample(nodes, side_size))
        cut = tuple(
            (p, q) for (p, q) in links if (p in side) != (q in side)
        )
        start = rng.uniform(0.2, 0.5) * duration_s
        length = rng.uniform(0.1, 0.3) * duration_s
        events.append(FaultEvent(at_s=start, kind="partition", links=cut))
        events.append(
            FaultEvent(at_s=min(start + length, duration_s * 0.85),
                       kind="heal", links=cut)
        )
    crash_candidates = list(nodes)
    rng.shuffle(crash_candidates)
    for node in crash_candidates[malicious_crashes:malicious_crashes + byzantine]:
        out = tuple((p, q) for (p, q) in links if p == node)
        events.append(
            FaultEvent(
                at_s=rng.uniform(0.35, 0.55) * duration_s,
                kind="byzantine-crash",
                links=out,
                node=node,
            )
        )
    for node in crash_candidates[:malicious_crashes]:
        out = tuple((p, q) for (p, q) in links if p == node)
        garbage = tuple(
            bytes(rng.randrange(256) for _ in range(rng.randint(16, 128)))
            for _ in out
        )
        crash_at = rng.uniform(0.65, 0.8) * duration_s
        events.append(
            FaultEvent(
                at_s=crash_at,
                kind="malicious-crash",
                links=out,
                node=node,
                garbage=garbage,
            )
        )
        if restarts > 0:
            events.append(
                FaultEvent(
                    at_s=min(crash_at + restart_delay_s, duration_s * 0.9),
                    kind="restart",
                    links=out,
                    node=node,
                )
            )
    events.sort(key=lambda e: (e.at_s, e.kind))
    schedule = ChaosSchedule(
        seed=seed,
        duration_s=duration_s,
        profiles=profiles,
        events=tuple(events),
    )
    validate_schedule(schedule)
    return schedule


# ------------------------------------------------------------------ proxies


class LinkProxy:
    """One chaos-capable TCP forwarder for one directed link.

    Listens on an ephemeral localhost port; the *source* node connects here
    instead of to the destination directly, and every byte chunk passes
    through the fault pipeline (delay → drop → dup → reorder) unless the
    link is partitioned.  ``kill()`` implements the tail of a malicious
    crash: garbage toward the destination, then the pipe stays severed.
    """

    def __init__(
        self,
        link: Link,
        dst_host: str,
        dst_port: int,
        *,
        profile: LinkProfile | None = None,
        rng: random.Random | None = None,
        on_fault=None,
    ) -> None:
        self.link = link
        self.dst_host = dst_host
        self.dst_port = dst_port
        self.profile = profile or LinkProfile()
        self._rng = rng if rng is not None else random.Random(0)
        self._on_fault = on_fault  # callable(kind, link) for obs counters
        self.partitioned = False
        self._server: asyncio.base_events.Server | None = None
        self._dst_writer: asyncio.StreamWriter | None = None
        self._killed = False
        self.port: int | None = None
        self.chunks_forwarded = 0
        self.chunks_dropped = 0
        #: Ring buffer of recently forwarded chunks; :meth:`replay` feeds on
        #: it.  Byte chunks, not frames — the adversary replays what it saw
        #: on the wire, and the receiver's decoder + sequence numbers must
        #: absorb the stale copies.
        self.captured: Deque[bytes] = deque(maxlen=CAPTURE_DEPTH)
        self.chunks_replayed = 0

    async def start(self, host: str = "127.0.0.1") -> int:
        self._server = await asyncio.start_server(self._handle, host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            dst_reader, dst_writer = await asyncio.open_connection(
                self.dst_host, self.dst_port
            )
        except OSError:
            writer.close()
            return
        self._dst_writer = dst_writer
        held: Optional[bytes] = None  # chunk parked for reordering
        try:
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                if self._killed:
                    break
                if self.partitioned:
                    self.chunks_dropped += 1
                    self._note("partition-drop")
                    continue
                p = self.profile
                if p.drop_p and self._rng.random() < p.drop_p:
                    self.chunks_dropped += 1
                    self._note("drop")
                    continue
                if p.delay_s or p.jitter_s:
                    await asyncio.sleep(
                        p.delay_s + self._rng.uniform(0.0, p.jitter_s)
                    )
                out: List[bytes] = []
                if held is not None:
                    out = [chunk, held]  # held chunk goes *after* the new one
                    held = None
                    self._note("reorder")
                elif p.reorder_p and self._rng.random() < p.reorder_p:
                    held = chunk
                    continue
                else:
                    out = [chunk]
                if p.dup_p and self._rng.random() < p.dup_p:
                    out.append(out[-1])
                    self._note("dup")
                for piece in out:
                    dst_writer.write(piece)
                    self.chunks_forwarded += 1
                    self.captured.append(piece)
                await dst_writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if held is not None and not self._killed and not self.partitioned:
                try:
                    dst_writer.write(held)
                    await dst_writer.drain()
                except (ConnectionError, OSError):
                    pass
            dst_writer.close()
            # Close the source side too: when the destination dies (or the
            # link is killed), the source must see EOF so its reconnect
            # loop re-dials — otherwise a restarted destination would sit
            # behind a silently dead pipe forever.
            writer.close()

    def _note(self, kind: str) -> None:
        if self._on_fault is not None:
            self._on_fault(kind, self.link)

    async def replay(self, count: int = CAPTURE_DEPTH) -> int:
        """Re-inject up to ``count`` captured chunks toward the destination.

        The adaptive adversary's frame-replay actuator: stale frames carry
        stale per-link sequence numbers, so a correct receiver discards
        them — but a protocol relying on "each frame arrives once" would
        double-grant a fork here.  Returns the number of chunks written
        (0 when the link is down, severed, or has seen no traffic).
        """
        writer = self._dst_writer
        if writer is None or self._killed or self.partitioned:
            return 0
        chunks = list(self.captured)[-count:]
        written = 0
        try:
            for chunk in chunks:
                writer.write(chunk)
                written += 1
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        if written:
            self.chunks_replayed += written
            self._note("replay")
        return written

    async def kill(self, garbage: bytes = b"") -> None:
        """Malicious-crash tail: spray ``garbage`` at the destination, then
        sever the link for good."""
        self._killed = True
        writer = self._dst_writer
        if writer is not None and garbage:
            try:
                writer.write(garbage)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        self._note("malicious-garbage")

    def revive(self) -> None:
        """Un-sever a killed link so a restarted node can use it again.

        The proxy's listening socket never closed; clearing ``_killed``
        lets fresh connections (from the relaunched source node) forward
        normally, under the same link profile as before.
        """
        self._killed = False

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class ChaosController:
    """Owns every :class:`LinkProxy` of a cluster and plays the schedule.

    ``run()`` sleeps between scheduled fault times and applies each event:
    partitions toggle the affected proxies, a malicious crash sprays the
    scheduled garbage on the victim's outgoing links and then asks the
    supervisor (via ``on_crash``) to halt the node.  Every applied event is
    reported through ``on_fault`` so it lands in the obs stream.
    """

    def __init__(self, schedule: ChaosSchedule, *, on_fault=None,
                 on_crash=None, on_restart=None, on_byzantine=None) -> None:
        self.schedule = schedule
        self.proxies: Dict[Link, LinkProxy] = {}
        self._on_fault = on_fault  # callable(event: FaultEvent)
        self._on_crash = on_crash  # async callable(node)
        self._on_restart = on_restart  # async callable(node)
        self._on_byzantine = on_byzantine  # async callable(node)
        self.applied: List[FaultEvent] = []

    def register(self, proxy: LinkProxy) -> None:
        self.proxies[proxy.link] = proxy

    async def run(self, started_at: float, clock=None) -> None:
        """Apply the schedule relative to ``started_at`` (loop time)."""
        loop = asyncio.get_running_loop()
        now = clock if clock is not None else loop.time
        for event in self.schedule.events:
            delay = started_at + event.at_s - now()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.apply(event)

    async def apply(self, event: FaultEvent) -> None:
        if event.kind == "partition":
            for link in event.links:
                proxy = self.proxies.get(link)
                if proxy is not None:
                    proxy.partitioned = True
        elif event.kind == "heal":
            for link in event.links:
                proxy = self.proxies.get(link)
                if proxy is not None:
                    proxy.partitioned = False
        elif event.kind == "malicious-crash":
            for link, garbage in zip(event.links, event.garbage):
                proxy = self.proxies.get(link)
                if proxy is not None:
                    await proxy.kill(garbage)
            if self._on_crash is not None and event.node is not None:
                await self._on_crash(event.node)
        elif event.kind == "byzantine-crash":
            # No link action: the node is subverted, not severed — it keeps
            # talking protocol-shaped frames through healthy proxies.
            if self._on_byzantine is not None and event.node is not None:
                await self._on_byzantine(event.node)
        elif event.kind == "replay":
            for link in event.links:
                proxy = self.proxies.get(link)
                if proxy is not None:
                    await proxy.replay()
        elif event.kind == "restart":
            for link in event.links:
                proxy = self.proxies.get(link)
                if proxy is not None:
                    proxy.revive()
            if self._on_restart is not None and event.node is not None:
                await self._on_restart(event.node)
        self.applied.append(event)
        if self._on_fault is not None:
            self._on_fault(event)
