"""The benchmark's own fleet driver: due-time stamps, one coroutine.

Modelled on ``repro.gateway.loadgen.LiveFleet`` and seeded the same way
(client ``i`` draws from ``Random(seed * 1_000_003 + i + 1)``, arrivals from
``Random(seed)``), but it answers a question that driver cannot: *when was
this request due?*  ``LiveFleet`` reports ``Completion.wait_s``, which
starts at ``mux.submit`` and restarts on every retry, so time a request
spent waiting for a late generator or behind a shed is invisible — exactly
the queueing an open loop exists to show.  Here every acquire carries

``due``   when its client was ready (closed loop) or the arrival instant
          drawn from the seeded process (open loop),
``sent``  when ``GatewayServer.submit`` was actually called,
``done``  when the gateway routed the completion back,

all on the event loop's clock, and latency is ``done - due``.

The fleet calls ``GatewayServer.submit`` in-process: one thread, no client
sockets, so the generator never competes with the system under test for
anything but the loop itself (``gen_late`` says how much).
"""

from __future__ import annotations

import asyncio
import heapq
import random
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

RNG_POOL_SIZE = 4096


class Request:
    """One acquire, from due time to completion."""

    __slots__ = ("client", "node", "due", "sent", "done", "ok", "shed",
                 "req_id")

    def __init__(self, client: int, node: int, due: float) -> None:
        self.client = client
        self.node = node
        self.due = due
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.ok = False
        self.shed = False
        self.req_id: Optional[str] = None


class Fleet:
    """Closed- or open-loop logical clients over one running gateway."""

    def __init__(
        self,
        gateway,
        *,
        clients: int,
        nodes: int,
        seed: int,
        hold_s: float,
        rate_hz: Optional[float] = None,
    ) -> None:
        self.gateway = gateway
        self.clients = clients
        self.nodes = nodes
        self.hold_s = hold_s
        #: ``None`` = closed loop (think time 0); else the open-loop rate.
        self.rate_hz = rate_hz
        pool = min(clients, RNG_POOL_SIZE)
        self._rngs = [
            random.Random(seed * 1_000_003 + i + 1) for i in range(pool)
        ]
        self._arrivals_rng = random.Random(seed)
        self.labels = [f"c{i}" for i in range(clients)]
        self.requests: List[Request] = []
        self.releases_ok = 0
        self.releases_failed = 0
        self._open: Dict[int, Request] = {}  #: client -> acquire in flight
        self._holding: Dict[int, int] = {}  #: client -> node while held
        self._heap: List[Tuple[float, int, str, int]] = []
        self._seq = 0
        self._completions: Deque[Tuple[Any, float]] = deque()
        self._wake = asyncio.Event()
        self._draining = False

    def _rng(self, i: int) -> random.Random:
        return self._rngs[i % len(self._rngs)]

    def _push(self, t: float, kind: str, client: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, client))

    # ------------------------------------------------------------- actions

    def _acquire(self, client: int, due: float) -> None:
        request = Request(client, client % self.nodes, due)
        self.requests.append(request)
        self._open[client] = request
        request.sent = self._clock()
        decision = self.gateway.submit(
            self.labels[client], request.node, "acquire", self._completed
        )
        if decision is not None:
            # The sizes are chosen so admission never refuses; a shed is a
            # failed request, not something to retry out of sight.
            request.shed = True
            request.done = self._clock()
            del self._open[client]
            if self.rate_hz is None and not self._draining:
                self._push(request.done + 0.05, "acquire", client)

    def _release(self, client: int) -> None:
        node = self._holding.get(client)
        if node is None:
            return
        decision = self.gateway.submit(
            self.labels[client], node, "release", self._completed
        )
        if decision is not None:
            self.releases_failed += 1
            del self._holding[client]

    def _completed(self, completion) -> None:
        self._completions.append((completion, self._clock()))
        self._wake.set()

    def _process(self, completion, at: float) -> None:
        client = int(completion.client[1:])
        if completion.op == "acquire":
            request = self._open.pop(client, None)
            if request is None:
                return
            request.done = at
            request.ok = completion.ok
            request.req_id = completion.req_id
            if completion.ok:
                self._holding[client] = completion.node
                hold = 0.0 if self._draining or not self.hold_s else (
                    self._rng(client).expovariate(1.0 / self.hold_s)
                )
                self._push(at + hold, "release", client)
            elif self.rate_hz is None and not self._draining:
                self._push(at + 0.05, "acquire", client)
        else:
            self._holding.pop(client, None)
            if completion.ok:
                self.releases_ok += 1
            else:
                self.releases_failed += 1
            if self.rate_hz is None and not self._draining:
                # think time 0: the client is ready again right now.
                self._push(at, "acquire", client)

    def _idle_client(self) -> Optional[int]:
        """A seeded pick from the pool, stepping past busy clients."""
        first = self._arrivals_rng.randrange(self.clients)
        for step in range(self.clients):
            client = (first + step) % self.clients
            if client not in self._open and client not in self._holding:
                return client
        return None

    # ----------------------------------------------------------------- run

    async def run(
        self,
        windows: List[Tuple[float, float]],
        drain_grace_s: float = 1.0,
    ) -> None:
        """Drive load over consecutive ``(start, end)`` loop-clock windows.

        Open loop: each window gets its own conditioned Poisson draw, so the
        measured window always holds ``rate * length`` requests.
        """
        loop = asyncio.get_running_loop()
        self._clock = loop.time
        stop_at = windows[-1][1]
        if self.rate_hz is None:
            for client in range(self.clients):
                self._push(
                    windows[0][0] + self._rng(client).uniform(0.0, 0.001),
                    "acquire", client,
                )
        else:
            for start, end in windows:
                for due in poisson_arrivals(
                    self._arrivals_rng, self.rate_hz, start, end
                ):
                    self._push(due, "arrival", -1)
        while True:
            now = loop.time()
            if not self._draining and now >= stop_at:
                # Holders already have their release on the heap.
                self._draining = True
            if self._draining and (
                now >= stop_at + drain_grace_s
                or not (self._open or self._holding)
            ):
                break
            while self._completions:
                self._process(*self._completions.popleft())
            ran = False
            while self._heap and self._heap[0][0] <= now:
                due, _, kind, client = heapq.heappop(self._heap)
                ran = True
                if kind == "release":
                    self._release(client)
                elif self._draining:
                    continue
                elif kind == "acquire":
                    self._acquire(client, due)
                else:
                    client = self._idle_client()
                    if client is None:
                        # Pool exhausted: the request still counts, failed.
                        lost = Request(-1, -1, due)
                        lost.shed = True
                        self.requests.append(lost)
                    else:
                        self._acquire(client, due)
            if ran or self._completions:
                continue
            self.gateway.flush()
            next_due = self._heap[0][0] if self._heap else now + 0.05
            timeout = max(0.0, min(next_due - loop.time(), 0.05))
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
        while self._completions:
            self._process(*self._completions.popleft())


def poisson_arrivals(
    rng: random.Random, rate_hz: float, start: float, end: float
) -> List[float]:
    """A Poisson process on ``[start, end)`` conditioned on its count.

    ``round(rate * length)`` arrivals at sorted uniform instants: the same
    inter-arrival law as an unconditioned process, without the ±sqrt(n)
    run-to-run swing in how many requests a window holds.
    """
    count = int(round(rate_hz * (end - start)))
    return sorted(rng.uniform(start, end) for _ in range(count))
