"""Message-passing diners via Chandy–Misra fork collection (§4, option 1).

§4 of the paper offers two routes from the shared-memory program to message
passing; the first is "Chandy and Misra's fork collection [5]", which this
module implements faithfully:

* one **fork** and one **request token** per edge, carried as messages;
* forks are *clean* or *dirty*; eating dirties every held fork;
* a hungry process holding a request token for a missing fork sends it;
* a process surrenders a held fork when it holds the matching request
  token, the fork is dirty, and it is not eating (the fork is cleaned in
  transit); clean forks and forks at an eating process are deferred;
* a hungry process holding every incident fork eats.

Initial fork placement follows one static total order,
:meth:`Topology.colour_rank <repro.sim.topology.Topology.colour_rank>` —
``(greedy colour, node index)`` — so the precedence graph is acyclic (fork,
dirty, at the *earlier* endpoint; request token at the other) **and
shallow**: its longest chain is ``colours - 1`` edges, 1 on an even ring or
a grid.  Depth is what bounds concurrency under load, and on a cycle load
preserves it: a saturated Chandy–Misra process only ever goes from the top
of the graph (holds every fork, eats) to the bottom (every fork dirty and
requested, gives them all away), which reverses its edges and nothing
else, so a chain that starts ``n - 1`` deep — as placement by plain node
order makes a ring — rotates round the ring forever like a token and one
process eats at a time, while one that starts 1 deep alternates the two
colour classes.  Both endpoints of an edge compute the same order from the
topology alone.

Fault posture (measured in E7): safe and live without faults; a benign
crash blocks neighbours waiting on the dead process's forks (Chandy–Misra
has unbounded failure locality — which is exactly why the paper's §4 calls
fork collection "cumbersome" and prefers the priority-based scheme); a
malicious crash can forge forks, but only on its own incident edges, so
every simultaneous-eating pair it causes includes the faulty process.  The
bare fork layer is not self-stabilizing (duplicated or lost forks persist);
the stabilizing ingredient of §4 is the handshake layer, built and
validated in :mod:`repro.mp.handshake`.

**Repair mode** (``repair=True``) transplants the handshake's counter idea
into the fork layer so the protocol survives lossy channels and restarts
from arbitrary state — the live cluster needs this, since a single dropped
``fork``/``request`` frame otherwise destroys the edge token forever:

* every frame carries a per-edge transfer counter; each endpoint keeps the
  highest counter it has used or accepted (``edge_c``), and a fork frame is
  honoured only when its counter exceeds it, so stale duplicates are inert;
* a surrendered fork is retransmitted every ``resend_every`` ticks until
  the peer acknowledges it (``ack`` frame, or any frame proving the peer's
  counter advanced past the transfer);
* a hungry process that spent its request token re-sends the request every
  ``resend_every`` ticks — fabricated request tokens are benign because
  possession is a boolean and only forks gate eating;
* a request arriving at an endpoint that neither holds the fork nor has a
  transfer in flight proves the edge's fork token is lost (the requester is
  fork-less by definition, and forks only move between the two endpoints):
  the canonical *earlier* endpoint (the same colour rank that placed the
  forks) regenerates the fork, dirty, with a fresh counter that
  invalidates any stale copy; the later endpoint instead echoes a request
  so the earlier endpoint's rule fires.

With ``repair=False`` (the default, used by the in-process simulator over
reliable channels) the wire format and behaviour are exactly the classic
two-field frames, preserving the strict one-token-per-edge invariants the
property tests pin down.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Tuple

from ..core.state import DinerState
from ..sim.topology import Pid, Topology
from .node import MpContext, MpProcess

T = DinerState.THINKING.value
H = DinerState.HUNGRY.value
E = DinerState.EATING.value

TAG_FORK = "fork"
TAG_REQUEST = "request"
TAG_ACK = "ack"  #: repair mode only: acknowledges a counted fork transfer.
TAG_MISSING = "missing"  #: repair mode only: "I can't serve your request —
#: I don't hold the fork either"; trips the earlier endpoint's regeneration.


def edge_key(p: Pid, q: Pid) -> Tuple[str, str]:
    """Canonical session key for the edge ``{p, q}``."""
    a, b = sorted((repr(p), repr(q)))
    return (a, b)


class DinersMpProcess(MpProcess):
    """One Chandy–Misra philosopher.

    Parameters
    ----------
    pid / topology:
        Identity and the communication graph (its neighbour lists and
        its :meth:`~repro.sim.topology.Topology.colour_rank`).
    needs:
        Called on every tick (and wake) while thinking; True means
        "become hungry".
        Defaults to always-hungry (the liveness experiments' worst case).
    eat_ticks:
        How many of its own ticks a meal lasts before the process exits;
        keeps meals finite, as the problem statement requires.
    repair:
        Enable the stabilizing edge repair documented in the module
        docstring (counted transfers, retransmission, fork regeneration).
        Off by default: the simulator's reliable channels don't need it
        and the strict token-conservation invariants assume bare frames.
    resend_every:
        Repair mode's retransmission period, in own ticks.
    """

    def __init__(
        self,
        pid: Pid,
        topology: Topology,
        *,
        needs: Callable[[], bool] | None = None,
        eat_ticks: int = 1,
        seed: int = 0,
        repair: bool = False,
        resend_every: int = 8,
    ) -> None:
        super().__init__(pid)
        if eat_ticks < 1:
            raise ValueError("eat_ticks must be positive")
        if resend_every < 1:
            raise ValueError("resend_every must be positive")
        self._topology = topology
        self._needs = needs if needs is not None else (lambda: True)
        self._eat_ticks = eat_ticks
        self._rng = random.Random(seed)
        rank = topology.colour_rank()
        self.state: str = T
        self.eats = 0
        self._eating_remaining = 0
        self.repair = repair
        self.resend_every = resend_every
        self.holds_fork: Dict[Pid, bool] = {}
        self.fork_clean: Dict[Pid, bool] = {}
        self.holds_request: Dict[Pid, bool] = {}
        #: request already sent and not yet answered, per neighbour —
        #: suppresses useless retransmission storms (repair mode
        #: retransmits on a timer anyway, since requests can be dropped).
        #: highest transfer counter used or accepted per edge (repair mode).
        self.edge_c: Dict[Pid, int] = {}
        #: counter of an unacknowledged outbound fork transfer, per edge.
        self._fork_resend: Dict[Pid, int | None] = {}
        #: this end of the edge comes first in the colour rank: it starts
        #: with the fork and is repair mode's canonical regenerator.
        self._earlier: Dict[Pid, bool] = {}
        self._edge_key: Dict[Pid, Tuple[str, str]] = {}
        self._ticks = 0
        self._last_repair_send: Dict[Pid, int] = {}
        self._yield_count: Dict[Pid, int] = {}
        for q in topology.neighbors(pid):
            earlier = rank[pid] < rank[q]
            self.holds_fork[q] = earlier
            self.fork_clean[q] = False  # all forks start dirty
            self.holds_request[q] = not earlier
            self.edge_c[q] = 0
            self._fork_resend[q] = None
            self._earlier[q] = earlier
            self._edge_key[q] = edge_key(pid, q)

    # ----------------------------------------------------------- protocol

    def on_message(self, ctx: MpContext, src: Pid, payload: Tuple) -> None:
        if (
            not isinstance(payload, tuple)
            or len(payload) < 2
            or src not in self._edge_key
            or payload[1] != self._edge_key[src]
        ):
            return  # junk
        if self.repair:
            self._on_repair_message(ctx, src, payload)
            return
        if len(payload) != 2:
            return  # junk
        tag = payload[0]
        if tag == TAG_FORK:
            self.holds_fork[src] = True
            self.fork_clean[src] = True  # forks are cleaned in transit
        elif tag == TAG_REQUEST:
            self.holds_request[src] = True
            self._maybe_surrender(ctx, src)

    def _on_repair_message(self, ctx: MpContext, src: Pid, payload: Tuple) -> None:
        """Repair-mode dispatch: frames are ``(tag, key, counter)``."""
        if (
            len(payload) != 3
            or not isinstance(payload[2], int)
            or isinstance(payload[2], bool)
            or payload[2] < 0
        ):
            return  # junk
        tag, _, c = payload
        pending = self._fork_resend.get(src)
        acked = pending is not None and c >= pending
        if tag == TAG_ACK:
            if acked:
                self._fork_resend[src] = None
            return
        if tag == TAG_FORK:
            if c > self.edge_c[src]:
                self.edge_c[src] = c
                self.holds_fork[src] = True
                self.fork_clean[src] = True
                if acked:
                    self._fork_resend[src] = None
            # Ack every fork frame — fresh, duplicate, or stale — so the
            # sender's retransmission stops even when the first ack drops.
            ctx.send(src, (TAG_ACK, self._edge_key[src], c))
            return
        if tag == TAG_MISSING:
            # The peer received our request but holds no fork and has no
            # transfer in flight; if we are fork-less too, the edge's fork
            # token is lost.  Only the canonical earlier endpoint
            # regenerates (a single deterministic regenerator can't race
            # itself), dirty, with a counter that invalidates stale copies.
            # Request-token state is deliberately untouched: this frame is
            # a report, not a request, so no surrender obligation arises.
            if (
                self._earlier[src]
                and not self.holds_fork[src]
                and pending is None
                and c >= self.edge_c[src]
            ):
                self.edge_c[src] = c + 1
                self.holds_fork[src] = True
                self.fork_clean[src] = False
            elif c > self.edge_c[src]:
                self.edge_c[src] = c
            return
        if tag != TAG_REQUEST:
            return  # junk
        stale = c < self.edge_c[src]
        if acked:
            self._fork_resend[src] = None
        if c > self.edge_c[src]:
            self.edge_c[src] = c
        self.holds_request[src] = True
        self._maybe_surrender(ctx, src)
        if (
            stale
            or self.holds_fork[src]
            or self._fork_resend.get(src) is not None
        ):
            return
        # The requester is fork-less by definition, we are fork-less with
        # no transfer in flight, and the counter proves the request is not
        # a stale crossing: the edge's fork token is lost.  The earlier
        # endpoint regenerates the fork, dirty, so the pending request is
        # honoured on the spot; the later endpoint reports back so the
        # earlier endpoint's :data:`TAG_MISSING` rule fires instead.
        if self._earlier[src]:
            self.edge_c[src] += 1
            self.holds_fork[src] = True
            self.fork_clean[src] = False
            self._maybe_surrender(ctx, src)
        else:
            ctx.send(src, (TAG_MISSING, self._edge_key[src], self.edge_c[src]))

    def on_tick(self, ctx: MpContext) -> None:
        """Timers, then — unless the tick went to a meal — the guards."""
        if not self._tick_timers(ctx):
            self.on_wake(ctx)

    def _tick_timers(self, ctx: MpContext) -> bool:
        """The timer half of a tick: repair retransmission and yield
        counters, and the eating countdown.  True when the process was
        eating, which spends the whole tick (an exit re-enters the guards
        on the *next* tick, never this one)."""
        if self.repair:
            self._repair_tick(ctx)
        if self.state != E:
            return False
        self._eating_remaining -= 1
        if self._eating_remaining <= 0:
            self._exit(ctx)
        return True

    def on_wake(self, ctx: MpContext) -> None:
        """The guard half of a tick: T→H on demand, spend request tokens,
        surrender obliged forks, eat when every fork is held.  Nothing here
        counts ticks, so a host may run it as often as it likes."""
        if self.state == T and self._needs():
            self.state = H
        if self.state == H:
            for q in ctx.neighbors:
                if not self.holds_fork[q] and self.holds_request[q]:
                    if ctx.send(q, self._request_payload(q)):
                        self.holds_request[q] = False
                        self._last_repair_send[q] = self._ticks
                self._maybe_surrender(ctx, q)
            if all(self.holds_fork[q] for q in ctx.neighbors):
                self.state = E
                self.eats += 1
                self._eating_remaining = self._eat_ticks
                for q in ctx.neighbors:
                    self.fork_clean[q] = False  # eating dirties every fork
        elif self.state == T:
            # Thinking: nothing to defend — honour any pending requests.
            for q in ctx.neighbors:
                self._maybe_surrender(ctx, q)

    def _repair_tick(self, ctx: MpContext) -> None:
        """Periodic retransmission: unacked fork transfers always, spent
        request tokens while hungry.  Runs in every state — a fork handed
        over just before eating must still be delivered.

        Also breaks precedence cycles.  Classic Chandy–Misra keeps the
        clean/dirty priority graph acyclic, but frame loss and fork
        regeneration re-orient edges independently, so a cycle of hungry
        processes each defending one clean fork can form and deadlock.
        Repair falls back to the statically acyclic colour rank: a *later*
        endpoint that has starved ``8 * resend_every`` ticks on a clean,
        requested fork dirties it (yielding priority to the earlier
        endpoint), and a thinking process — which has no claim at all —
        dirties such a fork immediately."""
        self._ticks += 1
        for q in ctx.neighbors:
            if (
                self.holds_fork[q]
                and self.fork_clean[q]
                and self.holds_request[q]
                and self.state != E
            ):
                if self.state == T:
                    self.fork_clean[q] = False
                elif not self._earlier[q]:
                    self._yield_count[q] = self._yield_count.get(q, 0) + 1
                    if self._yield_count[q] >= 8 * self.resend_every:
                        self.fork_clean[q] = False
                        self._yield_count[q] = 0
            else:
                self._yield_count[q] = 0
            last = self._last_repair_send.get(q)
            if last is not None and self._ticks - last < self.resend_every:
                continue
            pending = self._fork_resend.get(q)
            key = self._edge_key[q]
            if pending is not None:
                if ctx.send(q, (TAG_FORK, key, pending)):
                    self._last_repair_send[q] = self._ticks
            elif (
                self.state == H
                and not self.holds_fork[q]
                and not self.holds_request[q]
            ):
                # The request token was spent (or lost with the frame);
                # fabricating a replacement is safe — possession is a
                # boolean at the receiver and requests never gate eating.
                if ctx.send(q, (TAG_REQUEST, key, self.edge_c[q])):
                    self._last_repair_send[q] = self._ticks

    def _request_payload(self, q: Pid) -> Tuple:
        key = self._edge_key[q]
        return (TAG_REQUEST, key, self.edge_c[q]) if self.repair else (TAG_REQUEST, key)

    def _maybe_surrender(self, ctx: MpContext, q: Pid) -> None:
        """Send the fork to ``q`` when obliged: request held, fork dirty,
        not eating."""
        if (
            self.state != E
            and self.holds_fork.get(q, False)
            and not self.fork_clean.get(q, True)
            and self.holds_request.get(q, False)
        ):
            if self.repair:
                c = self.edge_c[q] + 1
                if ctx.send(q, (TAG_FORK, self._edge_key[q], c)):
                    self.edge_c[q] = c
                    self.holds_fork[q] = False
                    self._fork_resend[q] = c
                    self._last_repair_send[q] = self._ticks
            elif ctx.send(q, (TAG_FORK, self._edge_key[q])):
                self.holds_fork[q] = False

    def _exit(self, ctx: MpContext) -> None:
        self.state = T
        for q in ctx.neighbors:
            self.fork_clean[q] = False
            self._maybe_surrender(ctx, q)

    # -------------------------------------------------------------- faults

    def corrupt(self, rng: random.Random) -> None:
        self.state = rng.choice((T, H, E))
        self._eating_remaining = rng.randrange(self._eat_ticks + 1)
        for q in list(self.holds_fork):
            self.holds_fork[q] = rng.random() < 0.5
            self.fork_clean[q] = rng.random() < 0.5
            self.holds_request[q] = rng.random() < 0.5
        if self.repair:
            for q in list(self.edge_c):
                self.edge_c[q] = rng.randrange(8)
                self._fork_resend[q] = (
                    rng.randrange(8) if rng.random() < 0.3 else None
                )
                self._last_repair_send.pop(q, None)

    def random_payload(self, rng: random.Random) -> Tuple:
        neighbors = self._topology.neighbors(self.pid)
        q = neighbors[rng.randrange(len(neighbors))]
        tag = rng.choice((TAG_FORK, TAG_REQUEST, "junk"))
        if self.repair:
            return (tag, self._edge_key[q], rng.randrange(16))
        return (tag, self._edge_key[q])


def build_diners(
    topology: Topology,
    *,
    needs: Callable[[], bool] | None = None,
    eat_ticks: int = 1,
    seed: int = 0,
    repair: bool = False,
    resend_every: int = 8,
) -> Dict[Pid, DinersMpProcess]:
    """One :class:`DinersMpProcess` per node, ready for an ``MpEngine``."""
    return {
        pid: DinersMpProcess(
            pid,
            topology,
            needs=needs,
            eat_ticks=eat_ticks,
            seed=seed + i,
            repair=repair,
            resend_every=resend_every,
        )
        for i, pid in enumerate(topology.nodes)
    }


def eating_now(processes: Dict[Pid, DinersMpProcess]) -> Tuple[Pid, ...]:
    """All processes currently in the eating state."""
    return tuple(p for p, proc in processes.items() if proc.state == E)


def neighbours_both_eating(
    topology: Topology, processes: Dict[Pid, DinersMpProcess]
) -> Tuple[Tuple[Pid, Pid], ...]:
    """Safety metric: neighbour pairs simultaneously eating."""
    pairs = []
    for e in topology.edges:
        p, q = tuple(e)
        if processes[p].state == E and processes[q].state == E:
            pairs.append((p, q))
    return tuple(pairs)


def precedence_depth(
    topology: Topology,
    processes: Mapping[Pid, DinersMpProcess],
    alive: Callable[[Pid], bool] = lambda p: True,
) -> int:
    """Longest "has priority over" chain, in edges, among live processes.

    A clean fork puts its holder first, a dirty one the other end; an edge
    whose fork neither end holds (in flight) or both do (duplicated by a
    fault) orders nobody and is skipped.  This is the quantity that bounds
    concurrency under load (module docstring): fork placement starts it at
    ``colours - 1``.  A priority cycle — possible only after faults — is
    cut where the walk meets it.
    """
    after: Dict[Pid, List[Pid]] = {p: [] for p in topology.nodes if alive(p)}
    for e in topology.edges:
        p, q = tuple(e)
        if p not in after or q not in after:
            continue
        p_holds, q_holds = processes[p].holds_fork[q], processes[q].holds_fork[p]
        if p_holds == q_holds:
            continue
        holder, other = (p, q) if p_holds else (q, p)
        if processes[holder].fork_clean[other]:
            after[holder].append(other)
        else:
            after[other].append(holder)
    depth: Dict[Pid, int] = {}

    def chain(p: Pid) -> int:
        if p not in depth:
            depth[p] = -1  # an edge that closes a cycle adds nothing
            depth[p] = max((1 + chain(q) for q in after[p]), default=0)
        return depth[p]

    return max(map(chain, after), default=0)
