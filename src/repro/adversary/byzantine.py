"""The beyond-finite fault: a "crashed" process that never stops talking.

The paper's malicious crash (§2) is *finitely* arbitrary — ``k`` havoc
steps, then a halt — and the tolerance proofs lean on the halt: whatever
forged forks a faulty process scattered, it eventually stops renewing
them, and the repair layer's counters age the damage out.  This module
removes the halt.  A :class:`ByzantineDinerProcess` claims the eating
state forever and keeps emitting *protocol-shaped* fork frames (correct
edge key, strictly increasing transfer counter) to every neighbour, so
receivers cannot tell the frames from honest transfers.

The point is to *demonstrate the boundary*, not to survive it: neighbour
exclusion **is** violated at such a node, but — as in the bare fork layer's
malicious-crash analysis — forged forks only exist on the faulty node's
own incident edges, so every simultaneous-eating pair includes the faulty
node, and excluding it restores a clean audit
(:func:`repro.net.lock.attribute_violations` finds it from the violation
pairs alone).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.state import DinerState
from ..mp.diners_mp import TAG_FORK, DinersMpProcess, edge_key
from ..mp.node import MpProcess
from ..sim.topology import Pid, Topology

__all__ = ["ByzantineDinerProcess", "subvert"]

E = DinerState.EATING.value


class ByzantineDinerProcess(DinersMpProcess):
    """A diner subverted at "crash" time: eats forever, forges forks.

    Every tick it (re-)enters the eating state and sends each neighbour a
    fork frame for their shared edge — ``(fork, key, c)`` with a counter
    above anything the edge has seen in repair mode, ``(fork, key)``
    otherwise — so the neighbour believes it holds the fork and may eat
    concurrently.  Incoming messages are ignored: the node answers no
    request and acknowledges nothing.

    Works in both runtimes: swapped into ``MpEngine.processes`` it rides
    engine ticks; assigned to a live ``NodeServer.process`` it rides the
    server's tick loop (the server re-reads the attribute every tick).
    """

    def __init__(
        self,
        pid: Pid,
        topology: Topology,
        *,
        repair: bool = True,
        counter_floor: Dict[Pid, int] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(pid, topology, eat_ticks=1, seed=seed, repair=repair)
        self.state = E
        self.forged = 0
        # Start above the victim's per-edge counters so repair-mode
        # receivers (who track roughly the same value) accept the forgery.
        self._forge_c: Dict[Pid, int] = {
            q: (counter_floor or {}).get(q, 0) + 1
            for q in topology.neighbors(pid)
        }

    def on_message(self, ctx, src: Pid, payload: Tuple) -> None:
        return  # deaf: no acks, no surrendered forks, no missing-reports

    def on_wake(self, ctx) -> None:
        return  # deaf to wakes too: it forges on its ticks and never leaves E

    def on_tick(self, ctx) -> None:
        self.state = E  # never leaves the critical section
        self._eating_remaining = 2
        for q in ctx.neighbors:
            key = edge_key(self.pid, q)
            if self.repair:
                c = self._forge_c[q]
                self._forge_c[q] = c + 1
                sent = ctx.send(q, (TAG_FORK, key, c))
            else:
                sent = ctx.send(q, (TAG_FORK, key))
            if sent:
                self.forged += 1


def subvert(process: MpProcess, *, seed: int = 0) -> ByzantineDinerProcess:
    """Build the Byzantine double of a (diner) process, keeping identity.

    Reads the victim's pid, topology, repair flag, and per-edge counters so
    the forger speaks the same dialect on the same edges with counters the
    neighbours will honour.  The caller swaps the result into the runtime
    (``engine.processes[pid] = ...`` or ``node.process = ...``) — from the
    network's viewpoint the node "crashed" and something wearing its
    identity kept transmitting.
    """
    if not isinstance(process, DinersMpProcess):
        raise TypeError(
            f"can only subvert a DinersMpProcess, got {type(process).__name__}"
        )
    return ByzantineDinerProcess(
        process.pid,
        process._topology,
        repair=process.repair,
        counter_floor=dict(process.edge_c),
        seed=seed,
    )
