"""Message-passing processes.

An :class:`MpProcess` owns mutable Python state and reacts to two stimuli:

* :meth:`on_message` — a message arrived;
* :meth:`on_tick` — the scheduler gave it a spontaneous step (the model's
  substitute for timeouts: ticks occur infinitely often under the engine's
  fairness, so tick-driven retransmission needs no clocks).

A live host may also call :meth:`on_wake` — the guard half of a tick, no
timers — right after something the process reacts to changed, instead of
leaving it for the next tick.  :class:`~repro.mp.engine.MpEngine` never
does: there, a wake is already expressible as a delivery followed at once
by that process's tick.

Both receive an :class:`MpContext`, the only door to the network.  The fault
machinery requires every process to know how to *corrupt itself*
(:meth:`corrupt` — transient faults) and how to fabricate junk payloads
(:meth:`random_payload` — channel corruption and malicious havoc), keeping
fault injection honest: a fault can only produce states and messages within
the declared spaces.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Protocol, Tuple, runtime_checkable

from ..sim.errors import NotNeighborsError
from ..sim.topology import Pid, Topology

if TYPE_CHECKING:  # pragma: no cover
    from .engine import MpEngine


@runtime_checkable
class ProcessContext(Protocol):
    """The transport seam: everything a process may ask of its substrate.

    :class:`MpContext` (simulator) and :class:`repro.net.node.NetContext`
    (live asyncio TCP) both satisfy it, which is what lets the same
    :class:`MpProcess` subclasses run unchanged on either.  Keep this
    surface minimal — anything added here must be implementable over a
    real socket transport, not just the in-process engine.
    """

    @property
    def pid(self) -> Pid: ...

    @property
    def neighbors(self) -> Tuple[Pid, ...]: ...

    @property
    def topology(self) -> Topology: ...

    def send(self, dst: Pid, payload: Tuple) -> bool: ...


class MpContext:
    """Capabilities handed to a process during one of its steps."""

    __slots__ = ("_engine", "_pid", "neighbors")

    def __init__(self, engine: "MpEngine", pid: Pid) -> None:
        self._engine = engine
        self._pid = pid
        #: Read several times a step, so a plain attribute, set once.
        self.neighbors: Tuple[Pid, ...] = engine.topology.neighbors(pid)

    @property
    def pid(self) -> Pid:
        return self._pid

    @property
    def topology(self) -> Topology:
        return self._engine.topology

    def send(self, dst: Pid, payload: Tuple) -> bool:
        """Send to a neighbour; returns False if the channel dropped it."""
        if dst not in self.neighbors:
            raise NotNeighborsError(self._pid, dst)
        return self._engine.send_message(self._pid, dst, payload)


class MpProcess(ABC):
    """A reactive process of the message-passing model."""

    def __init__(self, pid: Pid) -> None:
        self.pid = pid

    @abstractmethod
    def on_message(self, ctx: ProcessContext, src: Pid, payload: Tuple) -> None:
        """Handle one delivered message.

        ``payload`` may be arbitrary junk (transient faults corrupt
        channels; malicious processes send garbage): implementations must
        validate before trusting any field.
        """

    def on_tick(self, ctx: ProcessContext) -> None:
        """One spontaneous step; default does nothing."""

    def on_wake(self, ctx: ProcessContext) -> None:
        """Re-evaluate the guards now — a tick without its timers (no
        retransmission, no countdowns); default does nothing."""

    @abstractmethod
    def corrupt(self, rng: random.Random) -> None:
        """Transient fault: replace all local state with arbitrary values
        from its legal space."""

    @abstractmethod
    def random_payload(self, rng: random.Random) -> Tuple:
        """An arbitrary syntactically valid payload (for fault injection)."""

    def havoc(self, ctx: ProcessContext, rng: random.Random) -> None:
        """One arbitrary step of a malicious crash.

        Default: corrupt the local state and spray junk at a random subset
        of neighbours — the strongest behaviour the model allows a faulty
        process (it cannot forge messages from others).
        """
        self.corrupt(rng)
        for dst in ctx.neighbors:
            if rng.random() < 0.5:
                ctx.send(dst, self.random_payload(rng))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.pid!r}>"
