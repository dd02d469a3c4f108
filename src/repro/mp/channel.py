"""Reliable, FIFO, capacity-bounded directed channels.

The §4 transformation assumes reliable FIFO links; what makes the setting
hard is the *arbitrary initial content* a transient fault can leave in a
channel.  Bounded capacity matters for stabilization: the mod-K handshake
counters must outnumber the junk a channel can hold (see
:mod:`repro.mp.handshake`), so the bound is a first-class model parameter,
not an implementation detail.

A send onto a full channel is dropped (and counted).  Correct protocols in
this repository are tick-driven and retransmit, so an occasional drop only
delays them; the drop counter makes silent overload visible in tests.

The funnel invariant: ``_queue`` is mutated in exactly three places —
:meth:`Channel._push`, :meth:`Channel._pop` and :meth:`Channel._reset` —
and each of them writes whether the channel is non-empty, after the
change, to whoever is watching it (see :meth:`Channel._watch`).
:class:`~repro.mp.engine.MpEngine` schedules from those writes instead of
reading every channel every step, and tests send on, clear and corrupt an
engine's channels directly, so the record stays right only if *no* change
of content can bypass the write.  A subclass that stores messages
(``WireChannel``) goes through the same three methods; it never touches
``_queue`` itself.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Tuple

from ..sim.errors import SimulationError
from ..sim.topology import Pid
from .message import Message

PayloadFactory = Callable[[random.Random], Tuple]


class Channel:
    """One directed FIFO link.

    ``loss_probability`` models a fair-lossy link: each send is dropped
    independently with that probability (in addition to overflow drops).
    Tick-driven protocols with retransmission — the handshake, the fork
    collection — must tolerate it; request/response protocols without
    retransmission will hang, which is the point of modelling it.
    """

    def __init__(
        self,
        src: Pid,
        dst: Pid,
        capacity: int = 8,
        *,
        loss_probability: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("channel capacity must be positive")
        if not 0.0 <= loss_probability < 1.0:
            raise SimulationError("loss_probability must lie in [0, 1)")
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self.loss_probability = loss_probability
        self._rng = rng if rng is not None else random.Random(0)
        self._queue: Deque[Message] = deque()
        #: Where the funnel writes the availability of slot ``_slot``; a
        #: dict of its own until someone watches.
        self._changes: Dict[int, object] = {}
        self._slot = -1
        self.dropped = 0
        self.lost = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    # ------------------------------------------------- the mutation funnel

    def _watch(self, changes: Dict[int, object], slot: int) -> None:
        """From now on, write ``changes[slot]`` — whether the channel has a
        message to deliver — whenever the content changes, starting now."""
        self._changes = changes
        self._slot = slot
        changes[slot] = bool(self._queue)

    def _push(self, message: Message) -> None:
        self._queue.append(message)
        self._changes[self._slot] = True

    def _pop(self) -> Message:
        message = self._queue.popleft()
        self._changes[self._slot] = bool(self._queue)
        return message

    def _reset(self, messages: Iterable[Message] = ()) -> None:
        """Replace the whole content."""
        self._queue.clear()
        self._queue.extend(messages)
        self._changes[self._slot] = bool(self._queue)

    # ------------------------------------------------------------ traffic

    def send(self, payload: Tuple) -> bool:
        """Enqueue a message; returns False (and counts) when full.

        In-transit loss returns True: a real sender cannot observe it.
        (Overflow is different — a full local buffer *is* observable.)
        Protocols that move unique tokens (the fork collection) must
        therefore run on loss-free channels; retransmitting protocols
        (the handshake) tolerate loss.
        """
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self.lost += 1
            return True
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._push(Message(self.src, self.dst, tuple(payload)))
        return True

    def deliver(self) -> Message:
        """Dequeue the oldest message (caller checks non-emptiness)."""
        if not self._queue:
            raise SimulationError(f"deliver on empty channel {self.src!r}->{self.dst!r}")
        return self._pop()

    def peek_all(self) -> Tuple[Message, ...]:
        """Read-only view of the queued messages, oldest first."""
        return tuple(self._queue)

    # ------------------------------------------------------------- faults

    def corrupt(self, rng: random.Random, payload_factory: PayloadFactory) -> None:
        """Transient fault: replace the content with arbitrary junk.

        The new content is a random number of random-payload messages (up to
        capacity) — the strongest perturbation the bounded-channel model
        admits.
        """
        self._reset(
            Message(self.src, self.dst, payload_factory(rng))
            for _ in range(rng.randint(0, self.capacity))
        )

    def clear(self) -> None:
        self._reset()

    def __repr__(self) -> str:
        return (
            f"Channel({self.src!r}->{self.dst!r}, {len(self._queue)}/{self.capacity})"
        )
