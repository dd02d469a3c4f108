"""A simulator channel whose every payload crosses the wire codec.

:class:`WireChannel` is the bridge between the two substrates: it plugs
into :class:`~repro.mp.engine.MpEngine` via ``channel_factory`` and pushes
each accepted send through ``encode_message`` → byte stream → garbage-
tolerant :class:`~repro.net.codec.Decoder`, exactly the path a frame takes
between two live nodes.  Because the codec round-trips exactly, an engine
built on :class:`WireChannel` is step-for-step identical to one built on
plain :class:`~repro.mp.channel.Channel` for the same seed — the parity
test the live transport's correctness argument rests on.

It also mirrors fault semantics bit for bit: :meth:`corrupt` and
:meth:`inject_garbage` put raw bytes on the stream (not ready-made
messages), so the junk a test sees here is the same junk the chaos proxy
produces at the socket level — some discarded by the decoder, some
surviving as syntactically valid frames for ``on_message`` validation to
reject.
"""

from __future__ import annotations

import random

from ..mp.channel import Channel, PayloadFactory
from ..sim.topology import Pid
from .codec import Decoder, decode_message, encode_message
from ..mp.message import Message


class WireChannel(Channel):
    """One directed FIFO link carried as encoded bytes.

    Accepts the same constructor signature as :class:`Channel` so it can be
    passed as ``MpEngine(channel_factory=WireChannel)``.  Whatever survives
    decoding is stored through :class:`Channel`'s mutation funnel
    (``_push``/``_reset``), never into ``_queue`` directly, so the engine's
    event index sees wire-level junk arrive and vanish like any message.
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
        super().__init__(
            src, dst, capacity, loss_probability=loss_probability, rng=rng
        )
        self.decoder = Decoder()
        #: Frames that decoded but were not well-formed messages (junk that
        #: survived framing; the protocol layer never sees them).
        self.malformed_frames = 0

    def send(self, payload) -> bool:
        """Encode, stream, decode — then enqueue whatever survives."""
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self.lost += 1
            return True
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        data = encode_message(Message(self.src, self.dst, tuple(payload)))
        self._feed(data)
        return True

    def inject_garbage(self, data: bytes) -> None:
        """Put arbitrary bytes on the stream — the chaos proxy's move.

        Whatever the decoder salvages (almost always nothing, thanks to the
        CRC) is enqueued like genuine traffic; the rest lands in the
        decoder's garbage counters.
        """
        self._feed(data)

    def _feed(self, data: bytes) -> None:
        for frame in self.decoder.feed(data):
            message = decode_message(frame)
            if message is None:
                self.malformed_frames += 1
                continue
            if len(self._queue) >= self.capacity:
                self.dropped += 1
                continue
            self._push(message)

    # ------------------------------------------------------------- faults

    def corrupt(self, rng: random.Random, payload_factory: PayloadFactory) -> None:
        """Transient fault at wire level: random *bytes*, then random
        *encoded* junk payloads (both kinds of arbitrary initial content)."""
        self._reset()
        self._feed(bytes(rng.randrange(256) for _ in range(rng.randint(0, 64))))
        for _ in range(rng.randint(0, self.capacity)):
            self._feed(
                encode_message(
                    Message(self.src, self.dst, tuple(payload_factory(rng)))
                )
            )
