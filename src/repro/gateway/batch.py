"""Frame batching: coalesce many small frames into few socket writes.

A gateway pushing one 25-byte binary frame per ``write()`` spends more
time in syscalls than in the codec.  ``BatchWriter`` buffers encoded
frames per connection and flushes them as one contiguous write when any
limb of the :class:`FlushPolicy` trips:

* ``max_frames`` buffered frames,
* ``max_bytes`` buffered bytes,
* ``max_delay_s`` since the oldest buffered frame (a timer armed on the
  first frame of a batch — a lone frame never waits longer than this).

The policy is per-connection: a hot upstream pipe wants large batches,
a latency-sensitive downstream reply path wants a short delay cap.  The
writer never reorders frames and flushes synchronously on close, so the
batching layer is invisible to the protocol above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import asyncio


@dataclass(frozen=True)
class FlushPolicy:
    """When a buffered batch goes on the wire."""

    max_frames: int = 64
    max_bytes: int = 32768
    max_delay_s: float = 0.002

    def validate(self) -> None:
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        if self.max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")


class BatchWriter:
    """Coalesces frames onto one ``asyncio.StreamWriter``.

    Counters (``frames_out``, ``flushes``, ``bytes_out``) feed the
    gateway's gauges; ``mean_batch`` is the achieved coalescing factor —
    the number every batching knob ultimately moves.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        policy: FlushPolicy = FlushPolicy(),
    ) -> None:
        policy.validate()
        self._writer = writer
        self.policy = policy
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self.frames_out = 0
        self.flushes = 0
        self.bytes_out = 0
        self.closed = False

    # -------------------------------------------------------------- sending

    def send(self, frame: bytes) -> None:
        """Buffer one encoded frame; flush if a policy limb trips."""
        if self.closed:
            return
        self._pending.append(frame)
        self._pending_bytes += len(frame)
        policy = self.policy
        if (
            len(self._pending) >= policy.max_frames
            or self._pending_bytes >= policy.max_bytes
        ):
            self.flush()
        elif self._timer is None and policy.max_delay_s > 0:
            import asyncio

            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(policy.max_delay_s, self.flush)
        elif policy.max_delay_s == 0:
            self.flush()

    def flush(self) -> None:
        """Put the buffered batch on the wire now (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending or self.closed:
            return
        batch = b"".join(self._pending)
        count = len(self._pending)
        self._pending.clear()
        self._pending_bytes = 0
        try:
            self._writer.write(batch)
        except (ConnectionError, OSError, RuntimeError):
            self.closed = True
            return
        self.frames_out += count
        self.flushes += 1
        self.bytes_out += len(batch)

    async def drain(self) -> None:
        """Flush and apply the transport's backpressure."""
        self.flush()
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            self.closed = True

    def close(self) -> None:
        self.flush()
        self.closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -------------------------------------------------------------- gauges

    @property
    def mean_batch(self) -> float:
        return self.frames_out / self.flushes if self.flushes else 0.0
