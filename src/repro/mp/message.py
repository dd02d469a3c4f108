"""Messages of the message-passing model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Tuple

if TYPE_CHECKING:
    from ..sim.topology import Pid


@dataclass(frozen=True)
class Message:
    """One message in flight.

    ``payload`` is an immutable tuple whose first element is, by convention,
    a short string tag (``"token"``, ``"fork"``, ``"request"``, ...); the
    rest is protocol-specific.  Tuples keep messages hashable and cheap to
    corrupt for fault injection.
    """

    src: Pid
    dst: Pid
    payload: Tuple[Any, ...]

    @property
    def tag(self) -> Any:
        """The conventional first payload element."""
        return self.payload[0] if self.payload else None

    def __str__(self) -> str:
        return f"{self.src!r}->{self.dst!r} {self.payload!r}"
