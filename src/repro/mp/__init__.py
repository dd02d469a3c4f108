"""The §4 message-passing transformation and its substrates.

* :mod:`repro.mp.engine` — message-passing simulator (FIFO bounded
  channels, weakly fair delivery/tick scheduling, crash / malicious-crash /
  transient faults);
* :mod:`repro.mp.kstate` — Dijkstra's K-state token circulation [9], the
  synchronization protocol §4's handshake is based on (implemented on the
  shared-memory kernel, where it is also model-checked);
* :mod:`repro.mp.handshake` — the stabilizing per-edge handshake carrying
  neighbour-state caches over channels with arbitrary initial content;
* :mod:`repro.mp.diners_mp` — message-passing diners via Chandy–Misra fork
  collection, §4's first suggested route.
"""

from .channel import Channel
from .diners_mp import (
    TAG_ACK,
    TAG_FORK,
    TAG_MISSING,
    TAG_REQUEST,
    DinersMpProcess,
    build_diners,
    eating_now,
    edge_key,
    neighbours_both_eating,
    precedence_depth,
)
from .engine import MpEngine
from .handshake import HandshakeNode, HandshakeSession, HandshakeStats, make_session_pair
from .kstate import KStateToken, privileged, single_privilege
from .message import Message
from .node import MpContext, MpProcess

__all__ = [
    "Channel",
    "TAG_ACK",
    "TAG_FORK",
    "TAG_MISSING",
    "TAG_REQUEST",
    "DinersMpProcess",
    "build_diners",
    "eating_now",
    "edge_key",
    "neighbours_both_eating",
    "precedence_depth",
    "MpEngine",
    "HandshakeNode",
    "HandshakeSession",
    "HandshakeStats",
    "make_session_pair",
    "KStateToken",
    "privileged",
    "single_privilege",
    "Message",
    "MpContext",
    "MpProcess",
]
