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

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".channel": "Channel",
    ".diners_mp": (
        "TAG_ACK TAG_FORK TAG_MISSING TAG_REQUEST DinersMpProcess build_diners "
        "eating_now edge_key neighbours_both_eating precedence_depth"
    ),
    ".engine": "MpEngine",
    ".handshake": (
        "HandshakeNode HandshakeSession HandshakeStats make_session_pair"
    ),
    ".kstate": "KStateToken privileged single_privilege",
    ".message": "Message",
    ".node": "MpContext MpProcess",
})
