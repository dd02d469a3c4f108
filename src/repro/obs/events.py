"""Event vocabulary of the observability layer.

The shared-memory engine already has an event type —
:class:`~repro.sim.trace.TraceEvent` with :class:`~repro.sim.trace.EventKind`
— and the bus reuses it unchanged.  The message-passing engine gets its own
kind enum here (its occurrences are sends, deliveries, and ticks rather than
guarded actions) but publishes the *same* event dataclass, so one subscriber,
one recorder, and one JSONL schema serve both models.
"""

from __future__ import annotations

import enum

from ..sim.trace import EventKind, TraceEvent

__all__ = ["EventKind", "MpEventKind", "NetEventKind", "TraceEvent"]


class MpEventKind(enum.Enum):
    """What a message-passing engine event records."""

    SEND = "mp-send"  #: A process offered a message to a channel (accepted).
    DROP = "mp-drop"  #: A channel dropped a message (loss or full).
    DELIVER = "mp-deliver"  #: The head of a channel reached its destination.
    TICK = "mp-tick"  #: A process took one spontaneous step.
    HAVOC = "mp-havoc"  #: A malicious process took one arbitrary step.
    CRASH = "mp-crash"  #: A process halted.
    MALICE_BEGIN = "mp-malice-begin"  #: A malicious crash began its arbitrary phase.
    TRANSIENT = "mp-transient"  #: A transient fault corrupted states/channels.
    RESTART = "mp-restart"  #: A halted process was relaunched in place.
    BYZANTINE = "mp-byzantine"  #: A process was subverted: it keeps talking
    #: protocol-shaped frames instead of halting (beyond the paper's model).


class NetEventKind(enum.Enum):
    """What a live-cluster (:mod:`repro.net`) event records.

    The live runtime publishes the same :class:`TraceEvent` dataclass as
    both engines; ``step`` carries a per-publisher monotonic sequence
    number (real time is environmental and goes in ``detail`` when an
    event needs it).  Peer frames are counted, not published.
    """

    NODE_START = "net-node-start"  #: A node daemon began serving.
    NODE_STOP = "net-node-stop"  #: A node daemon shut down (or was killed).
    CONN_OPEN = "net-conn-open"  #: A peer/client connection was established.
    CONN_LOST = "net-conn-lost"  #: A connection dropped (reconnects follow).
    HELLO_OK = "net-hello-ok"  #: Protocol-version handshake succeeded.
    HELLO_BAD = "net-hello-bad"  #: Handshake rejected (version/garbage).
    SEND = "net-send"  #: A frame toward a peer; no longer emitted by ``NodeServer``.
    RECV = "net-recv"  #: A frame from a peer; no longer emitted by ``NodeServer``.
    GARBAGE = "net-garbage"  #: Bytes discarded by the garbage-tolerant decoder.
    CHAOS = "net-chaos"  #: The chaos proxy applied a scheduled fault.
    GRANT = "net-grant"  #: The lock service granted an acquire (entered eating).
    RELEASE = "net-release"  #: The lock service released (exited eating).
    CRASH_DETECT = "net-crash-detect"  #: The supervisor saw a node die.
    NODE_RESTART = "net-node-restart"  #: A crashed node was relaunched.
    CLIENT_RECONNECT = "net-client-reconnect"  #: A lock client re-established its link.
    CONVERGENCE = "net-convergence"  #: A restarted node issued its first client grant.
    BYZANTINE = "net-byzantine"  #: A "crashed" node was subverted and keeps
    #: emitting protocol-shaped frames instead of halting.
    ADVERSARY = "net-adversary"  #: The adaptive adversary took a decision.
    SPAN_OPEN = "net-span-open"  #: A trace span opened (lock-acquire lifecycle).
    SPAN_CLOSE = "net-span-close"  #: A trace span closed (grant latency in detail).
