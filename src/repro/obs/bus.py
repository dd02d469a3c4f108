"""A lightweight typed event bus.

Both engines publish their occurrences here: :class:`~repro.sim.engine.Engine`
publishes :class:`~repro.sim.trace.TraceEvent` (kinds from
:class:`~repro.sim.trace.EventKind`) and :class:`~repro.mp.engine.MpEngine`
publishes the same event type under :class:`~repro.obs.events.MpEventKind`.
Subscribers are plain callables; a subscription is either *per kind* or
*catch-all*.  A *tap* is the cheaper third form for always-armed listeners
(the flight recorder): it is handed an occurrence's four scalar fields and
never an event object, so a publisher with nothing but taps attached can
:meth:`~EventBus.announce` the fields and build no event at all.

The default is zero-overhead: engines hold no bus at all (``bus=None``) and
their emit path is a single ``is None`` test.  An attached bus with no
subscribers costs one truthiness check per event.  This is what lets the
trace/metrics machinery stay opt-in while being first-class when wanted.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Protocol


class BusEvent(Protocol):
    """Anything publishable: a step, a hashable ``kind``, and who/what."""

    step: int
    kind: Hashable
    pid: Any
    detail: Any


Subscriber = Callable[[Any], None]
Tap = Callable[[int, Hashable, Any, Any], None]


class EventBus:
    """Dispatches published events to per-kind and catch-all subscribers.

    Subscribers run synchronously, in subscription order, on the publisher's
    thread; a slow subscriber slows the run, which is the honest contract for
    instrumentation (no hidden queues, no reordering).
    """

    __slots__ = ("_by_kind", "_all", "_taps")

    def __init__(self) -> None:
        self._by_kind: Dict[Hashable, List[Subscriber]] = {}
        self._all: List[Subscriber] = []
        self._taps: List[Tap] = []

    # ---------------------------------------------------------- subscribe

    def subscribe(self, kind: Hashable, fn: Subscriber) -> Subscriber:
        """Call ``fn(event)`` for every published event of ``kind``."""
        self._by_kind.setdefault(kind, []).append(fn)
        return fn

    def subscribe_all(self, fn: Subscriber) -> Subscriber:
        """Call ``fn(event)`` for every published event, any kind."""
        self._all.append(fn)
        return fn

    def tap(self, fn: Tap) -> Tap:
        """Call ``fn(step, kind, pid, detail)`` for every occurrence,
        published or announced — no event object, no payload."""
        self._taps.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[..., None]) -> bool:
        """Remove ``fn`` wherever it is subscribed; True if it was found."""
        found = False
        for listeners in (self._all, self._taps):
            if fn in listeners:
                listeners.remove(fn)
                found = True
        for kind, subscribers in list(self._by_kind.items()):
            if fn in subscribers:
                subscribers.remove(fn)
                found = True
                if not subscribers:
                    del self._by_kind[kind]
        return found

    # ------------------------------------------------------------ publish

    @property
    def active(self) -> bool:
        """True when at least one subscriber or tap is attached."""
        return bool(self._taps) or self.wants_events

    @property
    def wants_events(self) -> bool:
        """True when some subscriber needs an event object; when only taps
        listen, :meth:`announce` serves them all."""
        return bool(self._all or self._by_kind)

    def announce(self, step: int, kind: Hashable, pid: Any, detail: Any) -> None:
        """Hand an occurrence's fields to the taps (and to nobody else)."""
        for fn in self._taps:
            fn(step, kind, pid, detail)

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to the taps (as fields), then catch-all, then
        per-kind subscribers."""
        if self._taps:
            self.announce(event.step, event.kind, event.pid, event.detail)
        for fn in self._all:
            fn(event)
        subscribers = self._by_kind.get(event.kind)
        if subscribers:
            for fn in subscribers:
                fn(event)
