"""Unit tests for the typed event bus."""

from repro.core import NADiners
from repro.obs import EventBus, EventKind, MpEventKind, TraceEvent
from repro.sim import (
    AlwaysHungry,
    Engine,
    FaultPlan,
    MaliciousCrash,
    System,
    TransientFault,
    ring,
)


def event(step=0, kind=EventKind.ACTION, pid=0, detail="enter"):
    return TraceEvent(step, kind, pid, detail)


class TestSubscribe:
    def test_per_kind_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EventKind.ACTION, seen.append)
        bus.publish(event(kind=EventKind.ACTION))
        bus.publish(event(kind=EventKind.CRASH, detail=None))
        assert len(seen) == 1
        assert seen[0].kind is EventKind.ACTION

    def test_catch_all_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.publish(event(kind=EventKind.ACTION))
        bus.publish(event(kind=EventKind.IDLE, pid=None, detail=None))
        assert [e.kind for e in seen] == [EventKind.ACTION, EventKind.IDLE]

    def test_catch_all_before_per_kind(self):
        bus = EventBus()
        order = []
        bus.subscribe_all(lambda e: order.append("all"))
        bus.subscribe(EventKind.ACTION, lambda e: order.append("kind"))
        bus.publish(event())
        assert order == ["all", "kind"]

    def test_mp_kinds_are_distinct_keys(self):
        bus = EventBus()
        sim, mp = [], []
        bus.subscribe(EventKind.CRASH, sim.append)
        bus.subscribe(MpEventKind.CRASH, mp.append)
        bus.publish(TraceEvent(0, MpEventKind.CRASH, 1, None))
        assert not sim and len(mp) == 1

    def test_subscribe_returns_fn(self):
        bus = EventBus()
        fn = lambda e: None  # noqa: E731
        assert bus.subscribe(EventKind.ACTION, fn) is fn
        assert bus.subscribe_all(fn) is fn


class TestTap:
    def test_tap_gets_fields_of_published_and_announced(self):
        bus = EventBus()
        seen = []
        bus.tap(lambda *fields: seen.append(fields))
        bus.publish(event(step=3, pid=2))
        bus.announce(4, EventKind.IDLE, None, None)
        assert seen == [
            (3, EventKind.ACTION, 2, "enter"),
            (4, EventKind.IDLE, None, None),
        ]

    def test_announce_skips_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.announce(0, EventKind.ACTION, 0, "enter")
        assert not seen

    def test_tap_alone_is_active_but_wants_no_events(self):
        bus = EventBus()
        fn = bus.tap(lambda *fields: None)
        assert bus.active and not bus.wants_events
        bus.subscribe(EventKind.ACTION, fn)
        assert bus.wants_events
        assert bus.unsubscribe(fn)
        assert not bus.active and not bus.wants_events

    def test_engine_taps_see_what_subscribers_see(self):
        """An engine with only taps attached builds no events, yet the taps
        get every occurrence — faults, havoc and idles included."""

        def run(attach):
            bus, seen = EventBus(), []
            attach(bus, seen)
            plan = FaultPlan(
                [
                    TransientFault(at_step=5),
                    MaliciousCrash(pid=2, at_step=20, malicious_steps=3),
                ]
            )
            engine = Engine(
                System(ring(6), NADiners()), hunger=AlwaysHungry(),
                faults=plan, seed=4, bus=bus,
            )
            engine.run(300)
            return seen, engine.system.snapshot()

        tapped, final_tapped = run(
            lambda bus, seen: bus.tap(lambda *fields: seen.append(fields))
        )
        subscribed, final_subscribed = run(
            lambda bus, seen: bus.subscribe_all(
                lambda e: seen.append((e.step, e.kind, e.pid, e.detail))
            )
        )
        assert tapped == subscribed
        assert final_tapped == final_subscribed
        assert {EventKind.ACTION, EventKind.TRANSIENT, EventKind.HAVOC} <= {
            kind for _, kind, _, _ in tapped
        }


class TestUnsubscribe:
    def test_removes_per_kind(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EventKind.ACTION, seen.append)
        assert bus.unsubscribe(seen.append)
        bus.publish(event())
        assert not seen

    def test_removes_catch_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        assert bus.unsubscribe(seen.append)
        bus.publish(event())
        assert not seen

    def test_unknown_fn_is_false(self):
        assert not EventBus().unsubscribe(lambda e: None)


class TestActive:
    def test_fresh_bus_inactive(self):
        assert not EventBus().active

    def test_active_after_subscribe(self):
        bus = EventBus()
        bus.subscribe(EventKind.ACTION, lambda e: None)
        assert bus.active

    def test_inactive_after_unsubscribe(self):
        bus = EventBus()
        fn = lambda e: None  # noqa: E731
        bus.subscribe_all(fn)
        bus.unsubscribe(fn)
        assert not bus.active

    def test_publish_without_subscribers_is_noop(self):
        EventBus().publish(event())  # must not raise
