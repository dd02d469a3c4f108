"""Unit tests for the message-passing engine."""

from typing import Tuple

import pytest

from repro.mp import MpEngine, MpProcess, build_diners
from repro.sim import DeadProcessError, SchedulingError, SimulationError, line, ring


class Echo(MpProcess):
    """Replies to every message; counts what it saw."""

    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []
        self.tick_count = 0

    def on_message(self, ctx, src, payload):
        self.seen.append((src, payload))
        if payload and payload[0] == "ping":
            ctx.send(src, ("pong",))

    def on_tick(self, ctx):
        self.tick_count += 1

    def corrupt(self, rng):
        self.seen = []

    def random_payload(self, rng) -> Tuple:
        return ("junk", rng.randrange(10))


class Chatter(Echo):
    """Sends a ping to each neighbour on every tick."""

    def on_tick(self, ctx):
        super().on_tick(ctx)
        for q in ctx.neighbors:
            ctx.send(q, ("ping",))


def build(topo, cls=Echo, **kwargs):
    procs = {p: cls(p) for p in topo.nodes}
    return procs, MpEngine(topo, procs, **kwargs)


class TestConstruction:
    def test_processes_must_cover_nodes(self):
        topo = line(3)
        with pytest.raises(SimulationError):
            MpEngine(topo, {0: Echo(0)})

    def test_channels_per_direction(self):
        topo = line(3)
        _, engine = build(topo)
        assert engine.channel(0, 1) is not engine.channel(1, 0)

    def test_unknown_channel(self):
        topo = line(3)
        _, engine = build(topo)
        with pytest.raises(SimulationError):
            engine.channel(0, 2)

    def test_patience_below_one_is_a_scheduling_error(self):
        # The shared-memory daemons' error: both engines select through
        # the same selector, and it checks the bound.
        with pytest.raises(SchedulingError):
            build(line(3), patience=0)

    def test_negative_max_steps_is_refused(self):
        # The shared-memory engine's refusal, word for word.
        _, engine = build(line(3))
        with pytest.raises(ValueError, match="max_steps must be non-negative"):
            engine.run(-5)


class TestDeliveryAndTicks:
    def test_messages_eventually_delivered(self):
        topo = line(2)
        procs, engine = build(topo, Chatter, seed=1)
        engine.run(200)
        assert procs[0].seen and procs[1].seen

    def test_every_process_ticks(self):
        topo = ring(4)
        procs, engine = build(topo, Echo, seed=2)
        engine.run(200)
        assert all(p.tick_count > 0 for p in procs.values())

    def test_fairness_bounds_tick_gap(self):
        # With patience k, a process cannot be denied a tick forever.
        topo = ring(5)
        procs, engine = build(topo, Chatter, seed=3, patience=16)
        engine.run(2000)
        ticks = [procs[p].tick_count for p in topo.nodes]
        assert min(ticks) > 0
        assert max(ticks) < 40 * min(ticks)

    def test_determinism(self):
        def run(seed):
            topo = ring(4)
            procs, engine = build(topo, Chatter, seed=seed)
            engine.run(500)
            return [procs[p].tick_count for p in topo.nodes], engine.delivered

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_stop_when(self):
        topo = line(2)
        procs, engine = build(topo, Chatter, seed=1)
        taken = engine.run(10_000, stop_when=lambda e: e.delivered >= 5)
        assert engine.delivered >= 5
        assert taken < 10_000

    def test_in_flight(self):
        topo = line(2)
        procs, engine = build(topo, Echo, seed=1)
        engine.channel(0, 1).send(("x",))
        assert engine.in_flight() == 1


class TestSelectionCost:
    """Counted, not timed: what a selection reads must not grow with the
    network (a scan reads all 2n channels of ring(n) at every step)."""

    def entries_read_per_selection(self, n, steps=10_000):
        reads = [0]

        class Counting(MpEngine):
            def _choose(self):
                reads[0] += len(self._selector.changes)
                return super()._choose()

        topo = ring(n)
        engine = Counting(topo, build_diners(topo, seed=1), seed=2)
        assert engine.run(steps) == steps
        return reads[0] / engine._selector.selections

    def test_entries_read_per_selection_do_not_grow_with_the_ring(self):
        small = self.entries_read_per_selection(8)
        large = self.entries_read_per_selection(64)
        # One entry per slot written since the last selection — the one
        # that fired, the channels just sent on — whatever the size.
        assert 0 < small <= 2 and 0 < large <= 2


class TestCrashes:
    def test_crash_stops_ticks(self):
        topo = line(3)
        procs, engine = build(topo, Echo, seed=4)
        engine.crash(1)
        engine.run(300)
        assert procs[1].tick_count == 0
        assert not engine.is_alive(1)

    def test_messages_to_dead_are_discarded(self):
        topo = line(2)
        procs, engine = build(topo, Echo, seed=5)
        engine.crash(1)
        engine.channel(0, 1).send(("ping",))
        engine.run(100)
        assert procs[1].seen == []
        assert engine.in_flight() == 0  # drained, not stuck

    def test_double_crash_rejected(self):
        topo = line(2)
        _, engine = build(topo)
        engine.crash(0)
        with pytest.raises(DeadProcessError):
            engine.crash(0)

    def test_malicious_crash_havocs_then_halts(self):
        topo = line(3)
        procs, engine = build(topo, Echo, seed=6)
        engine.crash_maliciously(1, havoc_steps=5)
        engine.run(2000)
        assert not engine.is_alive(1)
        # junk reached at least one neighbour with high probability
        junk = [m for p in (0, 2) for m in procs[p].seen if m[1][0] == "junk"]
        assert junk

    def test_malicious_zero_steps_is_benign(self):
        topo = line(2)
        _, engine = build(topo)
        engine.crash_maliciously(0, havoc_steps=0)
        assert not engine.is_alive(0)

    def test_negative_havoc_rejected(self):
        topo = line(2)
        _, engine = build(topo)
        with pytest.raises(SimulationError):
            engine.crash_maliciously(0, havoc_steps=-1)


class TestTransient:
    def test_transient_corrupts_channels(self):
        topo = line(2)
        procs, engine = build(topo, Echo, seed=8)
        engine.transient_fault()
        total = engine.in_flight()
        junk_frames = sum(
            1
            for ch in engine.channels()
            for m in ch.peek_all()
            if m.payload[0] == "junk"
        )
        assert junk_frames == total  # everything in flight is junk now

    def test_transient_scoped(self):
        topo = line(4)
        procs, engine = build(topo, Echo, seed=9)
        procs[3].seen.append(("marker", ("m",)))
        engine.transient_fault(pids=[0])
        assert procs[3].seen  # untouched
