"""Fault edges of the message-passing engine.

Channel overflow under bounded capacity, and malicious-crash garbage
delivery — the in-process mirror of what the live chaos proxy does at the
socket level (see :mod:`repro.net.chaos`), so the two fault repertoires
stay bit-for-bit aligned.
"""

import random

import pytest

from repro.mp import MpEngine
from repro.mp.channel import Channel
from repro.mp.diners_mp import (
    build_diners,
    eating_now,
    neighbours_both_eating,
)
from repro.net import WireChannel
from repro.sim import SimulationError, UnknownProcessError, line, ring


class TestBoundedCapacity:
    def test_overflow_drops_and_counts(self):
        channel = Channel(0, 1, capacity=2)
        assert channel.send(("a",)) and channel.send(("b",))
        assert not channel.send(("c",))
        assert channel.dropped == 1
        assert len(channel) == 2

    def test_deliver_frees_a_slot(self):
        channel = Channel(0, 1, capacity=1)
        channel.send(("a",))
        assert not channel.send(("b",))
        assert channel.deliver().payload == ("a",)
        assert channel.send(("b",))

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Channel(0, 1, capacity=0)

    def test_fifo_order_survives_overflow(self):
        channel = Channel(0, 1, capacity=3)
        for payload in ("a", "b", "c", "d", "e"):
            channel.send((payload,))
        assert [m.payload[0] for m in channel.peek_all()] == ["a", "b", "c"]

    def test_engine_diners_survive_tiny_channels(self):
        # Capacity 1 forces constant overflow; retransmission (hungry
        # processes re-request every tick) must still make progress.
        topo = ring(4)
        procs = build_diners(topo, seed=1)
        engine = MpEngine(topo, procs, channel_capacity=1, seed=5)
        engine.run(6000)
        assert sum(p.eats for p in procs.values()) > 0
        assert neighbours_both_eating(topo, procs) == ()
        assert sum(c.dropped for c in engine.channels()) > 0


class TestMaliciousCrashGarbage:
    def run_with_malice(self, channel_factory=None):
        topo = ring(5)
        procs = build_diners(topo, seed=2)
        kwargs = {} if channel_factory is None else {
            "channel_factory": channel_factory
        }
        engine = MpEngine(topo, procs, seed=11, **kwargs)
        engine.run(1500)
        engine.crash_maliciously(0, havoc_steps=25)
        engine.run(6000)
        return topo, procs, engine

    def test_junk_is_delivered_and_survived(self):
        topo, procs, engine = self.run_with_malice()
        assert not engine.is_alive(0)
        # The victim's junk payloads were delivered to its neighbours and
        # validated away; the survivors keep dining safely.
        assert neighbours_both_eating(topo, procs) == ()
        live = [p for p in topo.nodes if engine.is_alive(p)]
        assert 0 not in eating_now(procs) or procs[0].state is None
        assert sum(procs[p].eats for p in live) > 0

    def test_same_malice_through_the_wire_codec(self):
        # Identical schedule over WireChannel: every junk payload crosses
        # encode -> bytes -> garbage-tolerant decode, the same path the
        # chaos proxy's garbage burst takes between live nodes.
        topo, procs, engine = self.run_with_malice(channel_factory=WireChannel)
        assert not engine.is_alive(0)
        assert neighbours_both_eating(topo, procs) == ()
        for channel in engine.channels():
            assert isinstance(channel, WireChannel)

    def test_transient_fault_fills_channels_with_junk(self):
        topo = line(4)
        procs = build_diners(topo, seed=3)
        engine = MpEngine(topo, procs, seed=7, channel_factory=WireChannel)
        engine.run(500)
        engine.transient_fault()
        assert engine.in_flight() <= sum(c.capacity for c in engine.channels())
        engine.run(6000)
        assert neighbours_both_eating(topo, procs) == ()
        assert sum(p.eats for p in procs.values()) > 0

    def test_raw_garbage_mirrors_socket_bytes(self):
        # Byte-level equivalence: the same seeded burst the proxy sprays is
        # absorbed by a WireChannel's decoder without forging any message.
        rng = random.Random(4)
        channel = WireChannel(0, 1, 8)
        burst = bytes(rng.randrange(256) for _ in range(rng.randint(16, 128)))
        channel.inject_garbage(burst)
        assert channel.decoder.garbage_bytes + len(channel.decoder) == len(burst)
        assert channel.empty


class TestUnknownPidInATransientFault:
    def snapshot(self, procs, engine):
        return (
            {p: repr(sorted(vars(proc).items())) for p, proc in procs.items()},
            [c.peek_all() for c in engine.channels()],
            engine.rng.getstate(),
        )

    def test_it_is_named_like_every_other_fault_names_it(self):
        topo = line(3)
        engine = MpEngine(topo, build_diners(topo, seed=3), seed=7)
        with pytest.raises(UnknownProcessError, match="unknown process: 99"):
            engine.transient_fault([99])

    def test_a_bad_list_corrupts_nothing(self):
        # The known pid comes first: it must not be corrupted before the
        # unknown one is noticed.
        topo = line(3)
        procs = build_diners(topo, seed=3)
        engine = MpEngine(topo, procs, seed=7)
        engine.run(200)
        assert engine.in_flight() > 0
        before = self.snapshot(procs, engine)
        with pytest.raises(UnknownProcessError):
            engine.transient_fault([1, 99])
        assert self.snapshot(procs, engine) == before
