"""``MpContext``: the simulator's side of the transport seam.

A process sees the network only through the context it is handed, so this
pins what the context promises: it is a :class:`ProcessContext`, its
``neighbors`` are the topology's, and a send to anyone else is refused
before it reaches a channel or the bus.  The engine's side of the same
seam is here too: ``send_message`` on a missing edge, and ``counters``,
which the engine builds on read from what its steps fired.
"""

from typing import Tuple

import pytest

from repro.mp import MpEngine, MpProcess
from repro.mp.node import MpContext, ProcessContext
from repro.obs import EventBus
from repro.sim import NotNeighborsError, SimulationError, from_spec


class Quiet(MpProcess):
    def on_message(self, ctx, src, payload):
        pass

    def corrupt(self, rng):
        pass

    def random_payload(self, rng) -> Tuple:
        return ("junk",)


class Pinger(Quiet):
    def on_tick(self, ctx):
        for q in ctx.neighbors:
            ctx.send(q, ("ping",))


def engine_on(spec, cls=Quiet):
    topology = from_spec(spec)
    bus = EventBus()
    heard = []
    bus.subscribe_all(heard.append)
    engine = MpEngine(topology, {p: cls(p) for p in topology.nodes}, bus=bus)
    return engine, heard


@pytest.mark.parametrize("spec", ["line:4", "ring:5", "star:4", "grid:2:3"])
def test_the_context_is_the_process_context_of_its_pid(spec):
    engine, _ = engine_on(spec)
    for pid in engine.topology.nodes:
        ctx = engine._contexts[pid]
        assert isinstance(ctx, MpContext)
        assert isinstance(ctx, ProcessContext)
        assert ctx.pid == pid
        assert ctx.neighbors == engine.topology.neighbors(pid)
        assert ctx.topology is engine.topology


def test_a_send_to_a_non_neighbour_touches_no_channel_and_says_nothing():
    engine, heard = engine_on("line:4")
    ctx = engine._contexts[0]
    with pytest.raises(NotNeighborsError):
        ctx.send(2, ("hello",))
    with pytest.raises(NotNeighborsError):
        ctx.send(0, ("hello",))
    assert engine.in_flight() == 0
    assert all(c.dropped == 0 and c.lost == 0 for c in engine.channels())
    assert heard == []
    assert engine.clocks[0].value == 0


def test_the_engine_refuses_a_send_on_a_missing_edge():
    engine, heard = engine_on("line:4")
    with pytest.raises(SimulationError, match="no channel 0->2"):
        engine.send_message(0, 2, ("hello",))
    assert engine.in_flight() == 0
    assert heard == []


def test_counters_tally_every_tick_and_delivery_per_process():
    engine, _ = engine_on("ring:5", Pinger)
    engine.run(400)
    counters = engine.counters
    assert sum(n for (kind, _), n in counters.items() if kind == "tick") == engine.ticks
    assert (
        sum(n for (kind, _), n in counters.items() if kind == "delivered")
        == engine.delivered
    )
    assert all(n > 0 for n in counters.values())
    for pid in engine.topology.nodes:
        assert counters[("delivered", pid)] > 0
        assert counters[("tick", pid)] > 0
    assert engine.counters == counters  # a read builds; it changes nothing

