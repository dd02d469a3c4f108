"""Message-passing engine goldens: ``MpEngine``'s schedule, pinned by digest.

The mp twin of ``tests/sim/test_engine_goldens.py::DAEMON_DIGESTS``.  The
digests were recorded from the commit *before* ``MpEngine._choose`` went
from a scan over every channel and process to an event index (and before
``Channel`` grew its mutation funnel): same event picked at every
selection, same RNG draws, same bus stream, same counters and clocks.  A
digest that moves means the schedule moved — re-record only for a change
that is *meant* to alter what a seed produces.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.mp import MpEngine
from repro.mp.channel import Channel
from repro.mp.diners_mp import build_diners
from repro.net import WireChannel
from repro.obs import EventBus
from repro.sim import from_spec

TOPOLOGIES = ("ring:8", "ring:7", "line:5", "star:4", "grid:3:3")
PATIENCES = (3, 64)
FACTORIES = {"Channel": Channel, "WireChannel": WireChannel}

#: (topology, patience, channel class) -> sha256 of ``scenario``'s record.
MP_DIGESTS = {
    ("ring:8", 3, "Channel"):
        "895dc45b5edff762ed42ab1a98ab32171a3ac68f01f564e1527d3a6849ac6bdd",
    ("ring:8", 3, "WireChannel"):
        "70baec97e4fe82ea9d6430ae236ff87fc306d66bc9794c6b7e9367c0b134bc30",
    ("ring:8", 64, "Channel"):
        "f96198e46f3819d0627362c696895f0116a2122a77bdf632aba2d2905f1a4c54",
    ("ring:8", 64, "WireChannel"):
        "47fedc26cfef11c6ed88ddb60faafc17ec23066da2a5148dda715329a24ca930",
    ("ring:7", 3, "Channel"):
        "548ff8f232136cb95cacf2ba91b77f5efadd7338f080e177b9921a46e9d2f206",
    ("ring:7", 3, "WireChannel"):
        "31fb789ea37cb434f2e15db40d0eaa0d5945e9e5f8f0761dc5a01def407f7bcd",
    ("ring:7", 64, "Channel"):
        "12846ba65a0c9b132a34c2f2a6f6dde6277b0591729b59d3804c26eb0dca53e1",
    ("ring:7", 64, "WireChannel"):
        "dab862a0d896b559f550142f8fe35bcc0d389eeed4f8be99feed113f9093d0b2",
    ("line:5", 3, "Channel"):
        "33066829f32f9dde28e17070b4995bdc544b1374acfadf1c0b561b4432d55693",
    ("line:5", 3, "WireChannel"):
        "69edd541fda9ee17f36a857c5b96ed7e3f78a971b20885a70527ddcee619a9ed",
    ("line:5", 64, "Channel"):
        "1a5c8cd0302f22ebca466b4d507c0cdbc70898ebe89161716cafa56dc9e4c40c",
    ("line:5", 64, "WireChannel"):
        "e404c0b7491cfa2ee73d1bb4345d33ccdcbc9062e2ca68e738f0c993108cf50e",
    ("star:4", 3, "Channel"):
        "7584496c529b45549efd4f59e23bb93ee77ad02a138cd4c4d20321d370eb4b21",
    ("star:4", 3, "WireChannel"):
        "e6be80fef9ceb979f013128af1d00790fdfd1f17f2102d567962ae0f24e46cba",
    ("star:4", 64, "Channel"):
        "45006cf38279147af5e9f789d77e870cdc4d1ccc89b1d75a033e6381a122039f",
    ("star:4", 64, "WireChannel"):
        "f7f7fc4d7da422903b3d37263e99e3702d9df1ff177aba69dfd229d99111fac6",
    ("grid:3:3", 3, "Channel"):
        "8ef757d1d6a73e6a0c0370f946bc570ffbfe88933f80aaea68b9ac702ba10aa9",
    ("grid:3:3", 3, "WireChannel"):
        "b43234e28bfc079d65338bf6ecf4364d5f1d5c1e726199a4a8ed44597754bfa0",
    ("grid:3:3", 64, "Channel"):
        "cb30c54e831c1d1d9a57c6e8a2e98e17d44e83a3e8ecb7febde559caa8e658e9",
    ("grid:3:3", 64, "WireChannel"):
        "924acb87dd2a2c9069649e7117b20b02e68762bfcc20fe9137e6016916740639",
}


def scenario(spec, patience, factory, *, with_bus=True):
    """A malicious crash, a transient fault and a restart into arbitrary
    state, 1 500 steps in all; returns ``(event lines, state lines)``."""
    topology = from_spec(spec)
    processes = build_diners(topology, eat_ticks=2, seed=5, repair=True)
    events = []
    bus = None
    if with_bus:
        bus = EventBus()
        bus.subscribe_all(
            lambda e: events.append(
                f"{e.step} {e.kind.value} {e.pid!r} {e.detail!r}"
            )
        )
    engine = MpEngine(
        topology, processes, patience=patience, seed=11,
        channel_factory=factory, bus=bus,
    )
    victim = topology.nodes[len(topology.nodes) // 2]
    engine.run(400)
    engine.crash_maliciously(victim, 12)
    engine.run(400)
    engine.transient_fault()
    engine.run(300)
    engine.restart(victim, rng=random.Random(3))
    engine.run(400)
    state = [
        f"steps {engine.step_count} delivered {engine.delivered} "
        f"ticks {engine.ticks} in_flight {engine.in_flight()}",
        f"counters {sorted(engine.counters.items())!r}",
        f"clocks {[engine.clocks[p].value for p in topology.nodes]!r}",
        f"eats {[processes[p].eats for p in topology.nodes]!r}",
    ]
    return events, state


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("spec, patience, channel", sorted(MP_DIGESTS))
def test_schedule_is_pinned(spec, patience, channel):
    events, state = scenario(spec, patience, FACTORIES[channel])
    assert state[0].startswith("steps 1500 ")
    assert digest(events + state) == MP_DIGESTS[(spec, patience, channel)]


@pytest.mark.parametrize("spec", TOPOLOGIES)
def test_a_bus_changes_nothing_but_what_it_hears(spec):
    _, heard = scenario(spec, 3, Channel)
    _, unheard = scenario(spec, 3, Channel, with_bus=False)
    assert heard == unheard


def test_the_table_covers_the_whole_grid():
    assert set(MP_DIGESTS) == {
        (spec, patience, channel)
        for spec in TOPOLOGIES
        for patience in PATIENCES
        for channel in FACTORIES
    }


if __name__ == "__main__":  # pragma: no cover - re-recording aid
    for key in MP_DIGESTS:
        events, state = scenario(key[0], key[1], FACTORIES[key[2]])
        print(f"    {key!r}: \"{digest(events + state)}\",")
