"""``on_tick`` = timers, then ``on_wake``: one guard implementation, two
entry points — and the engine never takes the second one."""

import copy
import random

import pytest

from repro.adversary.byzantine import ByzantineDinerProcess
from repro.mp import MpEngine, build_diners
from repro.mp.diners_mp import DinersMpProcess, E, H, T
from repro.sim import ring


class RecordingContext:
    """A ``ProcessContext`` that logs sends; ``down`` links refuse them."""

    def __init__(self, topology, pid, down=()):
        self.topology = topology
        self.pid = pid
        self.neighbors = topology.neighbors(pid)
        self.down = set(down)
        self.sent = []

    def send(self, dst, payload):
        if dst in self.down:
            return False
        self.sent.append((dst, payload))
        return True


def snapshot(proc):
    """Every field a step may touch (the needs callable and RNG aside)."""
    return {
        k: copy.deepcopy(v)
        for k, v in vars(proc).items()
        if k not in ("_needs", "_rng", "_topology")
    }


def corrupted_pair(seed, *, repair, state, needs):
    """Two identical processes in one ``corrupt(rng)``-randomised state."""
    topo = ring(5)
    rng = random.Random(seed)
    pair = []
    for _ in range(2):
        proc = DinersMpProcess(
            2, topo, needs=lambda: needs, eat_ticks=2, repair=repair
        )
        proc.corrupt(random.Random(seed))
        proc.state = state
        proc._ticks = seed % 23
        pair.append(proc)
    down = [q for q in topo.neighbors(2) if rng.random() < 0.2]
    return topo, pair, down


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("state", [T, H, E])
@pytest.mark.parametrize("needs", [False, True])
def test_tick_is_timers_then_wake(repair, state, needs):
    for seed in range(60):
        topo, (a, b), down = corrupted_pair(
            seed, repair=repair, state=state, needs=needs
        )
        ctx_a = RecordingContext(topo, 2, down)
        ctx_b = RecordingContext(topo, 2, down)
        for _ in range(3):  # a few ticks, so countdowns and resends fire
            a.on_tick(ctx_a)
            if not b._tick_timers(ctx_b):
                b.on_wake(ctx_b)
        assert snapshot(a) == snapshot(b)
        assert ctx_a.sent == ctx_b.sent


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("state", [T, H, E])
def test_wakes_with_nothing_new_reach_a_fixed_point(repair, state):
    """Why a host may wake as often as it likes: over links that accept
    every send the guards settle within two evaluations (a hungry process
    that yields a dirty fork asks for it back on the next one), and every
    further wake is a no-op."""
    for seed in range(60):
        topo, (a, _), _ = corrupted_pair(
            seed, repair=repair, state=state, needs=True
        )
        ctx = RecordingContext(topo, 2)
        a.on_wake(ctx)
        a.on_wake(ctx)
        settled, sent = snapshot(a), list(ctx.sent)
        a.on_wake(ctx)
        assert snapshot(a) == settled
        assert ctx.sent == sent


def test_wake_never_touches_a_timer():
    """No tick count, eating countdown, or yield counter moves on a wake."""
    for state in (T, H, E):
        for seed in range(40):
            topo, (a, _), _ = corrupted_pair(
                seed, repair=True, state=state, needs=True
            )
            before = snapshot(a)
            a.on_wake(RecordingContext(topo, 2))
            after = snapshot(a)
            assert after["_ticks"] == before["_ticks"]
            assert after["_yield_count"] == before["_yield_count"]
            if a.state == state:  # entering a meal sets its own countdown
                assert after["_eating_remaining"] == before["_eating_remaining"]


def test_byzantine_is_deaf_to_wakes():
    topo = ring(4)
    byz = ByzantineDinerProcess(1, topo)
    ctx = RecordingContext(topo, 1)
    before = snapshot(byz)
    byz.on_wake(ctx)
    assert snapshot(byz) == before and byz.state == E
    assert ctx.sent == []


def test_engine_never_wakes_and_its_schedule_is_unchanged(monkeypatch):
    """Golden: a fixed-seed ring:8 run of the served diner through a
    malicious crash and a transient fault leaves exactly these meal counts.
    Recorded when fork placement moved to the colour rank; the engine's
    own schedule is pinned by the ring:3 digests in ``test_fork_rank.py``,
    where that move changes nothing.  (Node 1's count is the fork layer's
    documented non-stabilization: the transient fault duplicated both its
    forks, so neither neighbour ever asks for them.)"""
    tick, wake = DinersMpProcess.on_tick, DinersMpProcess.on_wake
    in_tick = [False]
    stray_wakes = []

    def on_tick(self, ctx):
        in_tick[0] = True
        try:
            tick(self, ctx)
        finally:
            in_tick[0] = False

    def on_wake(self, ctx):
        if not in_tick[0]:
            stray_wakes.append(self.pid)
        wake(self, ctx)

    monkeypatch.setattr(DinersMpProcess, "on_tick", on_tick)
    monkeypatch.setattr(DinersMpProcess, "on_wake", on_wake)
    topo = ring(8)
    procs = build_diners(topo, eat_ticks=2, repair=True, seed=13)
    engine = MpEngine(topo, procs, seed=13)
    for _ in range(1500):
        engine.step()
    engine.crash_maliciously(3, 40)
    for _ in range(1500):
        engine.step()
    engine.transient_fault()
    for _ in range(3000):
        engine.step()
    assert [procs[p].eats for p in topo.nodes] == [26, 121, 13, 11, 11, 13, 20, 21]
    assert stray_wakes == []  # every wake was the guard half of a tick
