"""Fork placement by colour rank: one static total order both ends of an
edge agree on, an initial precedence graph as shallow as the colouring,
and the concurrency under saturation that shallowness buys."""

import hashlib
import random

import pytest

from repro.mp import (
    MpEngine,
    build_diners,
    eating_now,
    neighbours_both_eating,
    precedence_depth,
)
from repro.obs.bus import EventBus
from repro.sim import Topology, grid, line, ring

#: a 4-cycle with one chord: two triangles sharing an edge.
K3_PLUS_CHORD = Topology(range(4), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])

TOPOLOGIES = {
    **{f"ring:{n}": ring(n) for n in (3, 5, 6, 7, 8)},
    **{f"line:{n}": line(n) for n in range(2, 7)},
    "grid:3:3": grid(3, 3),
    "k3+chord": K3_PLUS_CHORD,
}
COLOURS = {
    "ring:3": 3, "ring:5": 3, "ring:6": 2, "ring:7": 3, "ring:8": 2,
    "line:2": 2, "line:3": 2, "line:4": 2, "line:5": 2, "line:6": 2,
    "grid:3:3": 2, "k3+chord": 3,
}


@pytest.fixture(params=sorted(TOPOLOGIES))
def named(request):
    return request.param, TOPOLOGIES[request.param]


def test_rank_is_a_strict_total_order_that_separates_neighbours(named):
    name, topo = named
    rank = topo.colour_rank()
    assert set(rank) == set(topo.nodes)
    assert len(set(rank.values())) == len(topo)
    assert {colour for colour, _ in rank.values()} == set(range(COLOURS[name]))
    for e in topo.edges:
        p, q = tuple(e)
        assert rank[p][0] != rank[q][0]
    assert topo.colour_rank() is rank  # computed once per topology


def test_one_fork_and_one_request_token_per_edge_at_opposite_ends(named):
    _, topo = named
    rank = topo.colour_rank()
    procs = build_diners(topo)
    for e in topo.edges:
        p, q = sorted(e, key=rank.__getitem__)
        assert procs[p]._earlier[q] and not procs[q]._earlier[p]
        assert procs[p].holds_fork[q] and not procs[q].holds_fork[p]
        assert procs[q].holds_request[p] and not procs[p].holds_request[q]


def test_initial_precedence_graph_is_acyclic_and_colours_minus_one_deep(named):
    name, topo = named
    procs = build_diners(topo)
    # Every fork starts dirty, so each edge points from its later end to
    # its earlier one: a chain descends the rank, hence cannot close.
    assert not any(
        proc.fork_clean[q] for proc in procs.values() for q in proc.fork_clean
    )
    assert precedence_depth(topo, procs) == COLOURS[name] - 1


def test_precedence_depth_reads_clean_dirty_and_skips_what_orders_nobody():
    topo = line(4)
    procs = build_diners(topo)  # colours 0-1-0-1: depth 1
    procs[0].fork_clean[1] = True  # 0 now precedes 1, which 2 still follows
    assert precedence_depth(topo, procs) == 2
    procs[2].fork_clean[3] = True  # ... and 2 now precedes 3
    assert precedence_depth(topo, procs) == 3
    assert precedence_depth(topo, procs, alive=lambda p: p != 1) == 1
    procs[2].holds_fork[1] = False  # fork 1-2 in flight
    assert precedence_depth(topo, procs) == 1
    procs[1].holds_fork[2] = procs[2].holds_fork[1] = True  # duplicated
    assert precedence_depth(topo, procs) == 1


def test_precedence_depth_survives_a_priority_cycle():
    topo = ring(3)
    procs = build_diners(topo)
    for p, q in ((0, 1), (1, 2), (2, 0)):  # p holds a clean fork over q
        procs[p].holds_fork[q], procs[q].holds_fork[p] = True, False
        procs[p].fork_clean[q] = True
    assert precedence_depth(topo, procs) == 2


def test_ring3_placement_is_the_node_order():
    topo = ring(3)
    procs = build_diners(topo)
    for p in topo.nodes:
        for q in topo.neighbors(p):
            assert procs[p].holds_fork[q] == (p < q)
            assert procs[p].holds_request[q] == (p > q)


def _trace_digest(seed, *, repair=False, faults=False):
    topo = ring(3)
    bus = EventBus()
    digest = hashlib.sha256()
    bus.subscribe_all(
        lambda e: digest.update(
            repr((e.step, e.kind.value, e.pid, e.detail)).encode()
        )
    )
    procs = build_diners(topo, eat_ticks=2, seed=seed, repair=repair)
    engine = MpEngine(topo, procs, seed=seed, bus=bus, patience=8)
    engine.run(2000)
    if faults:
        engine.crash_maliciously(seed % 3, 5)
        engine.run(500)
        engine.transient_fault()
        engine.run(500)
        engine.restart(seed % 3, rng=random.Random(seed))
        engine.run(1000)
    return digest.hexdigest()[:16]


def test_ring3_fixed_seed_traces_are_those_of_node_order_placement():
    """Digests recorded at the commit before the colour rank (and before
    the one-pass scheduler): three colours make rank the node order, and
    the scheduler ages events and draws from its RNG exactly as the
    two-pass one did — through a crash, a transient fault and a restart,
    with ``patience`` low enough for the fairness rule to fire."""
    assert [_trace_digest(seed) for seed in range(3)] == [
        "fa45d8281f0f1476", "0a209e1ea619700d", "62256ee55934b810",
    ]
    assert [
        _trace_digest(seed, repair=True, faults=True) for seed in range(3)
    ] == ["830d03dc21e4fe4b", "a3894d21f3ea2a18", "1a7822f038b3cfc7"]


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("n, floor", [(6, 1.3), (8, 1.7)])
def test_saturated_ring_keeps_about_half_of_its_maximum_eating(n, floor, repair):
    """Always hungry, meals of four ticks: node-order placement read
    0.84–1.33 here (one wave circling the ring); the deterministic engine
    spends most steps on deliveries, so n/2 itself is out of reach."""
    topo = ring(n)
    means = []
    for seed in range(5):
        procs = build_diners(topo, eat_ticks=4, seed=seed, repair=repair)
        engine = MpEngine(topo, procs, seed=seed)
        engine.run(1000)
        eating = 0
        for _ in range(4000):
            engine.step()
            eating += len(eating_now(procs))
            assert not neighbours_both_eating(topo, procs)
        means.append(eating / 4000)
    assert sum(means) / len(means) >= floor
