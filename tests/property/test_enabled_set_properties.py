"""Differential test of ``System``'s write-invalidated enabled set.

``System.all_enabled()`` re-evaluates only the processes some write marked
stale; ``System.enabled_actions(pid)`` evaluates one process from scratch.
Under random interleavings of *every* mutator the two must agree element for
element after each operation — that is the whole correctness argument for
the incremental engine, checked here across every algorithm family the
kernel runs (the paper's program, both ablations, the three baselines, the
low-atomicity transformation, and the K-state token ring) on graphs with
degree 1 to 3 and with and without triangles.

The packed store keeps its enabled set current from inside the generated
``fire`` (the command, the non-thinking and eating masks, the readers'
guard refresh) and from ``recompute`` after every other write.  Its oracle
is a store rebuilt from ``snapshot()``: the masks are not observable, so a
stale one has to show up as wrong enabled bits, and a refresh that misses
``changed`` as a process whose bits moved unannounced.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines import ChoySinghDiners, ForkOrderingDiners, HygienicDiners
from repro.core import NADiners, NoDynamicThresholdDiners, NoFixdepthDiners
from repro.fastcore import PackedSystem
from repro.lowatom import LowAtomicityAdapter
from repro.mp.kstate import KStateToken
from repro.sim import System, Topology, grid, line, ring
from repro.sim.network import ProcessStatus


def ring_with_chord():
    """A 4-cycle plus the chord 0–2: two triangles sharing an edge."""
    return Topology(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


TOPOLOGIES = (lambda: ring(5), lambda: line(5), lambda: grid(2, 3), ring_with_chord)

ALGORITHMS = (
    NADiners,
    NoFixdepthDiners,
    NoDynamicThresholdDiners,
    ChoySinghDiners,
    HygienicDiners,
    ForkOrderingDiners,
    lambda: LowAtomicityAdapter(NADiners()),
    lambda: LowAtomicityAdapter(NADiners(), refresh_whole_neighbor=False),
)

OPERATIONS = (
    "execute", "execute", "execute", "write_local", "write_edge", "havoc",
    "randomize", "restore", "kill", "mark_malicious",
)


def from_scratch(system):
    return [
        (pid, action)
        for pid in system.pids
        for action in system.enabled_actions(pid)
    ]


def apply_operation(system, name, rng, snapshots):
    pids = system.pids
    pid = rng.choice(pids)
    if name == "execute":
        enabled = system.all_enabled()
        if enabled:
            system.execute(*rng.choice(enabled))
    elif name == "write_local":
        variable = rng.choice(system.local_variable_names())
        system.write_local(pid, variable, system.local_domain(variable).sample(rng))
    elif name == "write_edge":
        e = rng.choice(sorted(system.topology.edges, key=sorted))
        system.write_edge(e, system.edge_domain_of(e).sample(rng))
    elif name == "havoc":
        if system.status(pid) is not ProcessStatus.DEAD:
            system.havoc_process(pid, rng)
    elif name == "randomize":
        system.randomize(rng, rng.sample(pids, rng.randint(1, len(pids))))
    elif name == "restore":
        system.restore(rng.choice(snapshots))
    elif name == "kill":
        system.kill(pid)
    elif name == "mark_malicious":
        if system.status(pid) is not ProcessStatus.DEAD:
            system.mark_malicious(pid)


def check_interleaving(system, operations, seed):
    rng = random.Random(seed)
    snapshots = [system.snapshot()]
    assert system.all_enabled() == from_scratch(system)
    for index in operations:
        name = OPERATIONS[index]
        apply_operation(system, name, rng, snapshots)
        expected = from_scratch(system)
        assert system.all_enabled() == expected, name
        assert system.is_quiescent() == (not expected)
        snapshots.append(system.snapshot())


operation_lists = st.lists(
    st.integers(0, len(OPERATIONS) - 1), min_size=1, max_size=40
)


@given(
    st.integers(0, len(TOPOLOGIES) - 1),
    st.integers(0, len(ALGORITHMS) - 1),
    operation_lists,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cached_enabled_set_equals_from_scratch(topology, algorithm, operations, seed):
    system = System(TOPOLOGIES[topology](), ALGORITHMS[algorithm]())
    check_interleaving(system, operations, seed)


@given(st.integers(3, 6), operation_lists, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cached_enabled_set_on_the_k_state_ring(n, operations, seed):
    # KStateToken reads its ring predecessor, so it only runs on cycles.
    system = System(ring(n), KStateToken(n + 1))
    check_interleaving(system, operations, seed)


@given(operation_lists, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_restored_scratch_system_matches_a_fresh_one(operations, seed):
    """What ``TransitionSystem`` relies on: a long-lived scratch system
    restored to a configuration answers like one built from it."""
    scratch = System(ring(5), NADiners())
    check_interleaving(scratch, operations, seed)
    rng = random.Random(seed)
    other = System(ring(5), NADiners())
    other.randomize(rng)
    other.kill(rng.choice(other.pids))
    config = other.snapshot()
    scratch.restore(config)
    fresh = System.from_configuration(NADiners(), config)
    assert [(p, a.name) for p, a in scratch.all_enabled()] == [
        (p, a.name) for p, a in fresh.all_enabled()
    ]


PACKED_ALGORITHMS = (
    NADiners, NoFixdepthDiners, NoDynamicThresholdDiners, ChoySinghDiners,
)

PACKED_OPERATIONS = (
    "fire", "fire", "fire", "write_local", "havoc", "randomize", "kill",
    "mark_malicious",
)


def apply_packed_operation(store, name, rng):
    pid = rng.choice(store.pids)
    if name == "fire":
        items = store.enabled().items()
        if items:
            store.fire(*rng.choice(items))
    elif name == "write_local":
        variable, domain = rng.choice(list(store.codec.local_domains.items()))
        store.write_local(pid, variable, domain.sample(rng))
    elif name == "havoc":
        if store.status(pid) is not ProcessStatus.DEAD:
            store.havoc_process(pid, rng)
    elif name == "randomize":
        store.randomize(rng, rng.sample(store.pids, rng.randint(1, len(store.pids))))
    elif name == "kill":
        store.kill(pid)
    elif name == "mark_malicious":
        if store.status(pid) is not ProcessStatus.DEAD:
            store.mark_malicious(pid)


@given(
    st.integers(0, len(TOPOLOGIES) - 1),
    st.integers(0, len(PACKED_ALGORITHMS) - 1),
    st.lists(st.integers(0, len(PACKED_OPERATIONS) - 1), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_packed_enabled_set_equals_a_rebuilt_store(topology, algorithm, operations, seed):
    topo, algo = TOPOLOGIES[topology](), PACKED_ALGORITHMS[algorithm]()
    store = PackedSystem(topo, algo)
    rng = random.Random(seed)
    enabled = store.enabled()
    for index in operations:
        name = PACKED_OPERATIONS[index]
        before = list(enabled.bits)
        enabled.changed.clear()
        apply_packed_operation(store, name, rng)
        # The snapshot carries dead and malicious processes as statuses.
        rebuilt = PackedSystem(topo, algo, initial=store.snapshot()).enabled()
        assert (enabled.bits, enabled.count) == (rebuilt.bits, rebuilt.count), name
        moved = {p for p, bits in enumerate(enabled.bits) if bits != before[p]}
        assert moved <= enabled.changed, name
