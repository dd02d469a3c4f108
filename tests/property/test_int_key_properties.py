"""The checker's state is one int: ``PackedCodec.key`` and its inverse.

Three things make the int-keyed explorer sound, and each is checked here
over randomized configurations — mixed ``needs``, dead *and* malicious
processes — on ring, line and grid:

* ``unkey`` inverts ``key`` field for field, and two keys are equal exactly
  when the configurations are (the visited set may hold keys alone);
* every successor key — the parent's int with only the writer's fields
  re-encoded — decodes to the object ``TransitionSystem``'s target, in the
  same ``(pid, action)`` order;
* expanding leaves the reused scratch state as it found it, so the same key
  expands to the same list again (``exit``, the one edge-writing command,
  included).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import NADiners
from repro.fastcore import FastTransitionSystem, PackedCodec
from repro.fastcore.packed import ACTION_NAMES, A_EXIT, PackedState
from repro.sim import System, grid, line, ring
from repro.verification import TransitionSystem

TOPOLOGIES = (lambda: ring(5), lambda: line(5), lambda: grid(2, 3))


def capped(topo):
    return NADiners(depth_cap=topo.diameter + 1)


@st.composite
def instances(draw):
    """``(topology, algorithm, system)`` in an arbitrary state, with up to
    two processes dead and up to two malicious."""
    topo = draw(st.sampled_from(TOPOLOGIES))()
    algo = capped(topo)
    system = System(topo, algo)
    system.randomize(random.Random(draw(st.integers(0, 2**32 - 1))))
    crashed = draw(st.lists(st.sampled_from(topo.nodes), max_size=4, unique=True))
    for pid in crashed[:2]:
        system.kill(pid)
    for pid in crashed[2:]:
        system.mark_malicious(pid)
    return topo, algo, system


def perturb(system, rng):
    """Change exactly one cell of the configuration."""
    topo = system.topology
    pid = rng.choice(topo.nodes)
    if rng.random() < 0.3:
        e = rng.choice(sorted(topo.edges, key=sorted))
        (other,) = set(e) - {system.read_edge(e)}
        system.write_edge(e, other)
        return
    variable = rng.choice(system.local_variable_names())
    old = system.read_local(pid, variable)
    domain = system.local_domain(variable)
    system.write_local(
        pid, variable, rng.choice([v for v in domain.values() if v != old])
    )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_unkey_inverts_key_field_for_field(instance):
    topo, algo, system = instance
    codec = PackedCodec(topo, algo)
    ps = codec.pack(system.snapshot())
    key = codec.key(ps)
    assert isinstance(key, int)
    back = codec.unkey(key)
    for name in PackedState.__slots__:
        assert getattr(back, name) == getattr(ps, name), name
    assert all(type(flag) is bool for flag in back.needs)
    assert codec.unpack(back) == system.snapshot()
    assert codec.key(back) == key


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_keys_equal_iff_configurations_equal(instance, seed):
    topo, algo, system = instance
    codec = PackedCodec(topo, algo)
    rng = random.Random(seed)
    before = system.snapshot()
    key = codec.key(codec.pack(before))
    # An equal configuration packed from a second object graph: equal key.
    twin = System.from_configuration(algo, before).snapshot()
    assert twin == before and codec.key(codec.pack(twin)) == key
    # One cell away — where overlapping fields would alias: different key.
    perturb(system, rng)
    after = system.snapshot()
    assert after != before
    assert codec.key(codec.pack(after)) != key
    # A status flip alone is a different configuration too.
    alive = [p for p in topo.nodes if p not in before.dead | before.malicious]
    if alive:
        system.restore(before)
        system.mark_malicious(rng.choice(alive))
        assert codec.key(codec.pack(system.snapshot())) != key


@settings(max_examples=150, deadline=None)
@given(instances())
def test_successor_keys_decode_to_the_object_targets(instance):
    topo, algo, system = instance
    config = system.snapshot()
    reference = TransitionSystem(algo, topo).successors(config)
    fts = FastTransitionSystem(algo, topo)
    codec = fts.codec
    key = codec.key(codec.pack(config))
    successors, eating = fts.successors_packed(key)
    assert [(codec.pids[p], ACTION_NAMES[a]) for p, a, _k in successors] == [
        (t.pid, t.action) for t in reference
    ]
    assert [codec.unpack(codec.unkey(k)) for _p, _a, k in successors] == [
        t.target for t in reference
    ]
    assert eating == codec.neighbors_eating(codec.pack(config))
    # The scratch is undone after every command: same key, same expansion,
    # on the same instance — also after expanding an unrelated state between.
    assert fts.successors_packed(key) == (successors, eating)
    for _p, a, k in successors:
        if a == A_EXIT:
            fts.successors_packed(k)
    assert fts.successors_packed(key) == (successors, eating)
