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
  included);
* the closure loop (``int_key_program(codec, "level")``), which expands
  without listing, queues exactly the successors ``successors_packed``
  lists that are new, in its order, counts every one of them, and counts a
  state with two neighbours eating exactly when the decoded key has an
  eating pair — for Figure 1 and both ablations, whatever the visited set
  already holds; and the bitmap loop (``"bitmap"``), which finds a
  successor's rank from its parent's, does the same as the set loop and
  marks exactly the ranks of the keys it queues.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    eating_pairs,
)
from repro.fastcore import FastTransitionSystem, PackedCodec
from repro.fastcore.packed import ACTION_NAMES, A_EXIT, PackedState
from repro.fastcore.table import int_key_program
from repro.sim import System, grid, line, ring, star
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
    successors = fts.successors_packed(key)
    assert [(codec.pids[p], ACTION_NAMES[a]) for p, a, _k in successors] == [
        (t.pid, t.action) for t in reference
    ]
    assert [codec.unpack(codec.unkey(k)) for _p, _a, k in successors] == [
        t.target for t in reference
    ]
    # The scratch is undone after every command: same key, same expansion,
    # on the same instance — also after expanding an unrelated state between.
    assert fts.successors_packed(key) == successors
    for _p, a, k in successors:
        if a == A_EXIT:
            fts.successors_packed(k)
    assert fts.successors_packed(key) == successors


@st.composite
def keyed_states(draw):
    """``(fts, key)``: Figure 1 or an ablation on a line, ring or star, in an
    arbitrary state with up to two processes dead."""
    topo = draw(st.sampled_from((ring(4), line(5), star(4))))
    program = draw(
        st.sampled_from((NADiners, NoFixdepthDiners, NoDynamicThresholdDiners))
    )
    algo = program(depth_cap=topo.diameter + 1)
    system = System(topo, algo)
    system.randomize(random.Random(draw(st.integers(0, 2**32 - 1))))
    for pid in draw(st.lists(st.sampled_from(topo.nodes), max_size=2, unique=True)):
        system.kill(pid)
    fts = FastTransitionSystem(algo, topo)
    return fts, fts.codec.key(fts.codec.pack(system.snapshot()))


@settings(max_examples=150, deadline=None)
@given(keyed_states(), st.data())
def test_level_queues_the_new_successors_in_expand_order(instance, data):
    fts, key = instance
    successors = fts.successors_packed(key)
    eating = bool(eating_pairs(fts.codec.unkey(key)))
    targets = [t for _p, _a, t in successors]
    level = int_key_program(fts.codec, "level").functions["level"]
    bitmap = int_key_program(fts.codec, "bitmap").functions["bitmap"]
    layout = fts.codec.layout

    def marked(keys):
        marks = bytearray(-(-layout.size // 8))
        for r in map(layout.rank, keys):
            marks[r >> 3] |= 1 << (r & 7)
        return marks

    # Seen before: the key itself, then also some of its successors.
    seeded = data.draw(st.sets(st.sampled_from(targets))) if targets else set()
    for before in ({key}, {key} | seeded):
        seen, found = set(before), []
        closure = len(before | set(targets))
        assert level([key], seen, found, closure) == (len(successors), int(eating))
        assert found == [t for t in dict.fromkeys(targets) if t not in before]
        assert seen == before | set(targets)
        # The bitmap loop: the same level, by rank.
        marks, queued, ranks = marked(before), [], []
        assert bitmap(
            [key], [layout.rank(key)], marks, queued, ranks, len(before), closure
        ) == (len(successors), int(eating), closure)
        assert queued == found
        assert ranks == [layout.rank(t) for t in found]
        assert marks == marked(seen)
