"""The action table's two packed programs against the hand-written reference.

``tests/core/figure1_oracle.py`` — Figure 1 transcribed by hand, not derived
from the table — is the oracle (through ``TransitionSystem``), so the packed
lowerings are compared with an independent transcription rather than with a
sibling lowering.  On random *arbitrary* states — every ``status`` value, every
in-domain depth, every edge orientation — of graphs up to degree 3, for the
paper's program and each ablation that is a table edit (``choy-singh``
inherits the no-fixdepth table, so it is that program):

* the int-key program's successors equal the object model's transition for
  transition, in order, and its closure loop's eating count is the E audit;
* the vector program's enabled bits name the same transitions, and each of
  its fires produces the same target and leaves the enabled bits a
  from-scratch evaluation of that target gives.

Plus what the generated code owes its users: one ``compile`` however many
stores are built, source a traceback can show, the typed refusal.
"""

import linecache
import random
import re
import traceback

import pytest

from repro.baselines import ChoySinghDiners
from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    WrongDiameterDiners,
    e_holds,
    eating_pairs,
)
from repro.core import figure1
from repro.core.figure1 import FIGURE1
from repro.fastcore import FastTransitionSystem, PackedSystem
from repro.fastcore.packed import PackedCodec, PackedState
from repro.fastcore.table import int_key_program, vector_program
from repro.sim import binary_tree, complete, grid, line, ring, star
from repro.sim.network import EnabledSet
from repro.verification import TransitionSystem

from ..core.figure1_oracle import oracle_for

TOPOLOGIES = {
    "line5": lambda: line(5),
    "ring5": lambda: ring(5),
    "star4": lambda: star(4),
    "complete4": lambda: complete(4),
    "tree2": lambda: binary_tree(2),
    "grid2x3": lambda: grid(2, 3),
}

#: name -> algorithm for a topology, depth capped (``None``: uncapped)
ALGORITHMS = {
    "na-diners": lambda topo, cap: NADiners(depth_cap=cap),
    "wrong-D": lambda topo, cap: WrongDiameterDiners(
        max(0, topo.diameter - 1), depth_cap=cap
    ),
    "no-fixdepth": lambda topo, cap: NoFixdepthDiners(depth_cap=cap),
    "no-threshold": lambda topo, cap: NoDynamicThresholdDiners(depth_cap=cap),
}


def arbitrary_state(codec, rng):
    """A uniformly arbitrary packed state of ``codec``'s domain."""
    n = codec.n
    depths = list(codec.local_domains["depth"].values())
    anc, desc = [0] * n, [0] * n
    for _e, i, j, _dom in codec.edge_order:
        a, d = (i, j) if rng.random() < 0.5 else (j, i)
        anc[d] |= 1 << a
        desc[a] |= 1 << d
    return PackedState(
        [rng.randrange(3) for _ in range(n)],
        [rng.random() < 0.5 for _ in range(n)],
        [rng.choice(depths) for _ in range(n)],
        [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)],
        anc,
        desc,
    )


def bound(codec, ps):
    """The vector program bound over ``ps`` (mutated in place by ``fire``),
    every enabled bit evaluated from scratch: ``(fire, enabled)``."""
    program = vector_program(codec.table, codec.cap, codec.d_const)
    enabled = EnabledSet(codec.pids, codec.algorithm.actions())
    readers = tuple((p,) + row for p, row in enumerate(codec.nbrs))
    fire, recompute, _set_state = program.functions["bind"](
        ps.state, ps.needs, ps.depth, ps.status, ps.anc, ps.desc,
        codec.nbrs, readers, enabled,
    )
    recompute(range(codec.n))
    assert enabled.count == sum(b.bit_count() for b in enabled.bits)
    return fire, enabled


def check_vector_program(codec, ps, reference):
    names = codec.table.names
    items = bound(codec, ps)[1].items()
    assert [(codec.pids[p], names[a]) for p, a in items] == [
        (t.pid, t.action) for t in reference
    ]
    for (p, a), transition in zip(items, reference):
        after = ps.copy()
        fire, enabled = bound(codec, after)
        fire(p, a)
        assert codec.unpack(after) == transition.target
        # The masks and the readers' refresh left the bits a from-scratch
        # evaluation of the target gives.
        scratch = bound(codec, after.copy())[1]
        assert (enabled.bits, enabled.count) == (scratch.bits, scratch.count)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_generated_programs_equal_the_object_model(topology, algorithm):
    topo = TOPOLOGIES[topology]()
    algo = ALGORITHMS[algorithm](topo, topo.diameter + 1)
    fts = FastTransitionSystem(algo, topo)
    codec = fts.codec
    oracle = TransitionSystem(oracle_for(algo), topo)
    names = codec.table.names
    assert names == tuple(a.name for a in algo.actions())
    rng = random.Random(f"{topology}/{algorithm}")
    level = int_key_program(codec, "level").functions["level"]
    fired = set()
    for _ in range(2000):
        ps = arbitrary_state(codec, rng)
        config = codec.unpack(ps)
        reference = oracle.successors(config)
        key = codec.key(ps)
        successors = fts.successors_packed(key)
        fanned, eating = level([key], {key}, [], 1)
        assert fanned == len(successors)
        assert [(codec.pids[p], names[a]) for p, a, _k in successors] == [
            (t.pid, t.action) for t in reference
        ]
        assert [codec.unpack(codec.unkey(k)) for _p, _a, k in successors] == [
            t.target for t in reference
        ]
        # The audit counts any two eating neighbours; predicate E excuses a
        # pair that is faulty on both ends, so it can only be the stricter.
        assert eating == bool(eating_pairs(ps))
        excused = any(ps.status[i] and ps.status[j] for i, j in codec.layout.edges)
        assert eating == (not e_holds(config)) or (excused and eating)
        check_vector_program(codec, ps, reference)
        fired.update(t.action for t in reference)
    assert fired == set(names)  # every row was exercised, not just compiled


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", ["ring5", "star4"])
def test_vector_program_uncapped(topology, algorithm):
    # What simulations run: no depth cap, so no int key and no clamp line.
    topo = TOPOLOGIES[topology]()
    algo = ALGORITHMS[algorithm](topo, None)
    codec = PackedCodec(topo, algo)
    oracle = TransitionSystem(oracle_for(algo), topo)
    rng = random.Random(f"{topology}/{algorithm}/uncapped")
    for _ in range(500):
        ps = arbitrary_state(codec, rng)
        check_vector_program(codec, ps, oracle.successors(codec.unpack(ps)))


def test_ablations_are_table_edits():
    # ... declared once, on the variant class; the codec reads them there.
    assert PackedCodec(ring(4), NADiners()).table is FIGURE1
    assert PackedCodec(ring(4), WrongDiameterDiners(1)).table is FIGURE1
    assert NoDynamicThresholdDiners.table.names == (
        "join", "enter", "exit", "fixdepth",
    )
    no_fixdepth = PackedCodec(ring(4), ChoySinghDiners()).table
    assert no_fixdepth is NoFixdepthDiners.table
    assert no_fixdepth.names == ("join", "leave", "enter", "exit")
    assert no_fixdepth.rows[3].when == (("state == E",),)
    # Without fixdepth and `depth > D` nothing reads a depth, so the
    # generated expansion decodes none (it still writes `depth := 0`).
    source = FastTransitionSystem(NoFixdepthDiners(depth_cap=3), ring(4)).source
    assert "s0 = k >> " in source and not re.search(r"\bd\d+ = ", source)


def test_a_thousand_stores_compile_once(monkeypatch):
    compiles = []

    def counting(source, filename, mode):
        if "vector" in filename:  # building an algorithm may compile its view
            compiles.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(figure1, "compile", counting, raising=False)
    vector_program.cache_clear()
    stores = [PackedSystem(ring(12), NADiners()) for _ in range(100)]
    assert len(compiles) == 1
    assert len({store.fire.__code__ for store in stores}) == 1
    # A different cap, D or table is a different program.
    PackedSystem(ring(12), NADiners(depth_cap=7))
    PackedSystem(ring(10), NADiners())
    PackedSystem(ring(12), NoFixdepthDiners())
    assert len(compiles) == 4


def test_generated_source_is_what_a_traceback_shows():
    topo = line(4)
    fts = FastTransitionSystem(NADiners(depth_cap=4, diameter_override=3), topo)
    filename = fts._expand.__code__.co_filename
    for part in (repr(topo), "na-diners", "cap=4", "D=3"):
        assert part in filename
    assert "".join(linecache.getlines(filename)) == fts.source
    linecache.checkcache()  # a synthetic name must survive invalidation
    with pytest.raises(TypeError) as caught:
        fts.successors_packed("not a key")
    shown = "".join(traceback.format_exception(caught.value))
    assert filename in shown and "s0 = k >> " in shown
    store = PackedSystem(topo, NADiners())
    assert "def bind(" in store.source and "def fire(" in store.source
    assert linecache.getlines(store.fire.__code__.co_filename)
