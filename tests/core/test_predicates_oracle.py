"""The packed predicates against the object-model oracle, answer for answer.

``tests/core/predicates_oracle.py`` holds the §3 predicates as they were
written over ``Configuration`` objects — a DFS per question.  Every public
name of :mod:`repro.core.predicates` must give the oracle's answer: per-pid
``l:p`` (``inf`` included), the ``invariant_report`` dict, the red set's
pids, and the rest.

* Exhaustive: every state of the checker's full space of line3 and ring3
  — read as ``codec.unkey(k)``, the way ``repro check`` reads it — under
  the literal and the corrected threshold, with no process dead and with
  each choice of one or two dead; and of star3 with its centre dead.  The
  oracle's separate walks (chains, the stably shallow set — shallowness
  and the closure over it — NC, E, RD) are compared here, and ``I`` as the
  proof reads it; every public function, below.
* Hypothesis: arbitrary states of larger graphs with up to two dead and two
  malicious processes, passed as a ``Configuration`` (the crossing through
  ``PackedCodec.pack``) and as its ``PackedState``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.predicates as packed
from repro.core import NADiners
from repro.fastcore import FastTransitionSystem, PackedCodec
from repro.sim import from_spec, line, ring, star

from ..property.test_predicates_properties import arbitrary_system
from . import predicates_oracle as oracle

THRESHOLDED = ("shallow_set", "stably_shallow_set", "st_holds",
               "invariant_holds", "invariant_report")
PLAIN = ("priority_edges", "nc_holds", "eating_pairs", "e_holds",
         "red_set", "green_set")


def _pids(answer, names):
    """``answer`` with process indices replaced by ``names``."""
    if isinstance(answer, frozenset):
        return frozenset(_pids(x, names) for x in answer)
    if isinstance(answer, (tuple, list)):
        return type(answer)(_pids(x, names) for x in answer)
    if isinstance(answer, bool) or not isinstance(answer, int):
        return answer
    return names[answer]


def assert_agrees(config, state, thresholds):
    """Every public predicate answers on ``state`` — ``config`` itself or
    its ``PackedState`` — what the oracle answers on ``config``."""
    names = config.topology.nodes
    if state is config:
        mapped = lambda answer: answer  # noqa: E731
    else:
        mapped = lambda answer: _pids(answer, names)  # noqa: E731
    for name in PLAIN:
        got = mapped(getattr(packed, name)(state))
        assert got == getattr(oracle, name)(config), name
    for i, pid in enumerate(names):
        index = pid if state is config else i
        got = packed.longest_live_ancestor_chain(state, index)
        assert got == oracle.longest_live_ancestor_chain(config, pid), pid
        for t in thresholds:
            got = packed.is_shallow(state, index, t)
            assert got == oracle.is_shallow(config, pid, t), (pid, t)
    for t in thresholds:
        for name in THRESHOLDED:
            got = mapped(getattr(packed, name)(state, t))
            assert got == getattr(oracle, name)(config, t), (name, t)


def walks(module, state, pids, thresholds):
    """What the oracle computes by separate walks, asked of ``module``."""
    return (
        module.priority_edges(state),
        module.eating_pairs(state),
        module.red_set(state),
        module.nc_holds(state),
        module.e_holds(state),
        [module.longest_live_ancestor_chain(state, p) for p in pids],
        [module.stably_shallow_set(state, t) for t in thresholds],
    )


@pytest.mark.parametrize(
    "spec, dead_sets",
    [
        ("line:3", "all"),
        ("ring:3", "all"),
        # star3 is 165 888 states a dead set: the centre dead, as in E9
        ("star:3", [(0,)]),
    ],
)
def test_every_state_agrees_with_the_oracle(spec, dead_sets):
    topo = from_spec(spec)
    n = len(topo)
    assert topo.nodes == tuple(range(n))  # a process's index is its pid
    thresholds = sorted({topo.diameter, topo.longest_simple_path()})
    cap = thresholds[-1] + 1  # depth > D is one class for every D below
    fts = FastTransitionSystem(NADiners(depth_cap=cap), topo)
    codec = fts.codec
    if dead_sets == "all":
        dead_sets = [d for k in range(3) for d in itertools.combinations(topo.nodes, k)]
    for dead in dead_sets:
        for k in fts.enumerate_keys(dead=dead):
            ps = codec.unkey(k)
            config = codec.unpack(ps)
            expected = walks(oracle, config, topo.nodes, thresholds)
            assert walks(packed, ps, topo.nodes, thresholds) == expected
            # I as the proof reads it, against the oracle's own composition
            _edges, _pairs, _red, nc, e, _chains, stably_sets = expected
            for t, stably in zip(thresholds, stably_sets):
                assert packed.invariant_holds(ps, t) == (
                    nc and e and len(stably) == n
                )


def test_literal_thresholds_default_to_the_diameter():
    # None means the diameter: the topology's for a Configuration, the one
    # the masks describe for a PackedState.
    for topo in (line(4), ring(5), star(3), from_spec("grid:3:3")):
        config = arbitrary_system(lambda _n: topo, 0, 5, 1).snapshot()
        ps = PackedCodec(topo, NADiners()).pack(config)
        assert packed.invariant_report(ps) == oracle.invariant_report(config)
        assert packed.invariant_report(config) == oracle.invariant_report(config)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["ring:5", "line:5", "grid:3:3", "complete:4"]),
    st.integers(0, 10_000),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_arbitrary_states_agree_with_the_oracle(spec, seed, dead, malicious):
    topo = from_spec(spec)
    system = arbitrary_system(lambda _n: topo, 0, seed, dead, malicious)
    config = system.snapshot()
    thresholds = (None, topo.diameter, topo.longest_simple_path())
    assert_agrees(config, config, thresholds)
    assert_agrees(config, PackedCodec(topo, NADiners()).pack(config), thresholds)
