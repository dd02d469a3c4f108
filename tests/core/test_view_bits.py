"""The fused refresh is the OR of the rows.

``view_bits(table, cap, D)(view)`` is the object store's whole refresh of a
process: one generated frame, case-split on the process's own state, each
neighbour atom computed once.  On every configuration of line3 and ring3 it
must equal the OR of the same table's per-row guards, for every table the
repository runs — Figure 1, both ablations, choy-singh, fork-ordering and
hygienic — and a store built on it must publish what the row guards say
with crash status varied.  Which refresh a store gets is decided by one
predicate, ``lowered_table``, checked at the end.
"""

import pytest

from repro.baselines import ChoySinghDiners, ForkOrderingDiners, HygienicDiners
from repro.baselines.fork_ordering import FORK_ORDERING
from repro.baselines.hygienic import HYGIENIC
from repro.core import (
    FIGURE1,
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
)
from repro.core.figure1 import lowered_table, view_bits
from repro.lowatom import LowAtomicityAdapter
from repro.sim import ActionDef, System, line, ring
from repro.verification import enumerate_configurations

TOPOLOGIES = {"line3": line(3), "ring3": ring(3)}

#: name -> algorithm for a depth cap
ALGORITHMS = {
    "na-diners": lambda cap: NADiners(depth_cap=cap),
    "no-fixdepth": lambda cap: NoFixdepthDiners(depth_cap=cap),
    "no-threshold": lambda cap: NoDynamicThresholdDiners(depth_cap=cap),
    "choy-singh": lambda cap: ChoySinghDiners(depth_cap=cap),
    "fork-ordering": lambda cap: ForkOrderingDiners(),
    "hygienic": lambda cap: HygienicDiners(),
}


def statuses(topo, i):
    """A crash pattern for the ``i``-th configuration: all alive, one dead,
    one malicious, or one of each."""
    first, last = topo.nodes[0], topo.nodes[-1]
    return [((), ()), ((first,), ()), ((), (last,)), ((first,), (last,))][i % 4]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bits_is_the_or_of_the_row_guards_on_every_state(topology, algorithm):
    topo = TOPOLOGIES[topology]
    algo = ALGORITHMS[algorithm](topo.diameter + 1)
    lowered = lowered_table(algo)
    assert lowered is not None
    bits = view_bits(*lowered)
    assert algo.enabled_bits() is bits
    guards = [(1 << a, action.guard) for a, action in enumerate(algo.actions())]
    system = System(topo, algo)
    index = {pid: i for i, pid in enumerate(topo.nodes)}
    for i, config in enumerate(enumerate_configurations(algo, topo)):
        dead, malicious = statuses(topo, i)
        system.restore(config.replace(dead=dead, malicious=malicious))
        published = system.enabled().bits
        for pid in topo.nodes:
            view = system.view(pid)
            rows = sum(bit for bit, guard in guards if guard(view))
            assert bits(view) == rows, (config, pid)
            live = pid not in dead and pid not in malicious
            assert published[index[pid]] == (rows if live else 0), (config, pid)


def test_every_row_of_every_table_is_enabled_somewhere():
    # The walk above compares bit patterns; this keeps it from passing on
    # tables whose rows never fire at all.
    topo = ring(3)
    for make in ALGORITHMS.values():
        algo = make(topo.diameter + 1)
        bits = algo.enabled_bits()
        system = System(topo, algo)
        seen = 0
        for config in enumerate_configurations(algo, topo):
            system.restore(config)
            for pid in topo.nodes:
                seen |= bits(system.view(pid))
        assert seen == (1 << len(algo.actions())) - 1, algo.name


def test_only_an_algorithm_that_runs_its_lowering_gets_the_fused_refresh():
    assert NADiners().enabled_bits() is view_bits(FIGURE1, None, None)
    assert ForkOrderingDiners().enabled_bits() is view_bits(FORK_ORDERING, None, None)
    assert HygienicDiners().enabled_bits() is view_bits(HYGIENIC, None, None)

    wrapped = NADiners()
    wrapped._actions = tuple(
        ActionDef(a.name, lambda view, g=a.guard: g(view), a.command)
        for a in wrapped._actions
    )
    for algorithm in (
        wrapped,
        LowAtomicityAdapter(NADiners()),
        LowAtomicityAdapter(ForkOrderingDiners()),
    ):
        assert lowered_table(algorithm) is None
        assert algorithm.enabled_bits() is None
