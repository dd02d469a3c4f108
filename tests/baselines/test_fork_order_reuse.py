"""One fork-ordering instance, many topologies: each run takes its forks in
its own topology's order.

The fork order is the node order, so two topologies over the same edges but
with their nodes listed in opposite orders acquire differently.  An order
cached on the algorithm instance under the topology's ``id()`` served a
dead topology's order to a new one whenever CPython recycled the id; the
runs below alternate the two node orders, collecting garbage in between so
ids do get recycled, and require every run to match a fresh instance's.
"""

import gc

from repro.baselines import ForkOrderingDiners
from repro.sim import AlwaysHungry, Engine, System, Topology

EDGES = [(i, (i + 1) % 6) for i in range(6)]


def run(algorithm, topology, seed):
    engine = Engine(System(topology, algorithm), hunger=AlwaysHungry(), seed=seed)
    engine.run(400)
    return [engine.eats_of(p) for p in range(6)], engine.system.snapshot()


def test_a_reused_instance_runs_each_topology_in_its_own_order():
    shared = ForkOrderingDiners()
    ids = set()
    for trial in range(60):
        nodes = range(6) if trial % 2 == 0 else range(5, -1, -1)
        topology = Topology(list(nodes), EDGES)
        ids.add(id(topology))
        fresh = Topology(list(nodes), EDGES)
        assert run(shared, topology, trial) == run(ForkOrderingDiners(), fresh, trial)
        del topology, fresh
        gc.collect()
    assert len(ids) < 60  # some id was recycled, so the reuse was exercised


def test_the_two_node_orders_acquire_differently():
    # Otherwise the test above could not tell one order from the other.
    forward = Topology(list(range(6)), EDGES)
    backward = Topology(list(range(5, -1, -1)), EDGES)
    assert run(ForkOrderingDiners(), forward, 1)[0] != run(
        ForkOrderingDiners(), backward, 1
    )[0]
