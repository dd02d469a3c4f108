"""Stabilization measurement (experiment E3).

Theorem 1: the paper's program converges from an *arbitrary* state to the
invariant ``I = NC ∧ ST ∧ E``.  The functions here quantify that claim:

* :func:`steps_to_predicate` — drive one system until a predicate holds and
  report how many steps it took;
* :func:`convergence_study` — repeat from many random arbitrary states
  (optionally with adversarially planted priority cycles) and summarise the
  distribution of convergence times;
* :func:`plant_priority_cycle` — construct the worst-case transient
  perturbation the program must recover from: a directed cycle in the
  priority graph plus corrupted depth values.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..core.predicates import invariant_holds
from ..core.state import VAR_DEPTH
from ..sim.configuration import Configuration
from ..sim.engine import Engine
from ..sim.hunger import AlwaysHungry, HungerPolicy
from ..sim.network import System
from ..sim.process import Algorithm
from ..sim.scheduler import Daemon, WeaklyFairDaemon
from ..sim.topology import Pid, Topology, edge
from ..sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..obs.bus import EventBus

Predicate = Callable[[Configuration], bool]


@dataclass(frozen=True)
class ConvergenceResult:
    """One convergence attempt."""

    converged: bool
    steps: Optional[int]  #: steps until the predicate held (None if never)


@dataclass(frozen=True)
class ConvergenceSummary:
    """Aggregate over many convergence attempts from random states."""

    trials: int
    converged: int
    steps: Tuple[int, ...]  #: per-trial convergence steps (converged only)

    @property
    def all_converged(self) -> bool:
        return self.converged == self.trials

    @property
    def mean_steps(self) -> float:
        return statistics.fmean(self.steps) if self.steps else math.nan

    @property
    def max_steps(self) -> int:
        return max(self.steps) if self.steps else 0

    @property
    def median_steps(self) -> float:
        return statistics.median(self.steps) if self.steps else math.nan


def steps_to_predicate(
    system: System,
    predicate: Predicate = invariant_holds,
    *,
    max_steps: int = 100_000,
    seed: int = 0,
    daemon: Daemon | None = None,
    hunger: HungerPolicy | None = None,
    check_every: int = 1,
    recorder: "TraceRecorder | None" = None,
    bus: "EventBus | None" = None,
) -> ConvergenceResult:
    """Run ``system`` until ``predicate`` holds on a snapshot."""
    engine = Engine(
        system,
        daemon if daemon is not None else WeaklyFairDaemon(),
        hunger=hunger if hunger is not None else AlwaysHungry(),
        recorder=recorder,
        bus=bus,
        seed=seed,
    )
    result = engine.run(max_steps, stop_when=predicate, check_every=check_every)
    if result.stopped:
        return ConvergenceResult(converged=True, steps=result.steps)
    if result.quiescent and predicate(result.final):
        return ConvergenceResult(converged=True, steps=result.steps)
    return ConvergenceResult(converged=False, steps=None)


def rounds_to_predicate(
    system: System,
    predicate: Predicate = invariant_holds,
    *,
    max_steps: int = 500_000,
    seed: int = 0,
    hunger: HungerPolicy | None = None,
) -> Optional[int]:
    """Asynchronous rounds until ``predicate`` holds (None if never).

    Runs under a :class:`~repro.sim.scheduler.RoundDaemon`; rounds are the
    stabilization literature's time unit — within a round every
    continuously enabled action executes at least once — so results are
    directly comparable to "converges in O(D) rounds"-style statements.
    """
    from ..sim.scheduler import RoundDaemon

    daemon = RoundDaemon()
    result = steps_to_predicate(
        system,
        predicate,
        max_steps=max_steps,
        seed=seed,
        daemon=daemon,
        hunger=hunger,
    )
    if not result.converged:
        return None
    return daemon.rounds_completed


def plant_priority_cycle(
    system: System,
    cycle: Sequence[Pid],
    *,
    corrupt_depths: bool = True,
) -> None:
    """Install a directed priority cycle along ``cycle`` (must be a closed
    walk of neighbours) and optionally zero the cycle's depth values — the
    slowest-to-detect corruption, since depth must climb past ``D`` hop by
    hop before ``exit`` can break the cycle.
    """
    n = len(cycle)
    if n < 3:
        raise ValueError("a priority cycle needs at least 3 processes")
    for i, p in enumerate(cycle):
        q = cycle[(i + 1) % n]
        if not system.topology.are_neighbors(p, q):
            raise ValueError(f"{p!r} and {q!r} are not neighbours")
        # p is the ancestor of q along the cycle: store p in the edge cell.
        system.write_edge(edge(p, q), p)
    if corrupt_depths:
        for p in cycle:
            system.write_local(p, VAR_DEPTH, 0)


def convergence_trial(
    algorithm: Algorithm, topology: Topology, rng: random.Random, *,
    plant_cycle: bool, predicate: Predicate, max_steps: int, check_every: int,
) -> ConvergenceResult:
    """One trial of :func:`convergence_study`: ``rng`` first randomizes the
    full system state (with ``plant_cycle``, a priority cycle around a
    shortest ring goes in on top), then draws the engine seed."""
    system = System(topology, algorithm)
    system.randomize(rng)
    if plant_cycle:
        cycle = _find_cycle(topology)
        if cycle is not None:
            plant_priority_cycle(system, cycle)
    return steps_to_predicate(
        system, predicate, max_steps=max_steps, seed=rng.randrange(2**31),
        check_every=check_every,
    )


def convergence_study(
    algorithm_factory: Callable[[], Algorithm],
    topology: Topology,
    *,
    trials: int = 20,
    max_steps: int = 200_000,
    seed: int = 0,
    plant_cycle: bool = False,
    predicate: Predicate = invariant_holds,
    check_every: int = 4,
) -> ConvergenceSummary:
    """Convergence times from ``trials`` random arbitrary initial states.

    Each trial randomizes the full system state (the paper's transient
    fault).  With ``plant_cycle=True`` a directed priority cycle around a
    shortest ring of the topology is additionally installed when one exists,
    forcing the depth-propagation machinery to do real work.  Trial ``t``
    draws from ``random.Random(seed * 10_007 + t)``.
    """
    results = [
        convergence_trial(
            algorithm_factory(), topology, random.Random(seed * 10_007 + trial),
            plant_cycle=plant_cycle, predicate=predicate, max_steps=max_steps,
            check_every=check_every,
        )
        for trial in range(trials)
    ]
    converged = [r for r in results if r.converged]
    return ConvergenceSummary(
        trials=trials,
        converged=len(converged),
        steps=tuple(r.steps for r in converged if r.steps is not None),
    )


def _find_cycle(topology: Topology) -> Optional[Tuple[Pid, ...]]:
    """Some simple cycle of the topology (shortest through node 0's edges),
    or None for trees."""
    # BFS from each neighbour pair of a node to find a short cycle.
    for start in topology.nodes:
        parents = {start: None}
        queue = [start]
        while queue:
            node = queue.pop(0)
            for nxt in topology.neighbors(node):
                if nxt not in parents:
                    parents[nxt] = node
                    queue.append(nxt)
                elif parents[node] != nxt and parents.get(nxt) is not node:
                    # Found a non-tree edge: build the cycle through it.
                    path_a = _path_to_root(parents, node)
                    path_b = _path_to_root(parents, nxt)
                    common = set(path_a) & set(path_b)
                    cut_a = next(i for i, p in enumerate(path_a) if p in common)
                    meet = path_a[cut_a]
                    cut_b = path_b.index(meet)
                    cycle = path_a[:cut_a + 1] + list(reversed(path_b[:cut_b]))
                    if len(cycle) >= 3:
                        return tuple(cycle)
        break  # one start suffices: the graph is connected
    return None


def _path_to_root(parents: dict, node: Pid) -> List[Pid]:
    path = [node]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path
