"""Failure-locality measurement (experiments E2 and E6).

Failure locality *m* (Choy & Singh, the paper's §1) means: every process
affected by a crash lies within distance *m* of some crashed process.  For
diners, "affected" operationally means *starving* — the process continuously
wants to eat after the crash, yet never eats again.

:func:`measure_failure_locality` runs the canonical worst-case scenario:

1. every process is continuously hungry;
2. the run warms up until each victim is **eating** (a crashed eater is the
   strongest blocker: its neighbours can never satisfy their ``enter``
   guards again), then the victim crashes — benignly or maliciously;
3. after a settling period, eats are counted over a long observation window;
   a live process with zero eats in the window is starving.

The report's :attr:`~LocalityReport.starvation_radius` is the maximum, over
starving processes, of the distance to the nearest crash site.  The paper's
claim (Theorem 2, optimal locality): for its program the radius never
exceeds 2, on any topology, while the chain-prone baselines grow with the
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..core.state import VAR_STATE, DinerState
from ..sim.engine import Engine
from ..sim.errors import SimulationError
from ..sim.faults import BenignCrash, MaliciousCrash
from ..sim.hunger import AlwaysHungry
from ..sim.network import System
from ..sim.process import Algorithm
from ..sim.scheduler import Daemon, WeaklyFairDaemon
from ..sim.topology import Pid, Topology
from ..sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..obs.bus import EventBus


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of one failure-locality scenario."""

    algorithm: str
    topology_size: int
    crash_sites: Tuple[Pid, ...]
    #: Live processes with zero eats in the observation window.
    starving: FrozenSet[Pid]
    #: max over starving processes of distance to the nearest crash site;
    #: None when nothing starves.
    starvation_radius: Optional[int]
    #: eats in the observation window per live process.
    eats: Mapping[Pid, int]
    #: observation window length in engine steps.
    window: int

    def eats_by_distance(self, topology: Topology) -> Dict[int, Tuple[int, int]]:
        """``distance -> (number of live processes, total eats)`` grouping."""
        grouped: Dict[int, Tuple[int, int]] = {}
        for pid, count in self.eats.items():
            d = min(topology.distance(pid, c) for c in self.crash_sites)
            n, total = grouped.get(d, (0, 0))
            grouped[d] = (n + 1, total + count)
        return dict(sorted(grouped.items()))

    def all_beyond_radius_eat(self, topology: Topology, radius: int = 2) -> bool:
        """True when every live process strictly beyond ``radius`` ate."""
        for pid, count in self.eats.items():
            d = min(topology.distance(pid, c) for c in self.crash_sites)
            if d > radius and count == 0:
                return False
        return True


def run_until_eating(engine: Engine, pid: Pid, max_steps: int) -> None:
    """Advance ``engine`` until ``pid`` is eating.

    Raises :class:`SimulationError` if that does not happen within
    ``max_steps`` — liveness itself would then be broken.
    """
    for _ in range(max_steps):
        if engine.system.read_local(pid, VAR_STATE) == DinerState.EATING.value:
            return
        if not engine.step():
            break
    if engine.system.read_local(pid, VAR_STATE) != DinerState.EATING.value:
        raise SimulationError(
            f"{pid!r} did not reach the eating state within {max_steps} steps"
        )


def measure_failure_locality(
    algorithm: Algorithm,
    topology: Topology,
    victims: Sequence[Pid],
    *,
    malicious_steps: int | None = None,
    crash_while_eating: bool = True,
    warmup_steps: int = 20_000,
    settle_steps: int = 5_000,
    window: int = 40_000,
    seed: int = 0,
    daemon_factory: Callable[[], Daemon] | None = None,
    recorder: "TraceRecorder | None" = None,
    bus: "EventBus | None" = None,
) -> LocalityReport:
    """Run the worst-case crash scenario and report who starves.

    Parameters
    ----------
    algorithm:
        Any diners algorithm built on this repository's conventions.
    victims:
        Processes to crash (one at a time, each while eating when
        ``crash_while_eating``).
    malicious_steps:
        ``None`` crashes benignly; an integer crashes maliciously with that
        many arbitrary steps before halting.
    warmup_steps / settle_steps / window:
        Budget to reach the eating state per victim; steps allowed for the
        system to settle after the crashes; and the observation window over
        which eats are counted.
    """
    system = System(topology, algorithm)
    daemon = daemon_factory() if daemon_factory is not None else WeaklyFairDaemon()
    engine = Engine(
        system, daemon, hunger=AlwaysHungry(), recorder=recorder, bus=bus,
        seed=seed,
    )

    for victim in victims:
        if crash_while_eating:
            run_until_eating(engine, victim, warmup_steps)
        if malicious_steps is None:
            engine.inject(BenignCrash(victim))
        else:
            engine.inject(MaliciousCrash(victim, malicious_steps=malicious_steps))

    engine.run(settle_steps)
    baseline = {pid: engine.eats_of(pid) for pid in topology.nodes}
    engine.run(window)

    eats: Dict[Pid, int] = {
        pid: engine.eats_of(pid) - baseline[pid]
        for pid in topology.nodes
        if system.is_live(pid)
    }

    starving = frozenset(pid for pid, count in eats.items() if count == 0)
    radius: Optional[int] = None
    if starving:
        radius = max(
            min(topology.distance(pid, c) for c in victims) for pid in starving
        )
    return LocalityReport(
        algorithm=algorithm.name,
        topology_size=len(topology),
        crash_sites=tuple(victims),
        starving=starving,
        starvation_radius=radius,
        eats=eats,
        window=window,
    )


def frozen_chain_scenario(
    algorithm: Algorithm,
    topology: Topology,
    head: Pid | None = None,
) -> System:
    """The Choy–Singh worst case, constructed directly.

    The head of the node order crashes while eating and *every* other
    process is already hungry, with the priority chain (the node-order
    initial orientation) pointing away from the crash.  Every process's
    ``enter`` is blocked by a hungry ancestor, so without the dynamic
    threshold the whole chain freezes; with it, only the 2-ball around the
    crash stays affected.  Random warmup rarely aligns hunger and priorities
    like this, which is why the worst-case claim needs the construction.

    Returns a ready-to-run system (pair with ``Engine`` + ``AlwaysHungry``).
    """
    system = System(topology, algorithm)
    head = topology.nodes[0] if head is None else head
    system.write_local(head, "state", DinerState.EATING.value)
    system.kill(head)
    for p in topology.nodes:
        if p == head:
            continue
        system.write_local(p, "state", DinerState.HUNGRY.value)
        system.write_local(p, "needs", True)
    return system


def frozen_chain_radius(
    algorithm: Algorithm,
    topology: Topology,
    *,
    window: int = 40_000,
    seed: int = 0,
) -> int:
    """Starvation radius of :func:`frozen_chain_scenario` after ``window``
    steps (0 when nothing starves)."""
    system = frozen_chain_scenario(algorithm, topology)
    head = topology.nodes[0]
    engine = Engine(system, WeaklyFairDaemon(), hunger=AlwaysHungry(), seed=seed)
    engine.run(window)
    starving = [
        p
        for p in topology.nodes
        if system.is_live(p) and engine.eats_of(p) == 0
    ]
    return max((topology.distance(head, p) for p in starving), default=0)
