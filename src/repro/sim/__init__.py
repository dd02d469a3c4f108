"""Guarded-command shared-memory simulation kernel.

This package implements the computation model of §2 of the paper: processes
with local variables and guarded actions, shared per-edge variables, weakly
fair maximal interleavings, and the fault machinery (benign crashes,
malicious crashes, transient faults) the tolerance claims are stated over.

Typical usage::

    from repro.sim import System, Engine, WeaklyFairDaemon, ring
    from repro.core import NADiners

    system = System(ring(8), NADiners())
    engine = Engine(system, WeaklyFairDaemon(), hunger=AlwaysHungry(), seed=1)
    result = engine.run(10_000)
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".configuration": "Configuration",
    ".domains": "BoolDomain Domain FiniteDomain IntRange SaturatingInt",
    ".engine": "Engine RunResult",
    ".errors": (
        "DeadProcessError DomainError FaultPlanError NotNeighborsError "
        "SchedulingError SimulationError StateSpaceExceededError TopologyError "
        "UnknownProcessError UnknownVariableError"
    ),
    ".faults": (
        "BenignCrash FaultEvent FaultPlan MaliciousCrash TransientFault"
    ),
    ".hunger": (
        "AlwaysHungry HungerPolicy NeverHungry ProbabilisticHunger "
        "ScriptedHunger SelectiveHunger"
    ),
    ".network": "ProcessStatus System",
    ".process": "ActionDef Algorithm ProcessView",
    ".scheduler": (
        "AdversarialDaemon AdversaryStrategy Daemon RoundDaemon "
        "RoundRobinDaemon StrategyDaemon WeaklyFairDaemon starve_target"
    ),
    ".topology": (
        "Edge Pid Topology binary_tree complete edge figure2 from_mapping "
        "from_spec grid line hypercube random_connected ring star torus"
    ),
    ".serialize": "ConfigurationDiff diff_configurations from_json to_json",
    ".trace": "EventKind TraceEvent TraceRecorder",
})
