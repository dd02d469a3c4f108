"""Shards: the campaign's unit of work, and the handlers that execute them.

A :class:`Shard` is a fully self-describing ``(kind, params, seed)`` tuple.
Params are plain JSON values (topology *specs*, algorithm *names*, fault
*descriptions* — never live objects), so a shard crosses process boundaries
as cheaply as a dict and its identity (:func:`repro.campaign.record.shard_key`)
is a pure function of its definition.

Every kind (``sim``, ``throughput``, ``stabilize``, ``locality``,
``malicious``, ``masking``) is one randomized trial, seeded from the
shard's own ``seed`` through a private ``random.Random``.

Handlers are module-level functions (multiprocessing needs to pickle them by
reference) and must return JSON-serialisable dicts: these become the
``result`` field of the trial's JSONL record.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from ..core import e_holds, invariant_holds, nc_holds
from ..sim import (
    AlwaysHungry,
    BenignCrash,
    Engine,
    FaultPlan,
    MaliciousCrash,
    System,
    from_spec,
)
from .algorithms import make_algorithm
from .record import TrialRecord, shard_key


@dataclass(frozen=True)
class Shard:
    """One self-describing unit of campaign work."""

    kind: str
    params: Mapping[str, Any]
    seed: int

    @property
    def key(self) -> str:
        return shard_key(self.kind, self.params, self.seed)


def derive_seed(base: int, index: int) -> int:
    """The canonical per-trial seed schedule of a campaign.

    A fixed affine mix keeps trial seeds deterministic in (base, index) while
    spreading consecutive indices far apart in seed space.
    """
    return (base * 1_000_003 + index * 7_919 + 0x5EED) & 0x7FFF_FFFF


# ------------------------------------------------------------ sim handlers


def _fault_plan(params: Mapping[str, Any], topology) -> Optional[FaultPlan]:
    """Build a fault plan from a shard's JSON fault description.

    ``{"victim": <node index>, "at_step": s, "malicious_steps": m}`` — ``m``
    of 0 (or absent) is a benign crash; positive ``m`` a malicious one.
    """
    fault = params.get("fault")
    if not fault:
        return None
    victim = topology.nodes[fault["victim"]]
    at_step = fault.get("at_step", 0)
    malicious_steps = fault.get("malicious_steps", 0)
    if malicious_steps > 0:
        event = MaliciousCrash(victim, at_step=at_step, malicious_steps=malicious_steps)
    else:
        event = BenignCrash(victim, at_step=at_step)
    return FaultPlan([event])


def _run_sim(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One sweep trial: run to the step budget, report meals + safety.

    ``params["backend"] == "fast"`` swaps the object model for the packed
    store; the same engine draws the same numbers over either, so the record
    is identical and a resumed campaign may freely mix backends across
    shards.
    """
    from ..fastcore import make_engine  # optional subpackage: not at import

    topology = from_spec(params["topology"])
    engine = make_engine(
        topology,
        make_algorithm(params["algorithm"]),
        backend=params.get("backend", "object"),
        hunger=AlwaysHungry(),
        faults=_fault_plan(params, topology),
        seed=seed,
    )
    result = engine.run(params["steps"])
    eats = [engine.eats_of(p) for p in topology.nodes]
    total = sum(eats)
    live = [engine.eats_of(p) for p in topology.nodes if engine.system.is_live(p)]
    square_sum = sum(v * v for v in live)
    jain = (sum(live) ** 2) / (len(live) * square_sum) if square_sum else 0.0
    return {
        "steps": result.steps,
        "eats": eats,
        "total_eats": total,
        "per_1000": round(1000.0 * total / result.steps, 6) if result.steps else 0.0,
        "jain": round(jain, 6),
        "min_live_eats": min(live) if live else 0,
        "safety_ok": e_holds(engine.snapshot()),
    }


def _run_throughput(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Fault-free throughput/fairness trial (suite section E4)."""
    from ..analysis.metrics import throughput_report

    topology = from_spec(params["topology"])
    system = System(topology, make_algorithm(params["algorithm"]))
    engine = Engine(system, hunger=AlwaysHungry(), seed=seed)
    report = throughput_report(engine, params["window"])
    return {
        "per_1000": round(report.per_1000_steps, 6),
        "jain": round(report.jain_index, 6),
        "min_eats": report.min_eats,
        "max_eats": report.max_eats,
        "total": report.total,
    }


def _run_stabilize(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One trial of :func:`~repro.analysis.stabilization.convergence_study`
    (E3), the shard seed being that trial's."""
    from ..analysis.stabilization import convergence_trial

    result = convergence_trial(
        make_algorithm(params["algorithm"]),
        from_spec(params["topology"]),
        random.Random(seed),
        plant_cycle=bool(params.get("plant_cycle")),
        predicate=nc_holds if params.get("predicate") == "nc" else invariant_holds,
        max_steps=params["max_steps"],
        check_every=params.get("check_every", 4),
    )
    return {"converged": result.converged, "steps": result.steps}


def _run_locality(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One failure-locality scenario (E2/E6)."""
    from ..analysis.locality import measure_failure_locality

    topology = from_spec(params["topology"])
    report = measure_failure_locality(
        make_algorithm(params["algorithm"]),
        topology,
        [topology.nodes[i] for i in params["victims"]],
        malicious_steps=params.get("malicious_steps"),
        warmup_steps=params["warmup"],
        settle_steps=params["settle"],
        window=params["window"],
        seed=seed,
    )
    order = {p: i for i, p in enumerate(topology.nodes)}
    return {
        "radius": report.starvation_radius,
        "starving": sorted(order[p] for p in report.starving),
        "eats": [report.eats.get(p, 0) for p in topology.nodes],
    }


def _run_malicious(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Malicious-crash recovery + containment trial (suite section)."""
    topology = from_spec(params["topology"])
    system = System(topology, make_algorithm(params["algorithm"]))
    engine = Engine(system, hunger=AlwaysHungry(), seed=seed)
    malice = params["malicious_steps"]
    engine.run(params.get("warmup", 1000))
    engine.inject(MaliciousCrash(topology.nodes[0], malicious_steps=malice))
    engine.run(malice + 1)
    result = engine.run(
        params.get("recover_budget", 500_000), stop_when=invariant_holds, check_every=8
    )
    recovered = result.stopped or invariant_holds(system.snapshot())
    before = {p: engine.eats_of(p) for p in topology.nodes}
    engine.run(params["window"])
    far_ok = all(
        engine.eats_of(p) > before[p]
        for p in topology.nodes
        if system.is_live(p) and topology.distance(topology.nodes[0], p) > 2
    )
    return {"recovered": recovered, "far_ok": far_ok}


def _run_masking(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Masking census during the arbitrary phase (suite section)."""
    from ..analysis.masking import masking_probe

    topology = from_spec(params["topology"])
    report = masking_probe(
        make_algorithm(params["algorithm"]),
        topology,
        topology.nodes[params["victim"]],
        malicious_steps=params["malicious_steps"],
        observe=params["observe"],
        seed=seed,
    )
    return {
        "faulty_involved": report.faulty_involved,
        "clean_pair": report.clean_pair,
        "sampled": report.sampled_states,
    }


HANDLERS: Dict[str, Callable[[Mapping[str, Any], int], Dict[str, Any]]] = {
    "sim": _run_sim,
    "throughput": _run_throughput,
    "stabilize": _run_stabilize,
    "locality": _run_locality,
    "malicious": _run_malicious,
    "masking": _run_masking,
}


def execute_shard(shard: Shard) -> TrialRecord:
    """Run one shard to completion and wrap the outcome in a record.

    This is the function the worker pool maps over; it must stay importable
    at module level.  The meta part (worker pid, duration) is intentionally
    *not* part of the record's determinism contract.
    """
    try:
        handler = HANDLERS[shard.kind]
    except KeyError:
        raise KeyError(
            f"unknown shard kind {shard.kind!r}; one of {sorted(HANDLERS)}"
        ) from None
    start = time.perf_counter()
    result = handler(shard.params, shard.seed)
    return TrialRecord(
        key=shard.key,
        kind=shard.kind,
        params=dict(shard.params),
        seed=shard.seed,
        result=result,
        meta={"worker": os.getpid()},
        duration_s=round(time.perf_counter() - start, 6),
    )
