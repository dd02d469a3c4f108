"""Coverage-guided chaos-schedule fuzzing (`repro fuzz`).

The fuzzer searches the space of :class:`~repro.net.chaos.ChaosSchedule`
for plans that push the protocol into *novel* behaviour, not merely bad
behaviour: each candidate is executed and reduced to a small integer
**signature** (waiting-chain shape, exclusion-overlap trajectory,
starvation and convergence buckets, channel-loss bucket), and a schedule
joins the corpus exactly when its signature has not been seen before.
Mutation parents are drawn score-weighted from the corpus, so the loop
climbs toward worst cases while the signature map keeps it exploring.

Execution is on the **deterministic message-passing engine**, not the live
cluster: scheduled wall-clock times map to engine steps (``at_s / duration
× steps``), link profiles become channel loss, partitions toggle loss to
1, malicious crashes/restarts/byzantine subversions use the engine's fault
repertoire.  Two consequences, both deliberate:

* ``repro fuzz --seed S --budget N`` is *bit-for-bit reproducible* —
  same corpus, byte-identical schedule files — because nothing in the
  evaluation path reads a clock or a socket (sharded workers via
  :func:`~repro.campaign.runner.parallel_map` preserve order, so ``--jobs``
  does not change the result either);
* the committed corpus is scored by the simulator but *replayed* against
  the live cluster (``repro cluster soak --schedule-file``), so CI checks
  the finds against real sockets, where the safety bar (zero
  neighbour-exclusion violations among non-faulty nodes) must still hold.

The worst ``keep`` finds are greedily minimised (drop events/profiles
while the signature is preserved) before being written, so corpus entries
stay reviewable.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..campaign.runner import parallel_map
from ..core.state import DinerState
from ..mp.channel import Channel
from ..mp.diners_mp import build_diners, neighbours_both_eating
from ..mp.engine import MpEngine
from ..net.chaos import (
    ChaosSchedule,
    FaultEvent,
    Link,
    LinkProfile,
    build_schedule,
    validate_schedule,
)
from ..sim.topology import Pid, Topology, from_spec
from .byzantine import ByzantineDinerProcess
from .corpus import schedule_from_doc, schedule_to_doc, write_schedule

__all__ = [
    "FuzzLimits",
    "FuzzResult",
    "CorpusEntry",
    "evaluate_schedule",
    "EvalOutcome",
    "minimise_schedule",
    "mutate_schedule",
    "run_fuzz",
]

H = DinerState.HUNGRY.value


@dataclass(frozen=True)
class FuzzLimits:
    """Fixed evaluation parameters; part of a corpus entry's provenance."""

    steps: int = 4000  #: engine steps per candidate run
    sample_every: int = 25  #: steps between behaviour samples
    eat_ticks: int = 2
    channel_capacity: int = 8


@dataclass(frozen=True)
class EvalOutcome:
    """What one candidate execution reduces to."""

    signature: Tuple[int, ...]
    score: float
    metrics: Dict[str, Any]


@dataclass
class CorpusEntry:
    schedule: ChaosSchedule
    signature: Tuple[int, ...]
    score: float
    metrics: Dict[str, Any]
    origin: str  #: ``seed:<i>`` or ``mutant:<i>``


@dataclass
class FuzzResult:
    topology_spec: str
    seed: int
    budget: int
    executed: int
    entries: List[CorpusEntry] = field(default_factory=list)
    written: List[Path] = field(default_factory=list)

    @property
    def coverage(self) -> int:
        return len(self.entries)

    @property
    def best(self) -> Optional[CorpusEntry]:
        return max(self.entries, key=lambda e: e.score, default=None)


def _bucket(value: int) -> int:
    """Log₂ bucketing: collapses magnitudes so signatures stay coarse."""
    return int(value).bit_length()


def evaluate_schedule(
    schedule: ChaosSchedule,
    topology: Topology,
    *,
    limits: FuzzLimits = FuzzLimits(),
) -> EvalOutcome:
    """Run one schedule on the deterministic engine; reduce to a signature.

    Overlap samples are split three ways: pairs touching a *byzantine*
    node (expected — that is the demonstrated boundary), pairs touching a
    currently-faulty node, and **clean** pairs, further split into the
    stabilization window (before/shortly after faults) versus **late**
    (after every scheduled event) — late clean overlap is the metric a
    genuine safety find would move, and dominates the score.
    """
    procs = build_diners(
        topology,
        eat_ticks=limits.eat_ticks,
        seed=schedule.seed,
        repair=True,
    )
    profiles = dict(schedule.profiles)

    def factory(src, dst, capacity, *, loss_probability=0.0, rng=None):
        prof = profiles.get((src, dst))
        loss = loss_probability
        if prof is not None:
            loss = min(0.9, prof.drop_p + prof.reorder_p * 0.25)
        return Channel(src, dst, capacity, loss_probability=loss, rng=rng)

    engine = MpEngine(
        topology,
        procs,
        channel_capacity=limits.channel_capacity,
        seed=schedule.seed ^ 0xF0221,
        channel_factory=factory,
    )
    steps = limits.steps
    duration = schedule.duration_s

    def step_of(at_s: float) -> int:
        return max(0, min(steps, int(at_s / duration * steps)))

    plan = sorted(
        ((step_of(e.at_s), i, e) for i, e in enumerate(schedule.events)),
        key=lambda item: (item[0], item[1]),
    )
    last_event_step = plan[-1][0] if plan else 0
    restart_rng = random.Random(schedule.seed ^ 0x5E57A27)
    saved_loss: Dict[Link, float] = {}
    faulty: Set[Pid] = set()
    byzantine: Set[Pid] = set()

    def apply(event: FaultEvent) -> None:
        node = event.node
        if event.kind == "partition":
            for link in event.links:
                channel = engine.channel(*link)
                if link not in saved_loss:
                    saved_loss[link] = channel.loss_probability
                channel.loss_probability = 1.0
        elif event.kind == "heal":
            for link in event.links:
                engine.channel(*link).loss_probability = saved_loss.pop(
                    link, 0.0
                )
        elif event.kind == "malicious-crash":
            if node is not None and engine.is_alive(node):
                engine.crash_maliciously(
                    node, havoc_steps=2 + 2 * len(event.links)
                )
                faulty.add(node)
        elif event.kind == "restart":
            if node is not None and not engine.is_alive(node):
                engine.restart(node, rng=restart_rng)
                faulty.discard(node)
        elif event.kind == "byzantine-crash":
            if node is not None and engine.is_alive(node):
                engine.processes[node] = ByzantineDinerProcess(
                    node,
                    topology,
                    repair=True,
                    counter_floor=dict(procs[node].edge_c),
                    seed=schedule.seed,
                )
                byzantine.add(node)
        # ``replay`` has no engine analogue (channels are exactly-once
        # FIFO); it is a live-cluster actuator and scores as a no-op here.

    max_hungry_component = 0
    clean_overlap = late_clean_overlap = faulty_overlap = byz_overlap = 0
    samples = 0

    def live_clean(p: Pid) -> bool:
        return engine.is_alive(p) and p not in faulty and p not in byzantine

    def sample(at_step: int) -> None:
        nonlocal max_hungry_component, clean_overlap, late_clean_overlap
        nonlocal faulty_overlap, byz_overlap, samples
        samples += 1
        hungry = {
            p for p in topology.nodes if live_clean(p) and procs[p].state == H
        }
        seen: Set[Pid] = set()
        for start in hungry:
            if start in seen:
                continue
            stack, size = [start], 0
            seen.add(start)
            while stack:
                node = stack.pop()
                size += 1
                for q in topology.neighbors(node):
                    if q in hungry and q not in seen:
                        seen.add(q)
                        stack.append(q)
            max_hungry_component = max(max_hungry_component, size)
        for p, q in neighbours_both_eating(topology, engine.processes):
            if p in byzantine or q in byzantine:
                byz_overlap += 1
            elif not (live_clean(p) and live_clean(q)):
                faulty_overlap += 1
            else:
                clean_overlap += 1
                if at_step > last_event_step:
                    late_clean_overlap += 1

    cursor = 0
    taken = 0
    while taken < steps:
        while cursor < len(plan) and plan[cursor][0] <= taken:
            apply(plan[cursor][2])
            cursor += 1
        engine.step()
        taken += 1
        if taken % limits.sample_every == 0:
            sample(taken)
    while cursor < len(plan):  # events scheduled at the final step
        apply(plan[cursor][2])
        cursor += 1
    sample(steps)

    eaters = [
        procs[p].eats for p in topology.nodes if live_clean(p)
    ]
    starved = sum(1 for eats in eaters if eats == 0)
    min_eats = min(eaters, default=0)
    drops = sum(c.dropped + c.lost for c in engine.channels())
    signature = (
        max_hungry_component,
        _bucket(clean_overlap),
        _bucket(late_clean_overlap),
        _bucket(byz_overlap),
        starved,
        _bucket(min_eats),
        _bucket(drops),
    )
    score = (
        400.0 * late_clean_overlap
        + 120.0 * clean_overlap
        + 25.0 * starved
        + 8.0 * max_hungry_component
        + 2.0 * _bucket(byz_overlap)
        + 1.0 * _bucket(faulty_overlap)
        + 1.0 * _bucket(drops)
    )
    metrics = {
        "max_hungry_component": max_hungry_component,
        "clean_overlap_samples": clean_overlap,
        "late_clean_overlap_samples": late_clean_overlap,
        "faulty_overlap_samples": faulty_overlap,
        "byzantine_overlap_samples": byz_overlap,
        "starved": starved,
        "min_eats": min_eats,
        "dropped_messages": drops,
        "samples": samples,
        "engine_steps": engine.step_count,
    }
    return EvalOutcome(signature=signature, score=score, metrics=metrics)


# ----------------------------------------------------------------- mutation


def _repair(schedule: ChaosSchedule) -> ChaosSchedule:
    """Restore structural sanity after a mutation: chronological order,
    no restart without its prior crash (orphans are dropped, the exact
    condition :func:`~repro.net.chaos.validate_schedule` rejects)."""
    events = sorted(schedule.events, key=lambda e: e.at_s)
    crashed: Dict[Pid, float] = {}
    kept: List[FaultEvent] = []
    for event in events:
        if event.kind == "restart":
            when = crashed.get(event.node)
            if when is None or when > event.at_s:
                continue
        if event.kind == "malicious-crash":
            crashed[event.node] = event.at_s
        kept.append(event)
    return replace(schedule, events=tuple(kept))


def _random_garbage(rng: random.Random, links: Sequence[Link]) -> Tuple[bytes, ...]:
    return tuple(
        bytes(rng.randrange(256) for _ in range(rng.randint(8, 64)))
        for _ in links
    )


def _out_links(topology: Topology, node: Pid) -> Tuple[Link, ...]:
    return tuple(sorted(((node, q) for q in topology.neighbors(node)), key=repr))


def mutate_schedule(
    schedule: ChaosSchedule, topology: Topology, rng: random.Random
) -> ChaosSchedule:
    """One seeded mutation; always returns a valid schedule.

    Operators: time-jitter an event, delete an event, add a partition
    window, add a malicious crash (sometimes paired with a restart), and
    perturb/toggle a link profile.  A mutation that cannot apply (e.g.
    delete on an empty plan) falls through to the next attempt; after a
    few dead ends the schedule returns unchanged.
    """
    duration = schedule.duration_s
    nodes = sorted(topology.nodes, key=repr)
    links = sorted(
        ((p, q) for p in topology.nodes for q in topology.neighbors(p)),
        key=repr,
    )

    def jitter() -> Optional[ChaosSchedule]:
        if not schedule.events:
            return None
        idx = rng.randrange(len(schedule.events))
        events = list(schedule.events)
        moved = round(
            min(
                duration,
                max(0.0, events[idx].at_s + rng.uniform(-0.15, 0.15) * duration),
            ),
            6,
        )
        events[idx] = replace(events[idx], at_s=moved)
        return replace(schedule, events=tuple(events))

    def drop_event() -> Optional[ChaosSchedule]:
        if not schedule.events:
            return None
        idx = rng.randrange(len(schedule.events))
        events = tuple(
            e for i, e in enumerate(schedule.events) if i != idx
        )
        return replace(schedule, events=events)

    def add_partition() -> Optional[ChaosSchedule]:
        if len(nodes) < 2:
            return None
        side = set(rng.sample(nodes, rng.randint(1, len(nodes) - 1)))
        cut = tuple(
            (p, q) for (p, q) in links if (p in side) != (q in side)
        )
        if not cut:
            return None
        start = round(rng.uniform(0.05, 0.8) * duration, 6)
        heal = round(
            min(start + rng.uniform(0.05, 0.3) * duration, duration), 6
        )
        events = schedule.events + (
            FaultEvent(at_s=start, kind="partition", links=cut),
            FaultEvent(at_s=heal, kind="heal", links=cut),
        )
        return replace(schedule, events=events)

    def add_crash() -> Optional[ChaosSchedule]:
        already = {
            e.node
            for e in schedule.events
            if e.kind in ("malicious-crash", "byzantine-crash")
        }
        candidates = [n for n in nodes if n not in already]
        if not candidates:
            return None
        node = candidates[rng.randrange(len(candidates))]
        out = _out_links(topology, node)
        crash_at = round(rng.uniform(0.2, 0.85) * duration, 6)
        added = [
            FaultEvent(
                at_s=crash_at,
                kind="malicious-crash",
                links=out,
                node=node,
                garbage=_random_garbage(rng, out),
            )
        ]
        if rng.random() < 0.5:
            added.append(
                FaultEvent(
                    at_s=round(
                        min(crash_at + rng.uniform(0.1, 0.3) * duration, duration),
                        6,
                    ),
                    kind="restart",
                    links=out,
                    node=node,
                )
            )
        return replace(schedule, events=schedule.events + tuple(added))

    def toggle_profile() -> Optional[ChaosSchedule]:
        profiles = dict(schedule.profiles)
        link = links[rng.randrange(len(links))]
        if link in profiles and rng.random() < 0.3:
            del profiles[link]
        else:
            profiles[link] = LinkProfile(
                delay_s=round(rng.uniform(0.0, 0.01), 6),
                jitter_s=round(rng.uniform(0.0, 0.01), 6),
                drop_p=round(rng.uniform(0.0, 0.08), 6),
                dup_p=round(rng.uniform(0.0, 0.05), 6),
                reorder_p=round(rng.uniform(0.0, 0.15), 6),
            )
        return replace(schedule, profiles=profiles)

    operators = (jitter, drop_event, add_partition, add_crash, toggle_profile)
    for _ in range(8):
        mutated = operators[rng.randrange(len(operators))]()
        if mutated is None:
            continue
        repaired = _repair(mutated)
        try:
            validate_schedule(repaired)
        except ValueError:
            continue
        return repaired
    return schedule


# ------------------------------------------------------------ minimisation


def minimise_schedule(
    schedule: ChaosSchedule,
    topology: Topology,
    signature: Tuple[int, ...],
    *,
    limits: FuzzLimits = FuzzLimits(),
    budget: int = 24,
) -> Tuple[ChaosSchedule, int]:
    """Greedy shrink preserving the behaviour signature.

    Repeatedly tries dropping one event (latest first), then one link
    profile, re-evaluating each trial; a drop survives when the signature
    is unchanged.  Returns ``(smaller_schedule, evaluations_used)``.
    """
    current = schedule
    evals = 0
    shrunk = True
    while shrunk and evals < budget:
        shrunk = False
        for idx in range(len(current.events) - 1, -1, -1):
            if evals >= budget:
                break
            trial = _repair(
                replace(
                    current,
                    events=tuple(
                        e for i, e in enumerate(current.events) if i != idx
                    ),
                )
            )
            if len(trial.events) == len(current.events):
                continue
            evals += 1
            outcome = evaluate_schedule(trial, topology, limits=limits)
            if outcome.signature == signature:
                current = trial
                shrunk = True
                break
    for link in sorted(current.profiles, key=repr):
        if evals >= budget:
            break
        trial = replace(
            current,
            profiles={
                k: v for k, v in current.profiles.items() if k != link
            },
        )
        evals += 1
        if evaluate_schedule(trial, topology, limits=limits).signature == signature:
            current = trial
    return current, evals


# -------------------------------------------------------------- the loop


def _evaluate_shard(arg: Tuple[Dict[str, Any], Dict[str, Any]]) -> Dict[str, Any]:
    """Worker-side evaluation (module-level so it pickles for the pool)."""
    doc, limit_fields = arg
    parsed = schedule_from_doc(doc)
    outcome = evaluate_schedule(
        parsed.schedule, parsed.topology, limits=FuzzLimits(**limit_fields)
    )
    return {
        "signature": list(outcome.signature),
        "score": outcome.score,
        "metrics": outcome.metrics,
    }


#: Seed-corpus shapes: enough diversity that mutation starts from
#: partition-heavy, crash-heavy, and quiet plans alike.
_SEED_PARAMS: Tuple[Dict[str, Any], ...] = (
    dict(partitions=1, malicious_crashes=1, restarts=1, flaky_links=0.5),
    dict(partitions=0, malicious_crashes=1, restarts=0, flaky_links=0.3),
    dict(partitions=2, malicious_crashes=0, restarts=0, flaky_links=0.7),
    dict(partitions=1, malicious_crashes=2, restarts=1, flaky_links=0.4),
)


def run_fuzz(
    topology_spec: str,
    *,
    seed: int = 0,
    budget: int = 40,
    duration_s: float = 5.0,
    jobs: int = 1,
    keep: int = 3,
    corpus_dir: Optional[Path | str] = None,
    limits: FuzzLimits = FuzzLimits(),
    byzantine: bool = False,
    minimise_budget: int = 24,
    progress=None,
) -> FuzzResult:
    """The coverage-guided loop; deterministic for ``(all arguments)``.

    ``budget`` counts candidate executions (seeds included; minimisation
    runs are separate and bounded by ``minimise_budget`` per kept entry).
    With ``corpus_dir`` set, the ``keep`` highest-scoring distinct
    signatures are minimised and written as canonical schedule files named
    ``<topo>-s<seed>-r<rank>.json`` — byte-identical across reruns.

    ``byzantine=True`` adds a beyond-the-model seed schedule; such
    entries *will* violate neighbour exclusion at the subverted node on
    live replay, so the committed CI corpus is built without it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    topology = from_spec(topology_spec)
    rng = random.Random(seed ^ 0xF0222)
    say = progress if progress is not None else (lambda msg: None)
    limit_fields = asdict(limits)

    executed = 0
    coverage: Dict[Tuple[int, ...], CorpusEntry] = {}

    def evaluate_batch(schedules: Sequence[ChaosSchedule]) -> List[EvalOutcome]:
        nonlocal executed
        shards = [
            (schedule_to_doc(s, topology_spec=topology_spec), limit_fields)
            for s in schedules
        ]
        rows = parallel_map(_evaluate_shard, shards, jobs=jobs)
        executed += len(rows)
        return [
            EvalOutcome(tuple(r["signature"]), r["score"], r["metrics"])
            for r in rows
        ]

    def consider(
        schedule: ChaosSchedule, outcome: EvalOutcome, origin: str
    ) -> bool:
        entry = CorpusEntry(
            schedule=schedule,
            signature=outcome.signature,
            score=outcome.score,
            metrics=outcome.metrics,
            origin=origin,
        )
        existing = coverage.get(outcome.signature)
        if existing is None:
            coverage[outcome.signature] = entry
            return True
        if outcome.score > existing.score:
            coverage[outcome.signature] = entry
        return False

    seed_params = list(_SEED_PARAMS)
    if byzantine:
        seed_params.append(
            dict(
                partitions=1,
                malicious_crashes=0,
                restarts=0,
                byzantine=1,
                flaky_links=0.4,
            )
        )
    seeds = [
        build_schedule(
            topology, seed=seed * 1000 + i, duration_s=duration_s, **params
        )
        for i, params in enumerate(seed_params)
    ]
    for i, (schedule, outcome) in enumerate(zip(seeds, evaluate_batch(seeds))):
        consider(schedule, outcome, f"seed:{i}")
    say(
        f"fuzz: seeded {len(seeds)} schedules, "
        f"{len(coverage)} signatures"
    )

    def pick_parent() -> CorpusEntry:
        entries = [coverage[sig] for sig in sorted(coverage)]
        weights = [e.score + 1.0 for e in entries]
        return rng.choices(entries, weights=weights, k=1)[0]

    round_no = 0
    while executed < budget:
        # Fixed batch size: ``jobs`` only parallelises within a batch, so
        # the mutation stream (and therefore the corpus) is jobs-invariant.
        batch_size = min(8, budget - executed)
        parents = [pick_parent() for _ in range(batch_size)]
        mutants = [
            mutate_schedule(parent.schedule, topology, rng)
            for parent in parents
        ]
        outcomes = evaluate_batch(mutants)
        fresh = sum(
            consider(m, o, f"mutant:{executed - batch_size + i}")
            for i, (m, o) in enumerate(zip(mutants, outcomes))
        )
        round_no += 1
        say(
            f"fuzz: round {round_no}, {executed}/{budget} runs, "
            f"{len(coverage)} signatures (+{fresh})"
        )

    result = FuzzResult(
        topology_spec=topology_spec,
        seed=seed,
        budget=budget,
        executed=executed,
    )
    ranked = sorted(
        coverage.values(), key=lambda e: (-e.score, e.signature)
    )
    top = ranked[: max(0, keep)]
    for rank, entry in enumerate(top):
        minimised, used = minimise_schedule(
            entry.schedule,
            topology,
            entry.signature,
            limits=limits,
            budget=minimise_budget,
        )
        entry.schedule = minimised
        say(
            f"fuzz: minimised rank {rank} to "
            f"{len(minimised.events)} events ({used} evals)"
        )
    result.entries = ranked

    if corpus_dir is not None:
        slug = topology_spec.replace(":", "")
        for rank, entry in enumerate(top):
            meta = {
                "signature": list(entry.signature),
                "score": entry.score,
                "metrics": entry.metrics,
                "fuzz": {
                    "tool_seed": seed,
                    "budget": budget,
                    "executed": executed,
                    "rank": rank,
                    "origin": entry.origin,
                    "limits": limit_fields,
                },
            }
            path = Path(corpus_dir) / f"{slug}-s{seed}-r{rank}.json"
            result.written.append(
                write_schedule(
                    path,
                    entry.schedule,
                    topology_spec=topology_spec,
                    meta=meta,
                )
            )
    return result


def cmd_fuzz(
    *, topology: str, seed: int, budget: int, duration: float, steps: int,
    sample_every: int, jobs: int, keep: int, corpus_dir: Optional[str], byzantine: bool,
    minimise_budget: int, quiet: bool,
) -> int:
    """``repro fuzz``: :func:`run_fuzz`, then the kept signatures and the
    corpus files written."""
    result = run_fuzz(
        topology,
        seed=seed,
        budget=budget,
        duration_s=duration,
        jobs=jobs,
        keep=keep,
        corpus_dir=corpus_dir,
        limits=FuzzLimits(steps=steps, sample_every=sample_every),
        byzantine=byzantine,
        minimise_budget=minimise_budget,
        progress=None if quiet else print,
    )
    print(
        f"fuzz {result.topology_spec} seed={result.seed}: "
        f"{result.executed} runs, {result.coverage} distinct signatures"
    )
    for rank, entry in enumerate(result.entries[:keep]):
        print(
            f"  #{rank}: score={entry.score:.0f} "
            f"signature={list(entry.signature)} "
            f"events={len(entry.schedule.events)} ({entry.origin})"
        )
    for path in result.written:
        print(f"corpus: {path}")
    return 0
