"""The five workloads that need no cluster: simulated clocks, no sockets.

Each repeats a fixed-size chunk until the window is over and reports
medians over chunks; counts that must repeat exactly (``exact``) are taken
over a fixed prefix of chunks, so they do not depend on how many chunks the
machine got through.
"""

from __future__ import annotations

from typing import Any, Dict, List

from harness import (
    Measurement, peak_rss_mb, raw_chunks, summarize_chunks, timed_chunks,
)
from spec import SIZES


class _Offline:
    name = ""

    def __init__(self) -> None:
        self.sizes = SIZES[self.name]

    async def teardown(self, ctx) -> None:
        return None

    def layers(self, m: Measurement, tracer, ctx) -> Dict[str, float]:
        return {}


def _share(served: int, total: int) -> float:
    return served / total if total else 0.0


# ------------------------------------------------------------------ mp_crash


class MpCrash(_Offline):
    """The served diner on the deterministic ``MpEngine``, one crash a trial."""

    name = "mp_crash"

    async def setup(self, seed: int, trace_dir=None):
        from repro.mp.diners_mp import build_diners
        from repro.mp.engine import MpEngine
        from repro.sim import from_spec

        topology = from_spec(self.sizes["topology"])
        MpEngine(
            topology, build_diners(topology, eat_ticks=2, repair=True), seed=seed
        )
        return {"topology": topology}

    def _trial(self, topology, trial_seed: int, victim) -> Dict[str, Any]:
        from repro.mp.diners_mp import build_diners, neighbours_both_eating
        from repro.mp.engine import MpEngine

        s = self.sizes
        processes = build_diners(
            topology, eat_ticks=2, seed=trial_seed, repair=True
        )
        engine = MpEngine(topology, processes, seed=trial_seed)
        engine.run(s["crash_at"])
        engine.crash_maliciously(victim, s["havoc_steps"])
        engine.run(s["settle_steps"])
        before = {p: processes[p].eats for p in topology.nodes}
        overlaps = 0
        remaining = s["steps"] - s["crash_at"] - s["settle_steps"]
        for _ in range(remaining // s["sample_every"]):
            engine.run(s["sample_every"])
            overlaps += sum(
                1 for p, q in neighbours_both_eating(topology, processes)
                if engine.is_alive(p) and engine.is_alive(q)
            )
        served: Dict[int, List[int]] = {}
        for p in topology.nodes:
            if p == victim:
                continue
            row = served.setdefault(topology.distance(victim, p), [0, 0])
            row[1] += 1
            row[0] += processes[p].eats > before[p]
        return {
            "steps": engine.step_count,
            "overlaps": overlaps,
            "served": served,
            "delivered": engine.delivered,
            "eats": sum(processes[p].eats for p in topology.nodes),
        }

    async def measure(self, ctx, seconds, seed, tracer, probe) -> Measurement:
        from repro.campaign import derive_seed

        topology = ctx["topology"]
        nodes = topology.nodes
        counted = self.sizes["counted_trials"]
        trials: List[Dict[str, Any]] = []

        def chunk(index: int):
            # Forks start at the lower-numbered end of each edge, so the
            # ring is not symmetric under rotation: the victim walks round
            # it, and every run covers every position equally.
            victim = nodes[(seed + index) % len(nodes)]
            trial = self._trial(topology, derive_seed(seed, index), victim)
            trials.append(trial)
            return trial["steps"], 1

        chunks = timed_chunks(seconds, counted, chunk, probe)
        served: Dict[int, List[int]] = {}
        for trial in trials[:counted]:
            for distance, (fed, total) in trial["served"].items():
                row = served.setdefault(distance, [0, 0])
                row[0] += fed
                row[1] += total
        far = [
            sum(v[i] for d, v in served.items() if d >= 3) for i in (0, 1)
        ]
        return Measurement(
            e2e=summarize_chunks(chunks),
            raw=raw_chunks(chunks),
            attempted=len(trials),
            failed=0,
            checks={
                "no two live neighbours ate at once (sampled)":
                    all(t["overlaps"] == 0 for t in trials),
                "every trial ran its full step budget":
                    all(t["steps"] == self.sizes["steps"] for t in trials),
            },
            exact={
                "served_by_distance": {
                    str(d): served[d] for d in sorted(served)
                },
                "far_served": far,
            },
            facts={
                "served": served,
                "far": far,
                "delivered": sum(t["delivered"] for t in trials),
                "eats": sum(t["eats"] for t in trials),
            },
        )

    def layers(self, m, tracer, ctx) -> Dict[str, float]:
        f = m.facts
        out = {
            f"mp.diners_mp.served_by_distance.{d}": _share(*f["served"][d])
            for d in f["served"] if 1 <= d <= 4
        }
        out["locality.far_served_share"] = _share(*f["far"])
        out["mp.engine.msgs_per_eat"] = _share(f["delivered"], f["eats"])
        return out


# -------------------------------------------------------------------- sweeps


class Sweep(_Offline):
    """``run_shards`` over the crash sweep, one backend per workload."""

    backend = "object"

    async def setup(self, seed: int, trace_dir=None):
        from repro.sim import from_spec

        topology = from_spec(self.sizes["topology"])
        victim = topology.nodes[self.sizes["fault"]["victim"]]
        far = [
            i for i, p in enumerate(topology.nodes)
            if p != victim and topology.distance(victim, p) >= 3
        ]
        self._spec(seed, 0).shards()
        return {"far": far}

    def _spec(self, seed: int, index: int, **override):
        from repro.campaign import SweepSpec, derive_seed

        s = self.sizes
        params = dict(
            topologies=(s["topology"],),
            algorithms=tuple(s["algorithms"]),
            trials=s["trials_per_chunk"],
            steps=s["steps"],
            seed=derive_seed(seed, index),
            fault=s["fault"],
            backend=self.backend,
        )
        params.update(override)
        return SweepSpec(**params)

    async def measure(self, ctx, seconds, seed, tracer, probe) -> Measurement:
        from repro.campaign import run_shards

        counted = self.sizes["counted_chunks"]
        per_chunk: List[list] = []
        shard_s = 0.0

        def chunk(index: int):
            nonlocal shard_s
            records = list(
                run_shards(self._spec(seed, index).shards(), jobs=1)
                .records.values()
            )
            per_chunk.append(records)
            shard_s += sum(r.duration_s for r in records)
            return sum(r.result["steps"] for r in records), len(records)

        chunks = timed_chunks(seconds, counted, chunk, probe)
        paper = [
            [r for r in records if r.params["algorithm"] == "na-diners"]
            for records in per_chunk
        ]
        #: per chunk: far survivors fed, far survivors
        far = [
            (
                sum(1 for r in records for i in ctx["far"]
                    if r.result["eats"][i] > 0),
                len(records) * len(ctx["far"]),
            )
            for records in paper
        ]
        far_fed = sum(fed for fed, _total in far)
        far_total = sum(total for _fed, total in far)
        counted_far = [sum(column) for column in zip(*far[:counted])]
        checks = {
            "every na-diners trial ran its full step budget": all(
                r.result["steps"] == self.sizes["steps"]
                for rs in paper for r in rs
            ),
            "safety_ok on every na-diners record":
                all(r.result["safety_ok"] for rs in paper for r in rs),
            "na-diners fed every survivor at distance >= 3":
                far_total > 0 and far_fed == far_total,
        }
        checks.update(self._extra_checks(seed, paper))
        wall_s = sum(c[2] for c in chunks)
        return Measurement(
            e2e=summarize_chunks(chunks),
            raw=raw_chunks(chunks),
            attempted=sum(len(rs) for rs in per_chunk),
            failed=0,
            checks=checks,
            exact={
                "far_served": counted_far,
                "total_eats": sum(
                    r.result["total_eats"]
                    for rs in per_chunk[:counted] for r in rs
                ),
            },
            facts={
                "far": [far_fed, far_total],
                "overhead": (wall_s - shard_s) / wall_s,
            },
        )

    def _extra_checks(self, seed: int, paper) -> Dict[str, bool]:
        return {}

    def layers(self, m, tracer, ctx) -> Dict[str, float]:
        return {
            "locality.far_served_share": _share(*m.facts["far"]),
            "campaign.runner.overhead_share": m.facts["overhead"],
        }


class SweepObject(Sweep):
    name = "sweep_object"


class SweepFast(Sweep):
    name = "sweep_fast"
    backend = "fast"

    def _extra_checks(self, seed: int, paper) -> Dict[str, bool]:
        """Chunk ``i``'s first trial has the seed ``sweep_object`` gives its
        na-diners trial of chunk ``i``: re-run a few on the object backend
        and require the records to agree field for field."""
        from repro.campaign import run_shards

        same = True
        for index in range(self.sizes["parity_trials"]):
            spec = self._spec(seed, index, trials=1, backend="object")
            (reference,) = run_shards(spec.shards(), jobs=1).records.values()
            fast = paper[index][0]
            same = same and (
                fast.seed == reference.seed
                and dict(fast.result) == dict(reference.result)
            )
        return {"fast records equal the object backend's": same}


# --------------------------------------------------------------- check_line5


class CheckLine5(_Offline):
    """The packed explorer's closure of line:5 from the all-hungry state."""

    name = "check_line5"

    async def setup(self, seed: int, trace_dir=None):
        from repro.core import NADiners
        from repro.sim import System, from_spec
        from repro.verification import FastExplorer

        topology = from_spec(self.sizes["topology"])
        threshold = topology.diameter
        algorithm = NADiners(
            depth_cap=threshold + 1, diameter_override=threshold
        )
        system = System(topology, algorithm)
        for pid in topology.nodes:
            system.write_local(pid, "needs", True)
        return {
            "explorer": FastExplorer(algorithm, topology),
            "initial": system.snapshot(),
        }

    async def measure(self, ctx, seconds, seed, tracer, probe) -> Measurement:
        outcomes = []

        def chunk(index: int):
            stats = ctx["explorer"].reachable_count([ctx["initial"]])
            outcomes.append(stats)
            return stats.states, 1

        chunks = timed_chunks(seconds, 1, chunk, probe)
        s = self.sizes
        first = outcomes[0]
        return Measurement(
            e2e=summarize_chunks(chunks),
            raw=raw_chunks(chunks),
            attempted=len(outcomes),
            failed=0,
            checks={
                f"exactly {s['states']} states": all(
                    o.states == s["states"] for o in outcomes
                ),
                f"exactly {s['transitions']} transitions": all(
                    o.transitions == s["transitions"] for o in outcomes
                ),
                "0 safety violations": all(
                    o.violations == 0 for o in outcomes
                ),
            },
            exact={"states": first.states, "transitions": first.transitions},
            facts={"states": first.states},
        )

    def layers(self, m, tracer, ctx) -> Dict[str, float]:
        return {
            "fastcore.explorer.bytes_per_state":
                peak_rss_mb() * 1024.0 * 1024.0 / m.facts["states"],
        }


# --------------------------------------------------------------- gateway_sim


class GatewaySim(_Offline):
    """``run_sim``: the real mux and admission controller, virtual time."""

    name = "gateway_sim"

    def _config(self, seed: int):
        from repro.gateway.loadgen import LoadgenConfig

        s = self.sizes
        return LoadgenConfig(
            clients=s["clients"], nodes=s["nodes"], seed=seed,
            duration_s=s["duration_s"],
        )

    async def setup(self, seed: int, trace_dir=None):
        self._config(seed).validate()
        return {}

    async def measure(self, ctx, seconds, seed, tracer, probe) -> Measurement:
        from repro.campaign import derive_seed
        from repro.gateway.loadgen import run_sim

        reports: List[Dict[str, Any]] = []
        submits: List[int] = []

        def chunk(index: int):
            calls = 0 if tracer is None else tracer.calls("gateway.mux.submit")
            results = run_sim(self._config(derive_seed(seed, index)))["results"]
            if tracer is not None:
                submits.append(tracer.calls("gateway.mux.submit") - calls)
            reports.append(results)
            return results["admission"]["admitted"] + results["shed_total"], 1

        chunks = timed_chunks(seconds, 1, chunk, probe)
        nodes = self.sizes["nodes"]
        checks = {
            "every shed became a retry or an abandon": all(
                r["shed_total"] == r["retries"] + r["abandoned"]
                for r in reports
            ),
            "admitted = completed = grants + releases": all(
                r["admission"]["admitted"] == r["admission"]["completed"]
                == r["grants"] + r["releases"]
                for r in reports
            ),
            "grants - releases within [0, nodes]": all(
                0 <= r["grants"] - r["releases"] <= nodes for r in reports
            ),
            "model violations 0": all(
                r["safety"]["violations"] == 0 for r in reports
            ),
        }
        if tracer is not None:
            checks["admitted + shed = submissions"] = all(
                r["admission"]["admitted"] + r["shed_total"] == n
                for r, n in zip(reports, submits)
            )
        first = reports[0]
        admitted = sum(r["admission"]["admitted"] for r in reports)
        shed = sum(r["shed_total"] for r in reports)
        grants = sum(r["grants"] for r in reports)
        acquires = grants + shed  # every admitted acquire is granted here
        return Measurement(
            e2e=summarize_chunks(chunks),
            raw=raw_chunks(chunks),
            attempted=admitted + shed,
            failed=0,
            checks=checks,
            exact={
                "grants": first["grants"],
                "sheds": first["shed_total"],
                "admitted": first["admission"]["admitted"],
            },
            facts={
                "shed_share": shed / (admitted + shed),
                "grant_count_cv": first["fairness"]["grant_count_cv"],
                "success_x_contention":
                    grants / acquires * self.sizes["clients"] / nodes,
            },
        )

    def layers(self, m, tracer, ctx) -> Dict[str, float]:
        f = m.facts
        return {
            "gateway.admission.shed_share": f["shed_share"],
            "fleet.grant_count_cv": f["grant_count_cv"],
            "fleet.success_x_contention": f["success_x_contention"],
        }


OFFLINE = {
    cls.name: cls
    for cls in (MpCrash, SweepObject, SweepFast, CheckLine5, GatewaySim)
}
