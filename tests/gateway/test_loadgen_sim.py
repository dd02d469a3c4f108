"""The virtual-time loadgen engine: determinism, dynamics, SLO ingest, and
the one client fleet both engines drive."""

import asyncio
import hashlib
import json

import pytest

from repro.campaign import derive_seed
from repro.gateway import (
    AdmissionConfig,
    Completion,
    Decision,
    FleetStats,
    LoadgenConfig,
    coefficient_of_variation,
    run_sim,
    write_loadgen_report,
)
from repro.gateway.loadgen import ClientFleet


def make(**overrides):
    defaults = dict(
        clients=300, nodes=3, topology="ring:3", seed=11, duration_s=1.0,
        think_s=0.1, hold_s=0.01,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


#: sha256 of ``write_loadgen_report(run_sim(config))``, recorded before the
#: sim and live fleets were folded into one class: the sim twin's bytes
#: are its policy, so a digest that moves means the policy moved.
SIM_DIGESTS = {
    # CI's `loadgen --sim --nodes 3 --seed 11 --duration 5 --clients 10000`
    "ci": (
        LoadgenConfig(clients=10000, nodes=3, topology="ring:3", seed=11,
                      duration_s=5.0),
        "3b9c6e257e9fa1b9971c8c2c8d76eec1c2a8f75ad612f737fc8457b7f3f331ca",
    ),
    # the benchmark's gateway_sim workload, first chunk of seed 0
    "gateway_sim": (
        LoadgenConfig(clients=10000, nodes=3, duration_s=1.0,
                      seed=derive_seed(0, 0)),
        "ff46e8125347be1b7e574218a2c2963cbc11cc8d334e12e217c9182ae4649346",
    ),
    "open-500hz": (
        make(mode="open", arrival_rate_hz=500.0),
        "ba34189ea5cd514acd5ce681dd11bd67a1a26746b48033eb20c68e7cf56c95fa",
    ),
    "overload": (
        make(clients=2000, admission=AdmissionConfig(max_queue_depth=8)),
        "f5714903025b4e0c2d46dc00f04058abd7c5f76aeed3ed8d4ca59dce75056b67",
    ),
}


@pytest.mark.parametrize("name", sorted(SIM_DIGESTS))
def test_sim_report_bytes_pinned(name, tmp_path):
    config, digest = SIM_DIGESTS[name]
    path = tmp_path / "report.json"
    write_loadgen_report(path, run_sim(config))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_loadgen_report(a, run_sim(make()))
        write_loadgen_report(b, run_sim(make()))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_run(self):
        r1 = run_sim(make(seed=1))
        r2 = run_sim(make(seed=2))
        assert json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True)

    def test_open_loop_deterministic(self):
        config = make(mode="open", arrival_rate_hz=500.0)
        assert json.dumps(run_sim(config), sort_keys=True) == json.dumps(
            run_sim(config), sort_keys=True
        )


class TestDynamics:
    def test_grants_and_releases_balance(self):
        results = run_sim(make())["results"]
        assert results["grants"] > 0
        assert results["releases"] == results["grants"]

    def test_latency_percentiles_ordered(self):
        lat = run_sim(make())["results"]["latency"]
        assert lat["p50_s"] <= lat["p99_s"] <= lat["p999_s"] <= lat["max_s"]
        assert lat["min_s"] > 0

    def test_admission_sheds_under_overload(self):
        config = make(
            clients=2000,
            admission=AdmissionConfig(max_queue_depth=8),
        )
        results = run_sim(config)["results"]
        assert results["shed_total"] > 0
        assert results["sheds"]["queue-full"] > 0

    def test_per_node_grants_cover_all_nodes(self):
        per_node = run_sim(make())["results"]["per_node"]
        assert set(per_node) == {"n0", "n1", "n2"}
        assert all(doc["grants"] > 0 for doc in per_node.values())

    def test_spec_echoes_the_config(self):
        spec = run_sim(make(seed=77))["spec"]
        assert spec["engine"] == "sim"
        assert spec["seed"] == 77
        assert spec["clients"] == 300
        assert spec["gateway"]["admission"]["max_queue_depth"] == 256

    def test_upstream_budget_enforced(self):
        with pytest.raises(ValueError, match="exceed budget"):
            run_sim(make(nodes=5, upstreams_per_node=2, max_upstreams=8))


class TestSloIngest:
    def test_slo_accepts_a_sim_report(self, tmp_path):
        from repro.obs import SloObservations, ingest_artefact

        path = tmp_path / "loadgen-report.json"
        write_loadgen_report(path, run_sim(make()))
        obs = SloObservations()
        assert ingest_artefact(obs, path) == "loadgen"
        assert len(obs.grants) > 0
        assert obs.duration_s == pytest.approx(1.0)
        # Per-node labels survive so the fairness objective has nodes.
        assert {node for (_, node, _) in obs.grants} == {"n0", "n1", "n2"}

    def test_slo_evaluates_a_sim_report(self, tmp_path):
        from repro.obs import SloObservations, evaluate, ingest_artefact
        from repro.obs.slo import SloObjective, SloSpec

        path = tmp_path / "loadgen-report.json"
        write_loadgen_report(path, run_sim(make()))
        obs = SloObservations()
        ingest_artefact(obs, path)
        spec = SloSpec(
            name="loadgen-gate",
            objectives=(
                SloObjective(
                    name="grant-p99", kind="grant_latency",
                    threshold=60.0, target=0.99,
                ),
                SloObjective(name="safety", kind="safety"),
            ),
        )
        report = evaluate(spec, obs)
        assert not report.exhausted

    def test_live_safety_violations_reach_slo(self, tmp_path):
        from repro.obs import SloObservations

        report = run_sim(make())
        report["results"]["safety"] = {"mode": "live", "violations": 2}
        obs = SloObservations()
        obs.add_loadgen(report)
        assert obs.violations == 2


class TestHelpers:
    def test_cv_of_uniform_is_zero(self):
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0

    def test_cv_empty_and_zero_mean(self):
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([1.0, -1.0]) == 0.0

    def test_cv_known_value(self):
        # mean 2, population stdev sqrt(2/3) -> CV ~0.408248
        assert coefficient_of_variation([1.0, 2.0, 3.0]) == pytest.approx(
            0.408248, abs=1e-6
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"nodes": 0},
            {"duration_s": 0},
            {"mode": "burst"},
            {"mode": "open", "arrival_rate_hz": 0},
            {"think_s": -1},
            {"max_retries": -1},
            # a shed client would re-acquire at the same instant for ever
            {"think_s": 0, "max_retries": 0},
            # inf never ends the run or draws zero gaps; nan passes every
            # comparison and writes "nan" into the report
            {"duration_s": float("inf")},
            {"duration_s": float("nan")},
            {"think_s": float("inf")},
            {"think_s": float("nan")},
            {"hold_s": float("inf")},
            {"hold_s": float("nan")},
            {"mode": "open", "arrival_rate_hz": float("inf")},
            {"mode": "open", "arrival_rate_hz": float("nan")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make(**kwargs).validate()


class ScriptedGateway:
    """``GatewayServer``'s in-process seam, scripted: every admitted
    operation answers 1 ms later (through the fleet's heap, in virtual
    time, like :class:`~repro.gateway.loadgen.SimGateway`); the first
    ``acquire_fails`` acquires fail upstream, and releases may be refused."""

    def __init__(self, fleet, *, acquire_fails=0, refuse_release=False):
        self.fleet = fleet
        self.mux = self
        self.acquire_fails = acquire_fails
        self.refuse_release = refuse_release
        self.submitted = []  #: (t, client, op)
        self.pending = 0

    def pending_count(self):
        return self.pending

    def flush(self):
        pass

    def submit(self, client, node, op, callback):
        fleet = self.fleet
        self.submitted.append((fleet.now, client, op))
        if op == "release" and self.refuse_release:
            return Decision(admitted=False, client=client, node=node, op=op,
                            reason="bad-node")
        ok = op == "release" or self.acquire_fails <= 0
        if not ok:
            self.acquire_fails -= 1
        completion = Completion(
            client=client, node=node, op=op, req_id=str(len(self.submitted)),
            ok=ok, wait_s=0.001, error=None if ok else "connection-lost",
        )
        self.pending += 1
        self.later(self._answer, (callback, completion))
        return None

    def later(self, answer, arg):
        self.fleet.push(self.fleet.now + 0.001, answer, arg)

    def _answer(self, answer):
        callback, completion = answer
        self.pending -= 1
        callback(completion)

    def times(self, op):
        return [t for t, _, o in self.submitted if o == op]


class LoopGateway(ScriptedGateway):
    """Answers from the event loop, as a socket would under ``drive``."""

    def later(self, answer, arg):
        asyncio.get_running_loop().call_later(0.001, answer, arg)


def scripted_fleet(config, seam=ScriptedGateway, **script):
    stats = FleetStats(config.clients, [f"n{i}" for i in range(config.nodes)])
    fleet = ClientFleet(config, stats)
    return fleet, seam(fleet, **script), stats


class TestFleetPolicy:
    """The live-only paths of the one fleet, against a scripted gateway."""

    def test_upstream_failure_retried_until_budget_then_abandon_and_think(self):
        config = make(clients=1, nodes=1, max_retries=2, think_s=0.5)
        fleet, gateway, stats = scripted_fleet(config, acquire_fails=3)
        fleet.simulate(gateway)
        # Three failed acquires: two retries spend the budget (admitting a
        # retry after a failure does not refill it), the third abandons.
        assert stats.failures == [3]
        assert stats.retries == [2]
        assert stats.abandoned == 1
        acquires = gateway.times("acquire")
        hint = config.admission.retry_after_s
        assert acquires[1] - acquires[0] >= 0.001 + hint
        assert acquires[2] - acquires[1] >= 0.001 + hint
        # After thinking, the next cycle is granted and released.
        assert stats.grant_counts[0] >= 1
        assert stats.releases == stats.grant_counts[0]

    def test_refused_release_counts_as_failure(self):
        config = make(clients=1, nodes=1)
        fleet, gateway, stats = scripted_fleet(config, refuse_release=True)
        fleet.simulate(gateway)
        assert stats.grant_counts == [1]
        assert stats.failures == [1]
        assert stats.releases == 0
        assert fleet.holding == {}

    def test_drain_releases_everything_held(self):
        # Holds far outlast the run: only the drain's sweep releases them.
        config = make(clients=5, nodes=1, think_s=0.01, hold_s=1000.0,
                      duration_s=0.2)
        fleet, gateway, stats = scripted_fleet(config, LoopGateway)

        async def main():
            stop_at = asyncio.get_running_loop().time() + 0.2
            await fleet.drive(gateway, stop_at, drain_grace_s=0.1)
            return stop_at

        stop_at = asyncio.run(main())
        assert sum(stats.grant_counts) == 5
        assert stats.releases == 5
        assert fleet.holding == {} and gateway.pending == 0
        assert all(t >= stop_at + 0.1 for t in gateway.times("release"))
