"""Live byzantine boundary: a run whose "crashed" node never halts.

The cluster-level twin of ``tests/adversary/test_byzantine.py``: one node
is subverted at its scheduled crash time and keeps emitting protocol
frames.  The audit must (a) observe real neighbour-exclusion violations,
(b) attribute every one of them to the subverted node, and (c) report a
system that is safe once that node is excluded — the failing-then-excluded
reading of the paper's malicious-crash model.  Soak clients and the live
loadgen fleet are two traffics of one supervised run, so both must reach
the same verdict and freeze the same black boxes.
"""

import asyncio

import pytest

from repro.gateway import LoadgenConfig, run_live
from repro.net import ClusterConfig, attribute_violations, neighbour_violations, soak
from repro.net.lock import violation_lines
from repro.obs.flight import read_flight
from repro.sim import ring


def byzantine_config(flight_dir):
    return ClusterConfig(
        topology=ring(3),
        topology_spec="ring:3",
        seed=5,
        tick_interval=0.005,
        lock_service=True,
        chaos=True,
        partitions=0,
        malicious_crashes=0,
        byzantine=1,
        flight_dir=str(flight_dir),
    )


@pytest.fixture(scope="module")
def soak_flights(tmp_path_factory):
    return tmp_path_factory.mktemp("soak-flight")


@pytest.fixture(scope="module")
def byzantine_soak(soak_flights):
    return asyncio.run(soak(byzantine_config(soak_flights), 6.0, hold_s=0.02))


@pytest.fixture(scope="module")
def byzantine_loadgen(tmp_path_factory):
    flights = tmp_path_factory.mktemp("loadgen-flight")
    fleet = LoadgenConfig(clients=3, nodes=3, topology="ring:3", seed=5,
                          duration_s=6.0, think_s=0.02, hold_s=0.02)
    _, result, violations = asyncio.run(
        run_live(fleet, byzantine_config(flights))
    )
    return violations, result.byzantine, flights


@pytest.fixture(params=["soak", "loadgen"])
def byzantine_run(request, soak_flights):
    """``(violations, byzantine, flight_dir)`` of one run per traffic."""
    if request.param == "loadgen":
        return request.getfixturevalue("byzantine_loadgen")
    result = request.getfixturevalue("byzantine_soak")
    return result.violations, result.cluster.byzantine, soak_flights


class TestByzantineTraffic:
    def test_safety_is_violated(self, byzantine_run):
        violations, byzantine, _ = byzantine_run
        assert violations
        assert len(byzantine) == 1

    def test_blame_is_the_byzantine_set(self, byzantine_run):
        violations, byzantine, _ = byzantine_run
        assert attribute_violations(violations) == byzantine

    def test_printed_attribution_matches(self, byzantine_run):
        violations, byzantine, _ = byzantine_run
        lines = violation_lines(violations, byzantine)
        assert lines[0] == f"    {violations[0]}"
        assert lines[-1] == (f"  attribution: blames {byzantine[0]} "
                             f"(byzantine set matches: {byzantine[0]})")

    def test_violation_freezes_the_black_boxes(self, byzantine_run):
        _, _, flight_dir = byzantine_run
        dumps = sorted(flight_dir.glob("flight-*.jsonl"))
        assert dumps
        for path in dumps:
            assert read_flight(path).header["reason"] == "soak-violation"


class TestByzantineSoak:
    def test_one_node_was_subverted(self, byzantine_soak):
        assert len(byzantine_soak.cluster.byzantine) == 1

    def test_safety_is_violated(self, byzantine_soak):
        assert byzantine_soak.violations

    def test_blame_lands_on_the_subverted_node(self, byzantine_soak):
        assert byzantine_soak.blamed == byzantine_soak.cluster.byzantine
        byz = byzantine_soak.cluster.byzantine[0]
        for v in byzantine_soak.violations:
            assert byz in (v.node_a, v.node_b)

    def test_soak_result_mirrors_cluster_result(self, byzantine_soak):
        assert byzantine_soak.byzantine == byzantine_soak.cluster.byzantine

    def test_excluding_the_culprit_clears_the_audit(self, byzantine_soak):
        result = byzantine_soak
        remaining = neighbour_violations(
            ring(3),
            result.intervals,
            exclude=result.byzantine + result.cluster.killed,
        )
        assert remaining == []
