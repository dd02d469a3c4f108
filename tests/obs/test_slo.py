"""Unit tests for the SLO engine: spec validation, budget math, reports,
artefact ingestion, and the live evaluator's agreement with offline."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.net.cluster import ClusterConfig, ClusterSupervisor, read_cluster_events
from repro.obs import (
    NetEventKind,
    TraceEvent,
    find,
    LiveSloEvaluator,
    SloObjective,
    SloObservations,
    SloSpec,
    evaluate,
    evaluate_objective,
    ingest_artefact,
    read_slo_report,
    read_slo_spec,
    summarize_slo_report,
    write_slo_report,
)
from repro.sim import ring

FIXTURES = Path(__file__).parent / "fixtures" / "slo"


def fixture_spec():
    return read_slo_spec(FIXTURES / "spec.json")


class TestSpecValidation:
    def test_fixture_spec_loads(self):
        spec = fixture_spec()
        assert spec.name == "fixture"
        assert [o.name for o in spec.objectives] == [
            "grant-p50", "hunger", "fairness", "chain", "convergence", "safety",
        ]

    def test_committed_example_loads(self):
        spec = read_slo_spec(
            Path(__file__).parents[2] / "examples" / "slo.json"
        )
        assert spec.objective("safety").hard

    def test_threshold_required_except_safety(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="grant_latency")
        SloObjective(name="x", kind="safety")  # fine

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="latency")

    def test_bad_target_rejected(self):
        for target in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                SloObjective(
                    name="x", kind="grant_latency", threshold=1.0, target=target
                )

    def test_duplicate_objective_names_rejected(self):
        o = SloObjective(name="x", kind="safety")
        with pytest.raises(ValueError):
            SloSpec(name="s", objectives=(o, o))

    def test_spec_needs_objectives(self):
        with pytest.raises(ValueError):
            SloSpec(name="s", objectives=())

    def test_wrong_document_kind_rejected(self):
        with pytest.raises(ValueError):
            SloSpec.from_json({"format": 1, "kind": "slo-report"})

    def test_read_error_names_the_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="bad.json"):
            read_slo_spec(bad)

    def test_hardness(self):
        assert SloObjective(name="s", kind="safety").hard
        assert SloObjective(name="h", kind="hunger", threshold=1.0).hard
        assert not SloObjective(
            name="p", kind="grant_latency", threshold=1.0, target=0.99
        ).hard
        # Fairness is scalar: never hard, whatever the target says.
        assert not SloObjective(name="f", kind="fairness", threshold=1.0).hard


class TestBudgetMath:
    def _grants(self, waits, spacing=1.0):
        obs = SloObservations(duration_s=len(waits) * spacing)
        for i, wait in enumerate(waits):
            obs.grants.append((i * spacing, "0", wait))
        return obs

    def test_soft_budget_spent_fraction(self):
        # target 0.9 tolerates 10% bad; 2 bad of 10 = double the budget.
        objective = SloObjective(
            name="p", kind="grant_latency", threshold=1.0, target=0.9
        )
        verdict = evaluate_objective(
            objective, self._grants([0.1] * 8 + [5.0, 5.0])
        )
        assert verdict.total == 10 and verdict.bad == 2
        assert verdict.budget_spent == pytest.approx(2.0)
        assert not verdict.ok

    def test_soft_budget_half_spent(self):
        objective = SloObjective(
            name="p", kind="grant_latency", threshold=1.0, target=0.9
        )
        verdict = evaluate_objective(
            objective, self._grants([0.1] * 19 + [5.0])
        )
        assert verdict.budget_spent == pytest.approx(0.5)
        assert verdict.ok
        assert verdict.budget_remaining == pytest.approx(0.5)

    def test_hard_objective_counts_offences(self):
        objective = SloObjective(name="h", kind="hunger", threshold=1.0)
        verdict = evaluate_objective(objective, self._grants([0.5, 2.0, 3.0]))
        assert verdict.hard
        assert verdict.budget_spent == 2.0
        assert not verdict.ok

    def test_empty_observations_spend_nothing(self):
        spec = fixture_spec()
        report = evaluate(spec, SloObservations())
        assert report.ok
        assert all(v.budget_spent == 0.0 for v in report.verdicts)

    def test_safety_zero_budget(self):
        objective = SloObjective(name="s", kind="safety")
        obs = SloObservations(duration_s=2.0)
        obs.violation_times.append(1.0)
        verdict = evaluate_objective(objective, obs)
        assert verdict.budget_spent == 1.0
        assert not verdict.ok
        assert verdict.burn_rate == 1.0

    def test_safety_counts_from_metrics_only_artefacts(self):
        objective = SloObjective(name="s", kind="safety")
        obs = SloObservations(duration_s=2.0)
        obs.violation_count = 3
        verdict = evaluate_objective(objective, obs)
        assert verdict.bad == 3 and verdict.budget_spent == 3.0

    def test_fairness_is_scalar_headroom(self):
        objective = SloObjective(name="f", kind="fairness", threshold=0.5)
        obs = SloObservations(duration_s=4.0)
        # Means 1.0 and 3.0: mean 2.0, stdev 1.0, CV 0.5 == threshold.
        obs.grants.extend([(0.0, "0", 1.0), (1.0, "1", 3.0)])
        verdict = evaluate_objective(objective, obs)
        assert verdict.value == pytest.approx(0.5)
        assert verdict.budget_spent == pytest.approx(1.0)
        assert not verdict.ok

    def test_burn_rate_is_worst_window(self):
        objective = SloObjective(
            name="p", kind="grant_latency", threshold=1.0, target=0.5,
            window_s=1.0,
        )
        obs = SloObservations(duration_s=3.0)
        # Window [0,1): all good.  Window [1,2): all bad -> burn 1/0.5 = 2.
        obs.grants.extend([(0.1, "0", 0.1), (0.2, "0", 0.1)])
        obs.grants.extend([(1.1, "0", 9.0), (1.2, "0", 9.0)])
        verdict = evaluate_objective(objective, obs)
        assert verdict.burn_rate == pytest.approx(2.0)

    def test_convergence_deadline(self):
        objective = SloObjective(name="c", kind="convergence", threshold=2.0)
        obs = SloObservations(duration_s=10.0)
        obs.convergence_s = {"0": 1.0, "1": 3.5}
        verdict = evaluate_objective(objective, obs)
        assert verdict.value == 3.5
        assert verdict.bad == 1
        assert not verdict.ok


class TestReportDocument:
    def _report(self):
        obs = SloObservations()
        ingest_artefact(obs, FIXTURES / "clean.events")
        return evaluate(fixture_spec(), obs)

    def test_write_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_slo_report(a, self._report())
        write_slo_report(b, self._report())
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_and_kind_gate(self, tmp_path):
        path = tmp_path / "r.json"
        write_slo_report(path, self._report())
        doc = read_slo_report(path)
        assert doc["kind"] == "slo-report"
        assert doc["spec"] == "fixture"
        assert doc["ok"] is True
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"kind": "slo-spec"}')
        with pytest.raises(ValueError):
            read_slo_report(foreign)

    def test_no_wallclock_in_document(self, tmp_path):
        path = tmp_path / "r.json"
        write_slo_report(path, self._report())
        text = path.read_text()
        for forbidden in ("timestamp", "hostname", "version", "202"):
            assert forbidden not in text

    def test_format_report_verdict_line(self):
        lines = summarize_slo_report(self._report().to_json())
        assert lines[-1].startswith("budget: OK")
        obs = SloObservations()
        ingest_artefact(obs, FIXTURES / "violation.events")
        lines = summarize_slo_report(evaluate(fixture_spec(), obs).to_json())
        assert lines[-1] == "budget: EXHAUSTED — safety"


class TestIngestArtefact:
    def test_clean_fixture_counts(self):
        obs = SloObservations()
        assert ingest_artefact(obs, FIXTURES / "clean.events") == "events"
        assert obs.counts() == {
            "grants": 6, "chain_samples": 24, "convergence": 1, "violations": 0,
        }
        assert obs.duration_s == 4.0

    def test_violation_fixture_exhausts_only_safety(self):
        obs = SloObservations()
        ingest_artefact(obs, FIXTURES / "violation.events")
        report = evaluate(fixture_spec(), obs)
        assert report.exhausted == ["safety"]

    def test_foreign_file_rejected(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError):
            ingest_artefact(SloObservations(), junk)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_artefact(SloObservations(), tmp_path / "absent.jsonl")


class TestLiveEvaluator:
    def _feed(self, name):
        header, events, skipped = read_cluster_events(FIXTURES / name)
        assert skipped == 0
        live = LiveSloEvaluator(fixture_spec(), ring(3))
        hits = []
        for event in events:
            hits.extend(live.on_event(event))
        live.obs.observe_duration(header["duration_s"])
        return live, hits

    def test_clean_run_stays_within_budget(self):
        live, hits = self._feed("clean.events")
        assert hits == []
        assert live.exhausted == []
        assert live.report().ok

    def test_violation_detected_live_with_implicated_nodes(self):
        live, hits = self._feed("violation.events")
        assert live.exhausted == ["safety"]
        safety = [h for h in hits if h["objective"] == "safety"]
        assert len(safety) == 1
        assert safety[0]["nodes"] == ["0", "1"]

    def test_live_report_matches_offline(self):
        """The acceptance criterion: live and offline verdicts agree —
        including across a node stopped mid-hold, a release that lands
        after the stop, and a restart that acquires while both neighbours
        wait (``restart.events``)."""
        for name in ("clean.events", "violation.events", "restart.events"):
            live, _hits = self._feed(name)
            offline = SloObservations()
            ingest_artefact(offline, FIXTURES / name)
            assert (
                live.report().to_json()
                == evaluate(fixture_spec(), offline).to_json()
            )

    def test_metrics_chain_is_the_slo_chain(self):
        """``/metrics`` and the SLO objective read one fold: replayed
        through a supervisor, the crash-restart rows give the same waiting
        chain on the live page as in the evaluator, row by row."""
        _header, events, _skipped = read_cluster_events(FIXTURES / "restart.events")
        supervisor = ClusterSupervisor(ClusterConfig(
            topology=ring(3), topology_spec="ring:3", lock_service=True,
        ))
        supervisor.precedence_depth = lambda: 0  # no node servers to read
        live = LiveSloEvaluator(fixture_spec(), ring(3))

        async def replay():
            lengths = []
            for seq, row in enumerate(events):
                supervisor.bus.publish(TraceEvent(
                    seq, NetEventKind(row["event"]), int(row["node"]),
                    {"t": row["t"], **row.get("detail", {})},
                ))
                live.on_event(row)
                gauge = find(
                    supervisor.live_samples(), "repro_cluster_waiting_chain_length"
                )
                assert gauge.value == len(live.state.waiting_chain())
                lengths.append(gauge.value)
            return lengths

        assert max(asyncio.run(replay())) == 3  # the restarted node joins

    def test_reconcile_safety_adopts_audit_wholesale(self):
        live, _ = self._feed("clean.events")
        live.reconcile_safety([0.5, 1.5])
        assert live.obs.violations == 2
        # The interval audit is authoritative both ways: an empty audit
        # clears live false positives (e.g. a crashed holder counted
        # before the crash was detected).
        live.reconcile_safety([])
        assert live.obs.violations == 0
        assert live.report().ok

    def test_crashed_holder_is_not_a_live_violation(self):
        """A node maliciously crashed mid-hold must not make its
        neighbours' later grants read as exclusion violations."""
        live = LiveSloEvaluator(fixture_spec(), ring(3))
        live.on_event({"t": 0.1, "node": "2", "event": "net-grant"})
        live.on_event({"t": 0.5, "node": "2", "event": "net-crash-detect",
                       "detail": {"expected": True}})
        hits = live.on_event({"t": 1.0, "node": "0", "event": "net-grant"})
        assert hits == []
        assert live.obs.violations == 0
        # Without the crash the same grant is a violation.
        stale = LiveSloEvaluator(fixture_spec(), ring(3))
        stale.on_event({"t": 0.1, "node": "2", "event": "net-grant"})
        hits = stale.on_event({"t": 1.0, "node": "0", "event": "net-grant"})
        assert [h["objective"] for h in hits] == ["safety"]

    def test_samples_export_budget_gauges(self):
        live, _ = self._feed("violation.events")
        samples = {
            (s.name, s.labels["objective"]): s.value for s in live.samples()
        }
        assert samples[("repro_slo_budget_remaining", "safety")] == 0.0
        assert samples[("repro_slo_budget_remaining", "grant-p50")] == 1.0
        assert ("repro_slo_burn_rate", "safety") in samples
