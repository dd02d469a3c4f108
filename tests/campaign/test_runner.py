"""Tests for the campaign runner: execution, streaming, resume, pools."""

import json

import pytest

from repro.campaign import (
    Shard,
    SweepSpec,
    aggregate_sim,
    parallel_map,
    read_records,
    run_shards,
    truncate_lines,
)


def sweep(trials=4, steps=80, seed=7, topology="ring:4"):
    return SweepSpec(topologies=(topology,), trials=trials, steps=steps, seed=seed)


class TestRunShards:
    def test_sequential_executes_everything(self):
        shards = sweep().shards()
        result = run_shards(shards, jobs=1)
        assert result.executed == len(shards)
        assert result.resumed == 0
        assert set(result.records) == {s.key for s in shards}
        for record in result.records.values():
            assert record.result["steps"] == 80
            assert record.meta is not None and "worker" in record.meta

    def test_parallel_matches_sequential(self):
        shards = sweep().shards()
        seq = run_shards(shards, jobs=1)
        par = run_shards(shards, jobs=3)
        assert seq.results_by_key() == par.results_by_key()

    def test_streams_jsonl(self, tmp_path):
        path = tmp_path / "out.jsonl"
        shards = sweep(trials=3).shards()
        run_shards(shards, jobs=1, out_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        keys = [json.loads(line)["key"] for line in lines]
        assert keys == sorted(keys)  # finalized in canonical order

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_shards([], jobs=0)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown shard kind"):
            run_shards([Shard("nonsense", {}, 0)], jobs=1)


class TestResume:
    def test_kill_then_resume_equals_fresh_run(self, tmp_path):
        """The acceptance scenario: truncate the JSONL mid-campaign (even
        mid-line) and re-run; the merged results equal an uninterrupted run."""
        shards = sweep(trials=6, steps=100).shards()
        fresh_path = tmp_path / "fresh.jsonl"
        fresh = run_shards(shards, jobs=1, out_path=fresh_path)

        killed_path = tmp_path / "killed.jsonl"
        run_shards(shards, jobs=1, out_path=killed_path)
        truncate_lines(killed_path, 3)
        # simulate a kill mid-write: append half a record line
        with killed_path.open("a") as handle:
            handle.write(fresh_path.read_text().splitlines()[3][:40])

        resumed = run_shards(shards, jobs=2, out_path=killed_path)
        assert resumed.resumed == 3
        assert resumed.executed == 3
        assert resumed.results_by_key() == fresh.results_by_key()
        assert aggregate_sim(resumed.records) == aggregate_sim(fresh.records)

    def test_complete_file_executes_nothing(self, tmp_path):
        shards = sweep(trials=3).shards()
        path = tmp_path / "out.jsonl"
        run_shards(shards, jobs=1, out_path=path)
        again = run_shards(shards, jobs=1, out_path=path)
        assert again.executed == 0
        assert again.resumed == 3

    def test_fresh_ignores_checkpoint(self, tmp_path):
        shards = sweep(trials=3).shards()
        path = tmp_path / "out.jsonl"
        run_shards(shards, jobs=1, out_path=path)
        again = run_shards(shards, jobs=1, out_path=path, resume=False)
        assert again.executed == 3
        assert again.resumed == 0

    def test_finalize_drops_foreign_records(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_shards(sweep(trials=2, seed=1).shards(), jobs=1, out_path=path)
        result = run_shards(sweep(trials=2, seed=2).shards(), jobs=1, out_path=path)
        assert result.foreign == 2
        keys = {r.key for r in read_records(path)}
        assert keys == set(result.records)


class TestParallelMap:
    def test_sequential_and_parallel_agree(self):
        from repro.campaign.shard import execute_shard

        shards = sweep(trials=3).shards()
        seq = parallel_map(execute_shard, shards, jobs=1)
        par = parallel_map(execute_shard, shards, jobs=2)
        # order-preserving, and the live objects come back whole
        assert [r.key for r in par] == [s.key for s in shards]
        assert [r.result for r in par] == [r.result for r in seq]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            parallel_map(len, [], jobs=0)


class TestHeartbeatProgress:
    def _run(self, every, total, times):
        import io

        from repro.campaign import heartbeat_progress

        clock = iter(times)
        out = io.StringIO()
        progress = heartbeat_progress(
            every, stream=out, clock=lambda: next(clock)
        )
        from repro.campaign import TrialRecord

        rec = TrialRecord(key="k", kind="sim", params={}, seed=0, result={})
        for done in range(1, total + 1):
            progress(rec, done, total)
        return out.getvalue().splitlines()

    def test_one_line_per_interval_plus_final(self):
        lines = self._run(every=2, total=5, times=[float(i) for i in range(10)])
        # completions 2, 4 hit the interval; 5 is the final shard.
        assert len(lines) == 3
        assert lines[0].startswith("[2/5]")
        assert lines[-1].startswith("[5/5]")

    def test_line_carries_rate_and_eta(self):
        lines = self._run(every=2, total=4, times=[0.0, 0.0, 1.0, 1.0, 2.0])
        assert "elapsed" in lines[0] and "eta" in lines[0]

    def test_bad_interval_rejected(self):
        from repro.campaign import heartbeat_progress

        with pytest.raises(ValueError):
            heartbeat_progress(0)


class TestCampaignMetrics:
    def test_aggregates_from_records(self):
        from repro.campaign import campaign_metrics

        result = run_shards(sweep(trials=3).shards())
        registry = campaign_metrics(result.records)
        snap = registry.snapshot(include_meta=True)
        assert snap["campaign/shards"]["value"] == 3
        assert snap["campaign/kind/sim"]["value"] == 3
        assert snap["campaign/total_eats"]["count"] == 3
        # sequential in-process shards still record wall time
        assert snap["campaign/shard_duration"]["count"] == 3

    def test_duration_timer_is_meta(self):
        from repro.campaign import campaign_metrics

        result = run_shards(sweep(trials=2).shards())
        registry = campaign_metrics(result.records)
        assert "campaign/shard_duration" not in registry.snapshot(
            include_meta=False
        )

    def test_merges_into_existing_registry(self):
        from repro.campaign import campaign_metrics
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("suite/x").set(1)
        result = run_shards(sweep(trials=2).shards())
        merged = campaign_metrics(result.records, registry)
        assert merged is registry
        assert "suite/x" in registry and "campaign/shards" in registry

    def test_deterministic_over_record_order(self):
        from repro.campaign import campaign_metrics

        result = run_shards(sweep(trials=3).shards())
        a = campaign_metrics(result.records).snapshot(include_meta=False)
        reversed_records = dict(reversed(list(result.records.items())))
        b = campaign_metrics(reversed_records).snapshot(include_meta=False)
        assert a == b


class TestShardDuration:
    def test_execute_shard_stamps_duration(self):
        from repro.campaign import execute_shard

        shard = sweep(trials=1).shards()[0]
        record = execute_shard(shard)
        assert record.duration_s is not None and record.duration_s >= 0

    def test_duration_survives_jsonl_stream(self, tmp_path):
        path = tmp_path / "records.jsonl"
        run_shards(sweep(trials=2).shards(), out_path=path)
        records = read_records(path)
        assert records and all(r.duration_s is not None for r in records)

    def test_no_meta_strips_duration(self, tmp_path):
        path = tmp_path / "records.jsonl"
        run_shards(sweep(trials=2).shards(), out_path=path, include_meta=False)
        records = read_records(path)
        assert records and all(r.duration_s is None for r in records)
