"""End-to-end causal tracing on the live cluster.

A seeded traced soak must leave span artefacts whose offline merge is a
happened-before-consistent global timeline; a byzantine soak's violations
must walk back to the subverted node's spans; and the live ``/metrics``
endpoint must serve parseable Prometheus text mid-run.
"""

import asyncio

import pytest

from repro.net import ClusterConfig, ClusterSupervisor, soak
from repro.obs import (
    attribute_grants,
    causality_report,
    merge_timeline,
    read_spans,
    reconstruct_violations,
    write_timeline,
)
from repro.obs.prom import find, parse_prometheus
from repro.sim import ring


def make_config(trace_dir, **overrides):
    defaults = dict(
        topology=ring(3),
        topology_spec="ring:3",
        seed=5,
        tick_interval=0.005,
        lock_service=True,
        chaos=True,
        trace_dir=str(trace_dir),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture(scope="module")
def traced_soak(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("spans")
    config = make_config(trace_dir)
    result = asyncio.run(soak(config, 2.5, hold_s=0.02))
    return result, trace_dir


def load_spans(result):
    spans_by_node = {}
    for path in result.cluster.trace_paths:
        span_file = read_spans(path)
        for span in span_file.spans:
            spans_by_node.setdefault(span.node, []).append(span)
    return spans_by_node


class TestTracedSoak:
    def test_span_artefact_written_per_node(self, traced_soak):
        result, _ = traced_soak
        assert len(result.cluster.trace_paths) == 3
        spans_by_node = load_spans(result)
        assert set(spans_by_node) == set(result.cluster.nodes)
        for spans in spans_by_node.values():
            # At least the root span plus some acquire lifecycles.
            assert any(s.name == "node" for s in spans)
            assert any(s.name == "acquire" for s in spans)

    def test_merged_timeline_is_causally_consistent(self, traced_soak):
        result, _ = traced_soak
        entries = merge_timeline(load_spans(result))
        assert entries
        report = causality_report(entries)
        assert report.ok, report.violations
        assert report.matched_messages > 0

    def test_grants_get_latency_attribution(self, traced_soak):
        result, _ = traced_soak
        attributions = attribute_grants(load_spans(result))
        assert attributions
        for attribution in attributions:
            parts = (attribution.queue_s + attribution.retransmit_s
                     + attribution.transfer_s)
            assert parts == pytest.approx(attribution.total_s, abs=1e-4)

    def test_timeline_artefact_is_permutation_byte_stable(
        self, traced_soak, tmp_path
    ):
        result, _ = traced_soak
        spans = load_spans(result)
        permuted = dict(reversed(list(spans.items())))
        one = write_timeline(tmp_path / "a.jsonl", merge_timeline(spans))
        two = write_timeline(tmp_path / "b.jsonl", merge_timeline(permuted))
        assert one.read_bytes() == two.read_bytes()

    def test_span_stream_feeds_grant_events(self, traced_soak):
        result, _ = traced_soak
        kinds = {e["event"] for e in result.cluster.events}
        assert "net-span-open" in kinds
        assert "net-span-close" in kinds


class TestByzantineLocalisation:
    @pytest.fixture(scope="class")
    def byzantine_soak(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("byz-spans")
        # The proven byzantine recipe from the integration suite, traced.
        config = make_config(
            trace_dir, partitions=0, malicious_crashes=0, byzantine=1,
        )
        return asyncio.run(soak(config, 6.0, hold_s=0.02))

    def test_violations_walk_back_to_the_subverted_nodes_spans(
        self, byzantine_soak
    ):
        result = byzantine_soak
        assert result.violations  # the recipe guarantees unsafety
        byz = result.cluster.byzantine[0]
        reconstructed = reconstruct_violations(
            ring(3),
            result.cluster.events,
            load_spans(result),
            end_t=6.0,
            exclude=result.cluster.killed,
            byzantine=result.cluster.byzantine,
        )
        assert reconstructed
        for row in reconstructed:
            assert row["byzantine"] == [byz]
            assert byz in (row["node_a"], row["node_b"])
            # The honest side of the overlap has spans covering it.
            honest = (row["node_b"] if row["node_a"] == byz
                      else row["node_a"])
            assert row["spans"][honest]


class TestLiveMetricsEndpoint:
    def test_endpoint_serves_parseable_prometheus_midrun(self, tmp_path):
        from repro.obs.top import fetch_metrics

        config = make_config(
            tmp_path / "spans", lock_service=False, chaos=False,
            metrics_port=0,
        )

        async def scrape():
            supervisor = ClusterSupervisor(config)
            await supervisor.start(3.0)
            try:
                await asyncio.sleep(0.6)
                url = f"http://127.0.0.1:{supervisor.metrics_port}/metrics"
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, fetch_metrics, url)
            finally:
                await supervisor.stop()

        text = asyncio.run(scrape())
        samples = parse_prometheus(text)
        assert find(samples, "repro_cluster_uptime_seconds") is not None
        # ring:3 has three colours: a chain is at most two edges long.
        assert 0 <= find(samples, "repro_cluster_precedence_depth").value <= 2
        nodes = {s.labels["node"] for s in samples
                 if s.name == "repro_node_up"}
        assert nodes == {"0", "1", "2"}
