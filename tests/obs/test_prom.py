"""Prometheus text exposition and the `repro top` renderer."""

import pytest

from repro.obs.prom import (
    Sample,
    find,
    parse_prometheus,
    render_prometheus,
    sanitize_name,
)
from repro.obs.top import render_top, run_top


def samples():
    return [
        Sample("repro_cluster_uptime_seconds", 2.5,
               help="Seconds since start"),
        Sample("repro_node_up", 1, labels={"node": "0"}),
        Sample("repro_node_up", 0, labels={"node": "1"}),
        Sample("repro_node_grants_total", 7, labels={"node": "0"},
               kind="counter"),
        Sample("repro_edge_retransmits_total", 3,
               labels={"node": "0", "peer": "1"}, kind="counter"),
        Sample("repro_cluster_hunger_latency_seconds", 0.125,
               labels={"q": "0.9"}),
        Sample("repro_cluster_waiting_chain_length", 3),
        Sample("repro_cluster_precedence_depth", 1),
    ]


class TestExposition:
    def test_roundtrip(self):
        text = render_prometheus(samples())
        parsed = parse_prometheus(text)
        assert find(parsed, "repro_node_up", node="0").value == 1
        assert find(parsed, "repro_node_up", node="1").value == 0
        grants = find(parsed, "repro_node_grants_total", node="0")
        assert grants.value == 7
        assert grants.kind == "counter"
        edge = find(parsed, "repro_edge_retransmits_total",
                    node="0", peer="1")
        assert edge.value == 3
        assert find(parsed, "repro_cluster_hunger_latency_seconds",
                    q="0.9").value == pytest.approx(0.125)

    def test_render_is_deterministic_under_permutation(self):
        text = render_prometheus(samples())
        assert render_prometheus(reversed(samples())) == text

    def test_help_and_type_comments(self):
        text = render_prometheus(samples())
        assert "# HELP repro_cluster_uptime_seconds Seconds since start" in text
        assert "# TYPE repro_node_grants_total counter" in text

    def test_integers_render_without_decimal_point(self):
        text = render_prometheus([Sample("x_total", 4.0)])
        assert "x_total 4\n" in text

    def test_label_escaping_roundtrip(self):
        original = Sample("x", 1, labels={"node": 'a"b\\c'})
        parsed = parse_prometheus(render_prometheus([original]))
        assert parsed[0].labels == original.labels

    def test_parse_skips_junk(self):
        parsed = parse_prometheus("# comment\nnot a sample!!\nx 1\nbad nan?\n")
        assert [s.name for s in parsed] == ["x"]

    def test_sanitize_name(self):
        assert sanitize_name("net/codec/roundtrip") == "net_codec_roundtrip"
        assert sanitize_name("0weird") == "_0weird"


class TestLineEndingTolerance:
    """Proxied /metrics bodies arrive mangled: CRLF, trailing blanks, BOM."""

    def test_crlf_document_parses_like_lf(self):
        text = render_prometheus(samples())
        crlf = text.replace("\n", "\r\n")
        assert parse_prometheus(crlf) == parse_prometheus(text)

    def test_crlf_keeps_counter_kind_clean(self):
        # The TYPE comment is the dangerous line: a stray \r glued to the
        # kind token used to record kind="counter\r".
        text = (
            "# TYPE repro_node_grants_total counter\r\n"
            "repro_node_grants_total 7\r\n"
        )
        parsed = parse_prometheus(text)
        assert parsed[0].kind == "counter"
        assert parsed[0].value == 7

    def test_trailing_whitespace_tolerated(self):
        text = "x_total 4   \n# TYPE y counter\t\ny 2\t \n"
        parsed = {s.name: s for s in parse_prometheus(text)}
        assert parsed["x_total"].value == 4
        assert parsed["y"].kind == "counter"

    def test_bom_prefix_tolerated(self):
        text = "\ufeffx 1\n"
        parsed = parse_prometheus(text)
        assert [s.name for s in parsed] == ["x"]
        assert parsed[0].value == 1

    def test_blank_and_whitespace_only_lines_skipped(self):
        parsed = parse_prometheus("\r\n   \r\nx 1\r\n\t\r\n")
        assert [s.name for s in parsed] == ["x"]

    def test_mangled_roundtrip_with_labels(self):
        text = render_prometheus(samples())
        mangled = "\ufeff" + "".join(
            line + "  \r\n" for line in text.splitlines()
        )
        assert parse_prometheus(mangled) == parse_prometheus(text)


class TestTopRenderer:
    def test_snapshot_without_previous(self):
        body = render_top(samples())
        assert "nodes 2" in body
        assert "waiting-chain 3  priority-depth 1" in body
        assert "hunger p90: 0.125s" in body
        assert "0 -> 1: 3" in body

    def test_rates_from_consecutive_sets(self):
        later = [
            Sample("repro_node_up", 1, labels={"node": "0"}),
            Sample("repro_node_grants_total", 12, labels={"node": "0"},
                   kind="counter"),
        ]
        earlier = [
            Sample("repro_node_grants_total", 7, labels={"node": "0"},
                   kind="counter"),
        ]
        body = render_top(later, earlier, interval_s=1.0)
        assert "5.0" in body  # 12 - 7 over one second

    def test_run_top_polls_and_clears(self):
        frames = []
        feeds = iter([
            render_prometheus(samples()),
            render_prometheus(samples()),
        ])

        def fake_fetch(url, **kwargs):
            return next(feeds)

        import repro.obs.top as top_mod
        original = top_mod.fetch_metrics
        top_mod.fetch_metrics = fake_fetch
        try:
            status = run_top("http://x/metrics", iterations=2,
                             out=frames.append, sleep=lambda s: None)
        finally:
            top_mod.fetch_metrics = original
        assert status == 0
        assert len(frames) == 2
        assert not frames[0].startswith("\x1b")
        assert frames[1].startswith("\x1b")

    def test_run_top_first_fetch_failure_raises(self):
        import repro.obs.top as top_mod

        def fail(url, **kwargs):
            raise OSError("nope")

        original = top_mod.fetch_metrics
        top_mod.fetch_metrics = fail
        try:
            with pytest.raises(OSError):
                run_top("http://x/metrics", iterations=1)
        finally:
            top_mod.fetch_metrics = original
