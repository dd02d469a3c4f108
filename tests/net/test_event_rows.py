"""The supervisor's event rows: a run keeps every one of them, so peer
traffic is counted (``msgs_out``/``msgs_in``), not logged as a row per
frame — and nothing downstream may write to a row."""

import asyncio
import copy
import hashlib
import re
import tracemalloc
import types
from pathlib import Path

from repro.cli import main
from repro.net import ClusterConfig, ClusterSupervisor, soak, write_cluster_events
from repro.net.cluster import EventRow
from repro.net.codec import T_MSG
from repro.obs import read_metrics
from repro.obs.events import NetEventKind
from repro.obs.slo import read_slo_spec
from repro.sim import ring
from repro.sim.trace import TraceEvent

SLO_SPEC = Path(__file__).resolve().parents[2] / "examples" / "slo.json"


def config(**overrides):
    defaults = dict(
        topology=ring(3), topology_spec="ring:3", seed=3,
        tick_interval=0.005, lock_service=True, chaos=False,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def test_traffic_is_counted_not_logged():
    """No row per peer frame: the frame counters are the record, and a
    grant costs a handful of rows (it cost 14 while every frame was one)."""
    cluster = asyncio.run(soak(config(), 0.6, hold_s=0.005)).cluster
    assert not [
        e for e in cluster.events if e["event"] in ("net-send", "net-recv")
    ]
    assert len(cluster.counters) == 3
    for counters in cluster.counters.values():
        assert counters["msgs_out"] > 0 and counters["msgs_in"] > 0
    assert cluster.total_grants > 0
    assert len(cluster.events) / cluster.total_grants <= 3


def test_the_counters_reach_stats_and_the_metrics_artefact(tmp_path, capsys):
    events, metrics = tmp_path / "soak.events", tmp_path / "soak.metrics"
    main(["cluster", "soak", "--nodes", "3", "--seed", "3", "--duration",
          "0.6", "--tick-interval", "0.005", "--no-chaos", "--hold", "0.005",
          "--events-out", str(events), "--metrics-out", str(metrics)])
    capsys.readouterr()
    main(["stats", str(events)])
    lines = re.findall(r"msgs in/out=(\d+)/(\d+)", capsys.readouterr().out)
    assert len(lines) == 3
    assert all(int(n_in) > 0 and int(n_out) > 0 for n_in, n_out in lines)
    recorded = read_metrics(metrics).metrics
    for node in ("0", "1", "2"):
        assert recorded[f"net/{node}/msgs_out"]["value"] > 0


def test_an_armed_flight_ring_records_each_peer_frame_once(
    tmp_path, monkeypatch
):
    """A sent or received peer frame is its ``note_frame`` and nothing
    else: no event row follows it into the ring."""
    init = ClusterSupervisor.__init__
    supervisors = []

    def capturing_init(self, cfg):
        init(self, cfg)
        supervisors.append(self)

    monkeypatch.setattr(ClusterSupervisor, "__init__", capturing_init)
    cluster = asyncio.run(soak(
        config(flight_dir=str(tmp_path), flight_capacity=1_000_000),
        0.4, hold_s=0.005,
    )).cluster
    (supervisor,) = supervisors
    for node, counters in cluster.counters.items():
        flight = supervisor.flights[node]
        assert flight.dropped == 0
        peer_records = [
            r for r in flight.records()
            if r.get("event") in ("net-send", "net-recv")
            or r["rec"] == "frame" and (r["dir"] == "out" or r["type"] == T_MSG)
        ]
        frames = counters["msgs_out"] + counters["msgs_in"]
        assert frames > 0 and len(peer_records) == frames


def test_a_row_reads_as_the_mapping_it_is_written_as():
    supervisor = ClusterSupervisor(config())
    supervisor.bus.publish(TraceEvent(
        0, NetEventKind.GRANT, 2, {"t": 0.75, "req": "c.1"}
    ))
    supervisor.bus.publish(TraceEvent(1, NetEventKind.RELEASE, 2, {"t": 0.875}))
    granted, released = supervisor.events
    assert dict(granted) == {
        "t": 0.75, "node": "2", "event": "net-grant", "detail": {"req": "c.1"},
    }
    assert {**released} == {"t": 0.875, "node": "2", "event": "net-release"}
    assert released.get("detail", {}) == {} and "detail" not in released
    assert granted == copy.deepcopy(granted) != released


def test_a_traffic_row_retains_at_most_110_bytes():
    """A lock-service row without detail, as ``net-release`` is
    published: four slots and its timestamp."""
    supervisor = ClusterSupervisor(config())
    rows = 20_000

    def publish(n):
        for seq in range(n):
            supervisor.bus.publish(TraceEvent(
                seq, NetEventKind.RELEASE, seq % 3, {"t": seq / 1024.0},
            ))

    publish(16)  # labels and the list's first growth
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    publish(rows)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (after - before) / rows <= 110


def test_nothing_downstream_writes_to_a_row(tmp_path, monkeypatch):
    """A traced, SLO-judged, flight-recorded soak under the adaptive
    adversary runs to the end with every row's detail frozen: a consumer
    that assigned into one would raise ``TypeError`` mid-run."""
    init = ClusterSupervisor.__init__
    row_init = EventRow.__init__
    supervisors = []

    def capturing_init(self, cfg):
        init(self, cfg)
        supervisors.append(self)

    def frozen_row(self, t, node, event, detail):
        row_init(self, t, node, event, detail)
        if self.detail is not None:
            self.detail = types.MappingProxyType(self.detail)

    monkeypatch.setattr(ClusterSupervisor, "__init__", capturing_init)
    monkeypatch.setattr(EventRow, "__init__", frozen_row)
    result = asyncio.run(soak(
        config(
            trace_dir=str(tmp_path / "spans"),
            flight_dir=str(tmp_path / "flight"),
            slo=read_slo_spec(SLO_SPEC),
            adaptive=True,
            adaptive_interval=0.1,
        ),
        1.0,
        hold_s=0.005,
    ))
    assert result.safe
    (supervisor,) = supervisors
    frozen = [
        e for e in result.cluster.events
        if isinstance(e.get("detail"), types.MappingProxyType)
    ]
    assert len(frozen) > 50
    assert supervisor.flights and all(
        f.recorded for f in supervisor.flights.values()
    )


def test_the_artefact_writer_leaves_rows_as_they_were(tmp_path):
    result = asyncio.run(soak(config(), 0.4, hold_s=0.005)).cluster
    before = copy.deepcopy(result.events)
    write_cluster_events(tmp_path / "events.jsonl", result)
    assert result.events == before


#: One of each row shape: traffic, detailed, nested detail, bare, node-less.
FIXED_EVENTS = [
    (NetEventKind.CONN_OPEN, 0, {"t": 0.001, "peer": "1"}),
    (NetEventKind.HELLO_OK, 1, {"t": 0.002, "peer": "c-1", "role": "client"}),
    (NetEventKind.SEND, 0, {"t": 0.25, "dst": "1"}),
    (NetEventKind.RECV, 1, {"t": 0.250125, "src": "0"}),
    (NetEventKind.SEND, 0, {"t": 0.5, "dst": "1"}),
    (NetEventKind.SPAN_OPEN, 2, {"t": 0.5, "name": "acquire", "span": "2:7",
                                 "attrs": {"req": "c.1"}}),
    (NetEventKind.GRANT, 2, {"t": 0.75, "req": "c.1", "eats": 3}),
    (NetEventKind.RELEASE, 2, {"t": 0.875}),
    (NetEventKind.CHAOS, None, {"t": 0.9, "kind": "partition",
                                "edge": ["0", "1"]}),
    (NetEventKind.CRASH_DETECT, 1, {"t": 1.0}),
]


def test_rows_reach_the_disk_byte_for_byte_as_dict_rows_did(tmp_path):
    """The digest is of the event lines the commit that still kept dict
    rows wrote for this list, streamed (``stream_events``, which is what
    ``--events-out`` turns on) and post-run (``write_cluster_events``)."""
    supervisor = ClusterSupervisor(config())
    supervisor._stream_handle = supervisor._open_stream(
        str(tmp_path / "stream.events")
    )
    for seq, (kind, pid, detail) in enumerate(FIXED_EVENTS):
        supervisor.bus.publish(TraceEvent(seq, kind, pid, detail))
    supervisor._stream_handle.close()
    written = write_cluster_events(
        tmp_path / "out.events", supervisor.result(1.0)
    )
    for path in (tmp_path / "stream.events", written):
        _header, *rows = path.read_bytes().splitlines(keepends=True)
        assert rows[7] == (
            b'{"event":"net-release","kind":"event","node":"2","t":0.875}\n'
        )
        assert hashlib.sha256(b"".join(rows)).hexdigest()[:16] == (
            "dda35e5efbe32dd6"
        )
