"""The supervisor's event rows: a run keeps every one of them, so the bulk
(``net-send``/``net-recv``) must share their node label and detail dict —
and nothing downstream may write to a row."""

import asyncio
import copy
import tracemalloc
import types
from pathlib import Path

from repro.net import ClusterConfig, ClusterSupervisor, soak, write_cluster_events
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


def test_send_and_recv_rows_share_label_and_detail():
    result = asyncio.run(soak(config(), 0.6, hold_s=0.005))
    traffic = [
        e for e in result.cluster.events
        if e["event"] in ("net-send", "net-recv")
    ]
    assert len(traffic) > 50
    details, labels = {}, {}
    for row in traffic:
        (item,) = row["detail"].items()
        assert details.setdefault(item, row["detail"]) is row["detail"]
        assert labels.setdefault(row["node"], row["node"]) is row["node"]
    assert len(details) == 6  # {"dst"|"src": peer} for three peers, run-wide


def test_a_traffic_row_retains_at_most_260_bytes():
    supervisor = ClusterSupervisor(config())
    rows = 20_000

    def publish(n):
        for seq in range(n):
            supervisor.bus.publish(TraceEvent(
                seq, NetEventKind.SEND, seq % 3,
                {"t": seq / 1024.0, "dst": repr((seq + 1) % 3)},
            ))

    publish(16)  # labels, shared details and the list's first growth
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    publish(rows)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (after - before) / rows <= 260


class _Freezing(dict):
    """``_details`` stand-in: every shared dict goes out read-only."""

    def setdefault(self, key, value):
        return super().setdefault(key, types.MappingProxyType(value))


def test_nothing_downstream_writes_to_a_row(tmp_path, monkeypatch):
    """A traced, SLO-judged, flight-recorded soak under the adaptive
    adversary runs to the end with every shared detail frozen: a consumer
    that assigned into one would raise ``TypeError`` mid-run."""
    init = ClusterSupervisor.__init__
    supervisors = []

    def frozen_init(self, cfg):
        init(self, cfg)
        self._details = _Freezing()
        supervisors.append(self)

    monkeypatch.setattr(ClusterSupervisor, "__init__", frozen_init)
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
