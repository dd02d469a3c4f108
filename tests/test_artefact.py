"""The artefact registry, driven over every row of ``KINDS``.

Each kind gets one minimal file from its own writer; the same four
questions are then asked of all of them, so a kind added to the table
without a builder here fails ``test_every_row_has_a_builder``.
"""

import builtins
import io
import json
import subprocess
import sys

import pytest

from repro.artefact import KINDS, expand, identify, read_jsonl, write_atomic
from repro.campaign.record import TrialRecord
from repro.cli import main


def _metrics(path):
    from repro.obs import MetricsRegistry, write_metrics

    registry = MetricsRegistry()
    registry.counter("eats").inc(3)
    return write_metrics(path, registry, header={"source": "unit-test"})


def _records(path):
    from repro.campaign.record import write_records

    write_records(path, [TrialRecord("k1", "sim", {"n": 3}, 7, {"eats": 2})])
    return path


def _campaign_trace(path):
    from repro.campaign.record import CampaignTraceLog

    log = CampaignTraceLog(path)
    log.wrap(None)(TrialRecord("k1", "sim", {"n": 3}, 7, {"eats": 2}), 1, 1)
    log.close()
    return path


def _trace(path):
    from repro.obs import Trace, build_header, write_trace

    header = build_header(
        model="sim", algorithm="na-diners", seed=1, steps_taken=0
    )
    return write_trace(path, Trace(header=header, events=()))


def _events(path):
    from repro.net.cluster import ClusterResult, write_cluster_events

    result = ClusterResult(
        topology_spec="ring:3", seed=1, duration_s=1.0, mode="soak",
        nodes=["0", "1", "2"],
        events=[{"t": 0.1, "node": "0", "event": "net-grant"}],
    )
    return write_cluster_events(path, result)


def _spans(path):
    from repro.obs.tracing import SpanRecorder, write_spans

    tracer = SpanRecorder("0")
    tracer.close(tracer.open("acquire", lc=1, t=0.1), lc=2, t=0.2)
    return write_spans(path, tracer)


def _flight(path):
    from repro.obs import FlightRecorder, dump_flight

    recorder = FlightRecorder("0", capacity=4)
    recorder.note_event({"t": 0.1, "event": "net-grant"})
    return dump_flight(path, recorder, reason="unit-test")


def _timeline(path):
    from repro.obs.timeline import TimelineEntry, write_timeline

    entry = TimelineEntry(
        lc=1, node="0", seq=0, span="0/0/1", name="acquire", ev="open", t=0.1
    )
    return write_timeline(path, [entry])


def _loadgen(path):
    from repro.gateway.report import build_report, write_loadgen_report

    return write_loadgen_report(path, build_report({}, {"grants": 0}))


def _slo_spec(path):
    from repro.obs.slo import SloObjective, SloSpec

    spec = SloSpec(name="t", objectives=(SloObjective("safe", "safety"),))
    return write_atomic(path, [json.dumps(spec.to_json(), indent=2)])


def _slo_report(path):
    from repro.obs import SloObservations, evaluate, write_slo_report
    from repro.obs.slo import SloObjective, SloSpec

    spec = SloSpec(name="t", objectives=(SloObjective("safe", "safety"),))
    return write_slo_report(path, evaluate(spec, SloObservations()))


def _bench(path):
    from repro.perf import write_bench

    return write_bench(path, [], env={"python": "3"})


def _schedule(path):
    from repro.adversary.corpus import write_schedule
    from repro.net.chaos import ChaosSchedule

    return write_schedule(
        path, ChaosSchedule(seed=1, duration_s=1.0), topology_spec="ring:3"
    )


#: kind → (builder, what a half-written last line does to ``stats``):
#: ``skipped`` — summarised, the line counted; ``error`` — a one-line
#: refusal (strict analysis input, or a document).
BUILDERS = {
    "metrics": (_metrics, "skipped"),
    "records": (_records, "skipped"),
    "campaign-trace": (_campaign_trace, "skipped"),
    "trace": (_trace, "error"),
    "events": (_events, "skipped"),
    "spans": (_spans, "skipped"),
    "flight": (_flight, "skipped"),
    "timeline": (_timeline, "skipped"),
    "loadgen": (_loadgen, "error"),
    "slo-spec": (_slo_spec, "error"),
    "slo-report": (_slo_report, "error"),
    "bench": (_bench, "error"),
    "schedule": (_schedule, "error"),
}


def _build(name, tmp_path):
    return BUILDERS[name][0](tmp_path / f"{name}.artefact")


def _refusal(args):
    """The one-line message ``main(args)`` exits with."""
    with pytest.raises(SystemExit) as info:
        main(args)
    message = info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert "Traceback" not in message
    return message


def test_every_row_has_a_builder():
    assert set(BUILDERS) == set(KINDS)


@pytest.mark.parametrize("name", list(KINDS))
class TestEveryKind:
    def test_own_writer_is_identified_and_summarised(
        self, name, tmp_path, capsys
    ):
        path = _build(name, tmp_path)
        assert identify(path) is KINDS[name]
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out.strip()

    def test_half_written_last_line(self, name, tmp_path, capsys):
        path = _build(name, tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "tor')
        expected = BUILDERS[name][1]
        if expected == "error":
            assert str(path) in _refusal(["stats", str(path)])
            return
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("skipped lines: 1" in out) == (expected == "skipped")

    def test_newer_format_is_refused_by_name(self, name, tmp_path):
        path = _build(name, tmp_path)
        supported = KINDS[name].format
        head, newline, rest = path.read_text().partition("\n")
        try:
            doc = json.loads(head)
        except ValueError:  # a pretty-printed document: the file is the object
            doc, newline, rest = json.loads(head + newline + rest), "\n", ""
        doc["format"] = supported + 1
        path.write_text(json.dumps(doc) + newline + rest)
        assert _refusal(["stats", str(path)]) == (
            f"{path}: {name} format {supported + 1} is newer than this "
            f"tool ({supported})"
        )


class TestNotAnArtefact:
    def test_markdown(self, tmp_path):
        path = tmp_path / "notes.md"
        path.write_text("# notes\n\nnot an artefact\n")
        message = _refusal(["stats", str(path)])
        assert all(name in message for name in KINDS)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "empty file" in _refusal(["stats", str(path)])

    def test_directory(self, tmp_path):
        assert "directory" in _refusal(["stats", str(tmp_path)])

    def test_binary_junk(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\xff\xfe\x01" * 64)
        assert str(path) in _refusal(["stats", str(path)])

    def test_garbage_after_the_header_is_skipped_not_fatal(
        self, tmp_path, capsys
    ):
        """A malicious crash writes garbage, then halts: undecodable
        bytes in the body are lines to count, not a reason to give up."""
        path = _build("events", tmp_path)
        with path.open("ab") as handle:
            handle.write(b"\xff\xfe\x00garbage\n")
        assert main(["stats", str(path)]) == 0
        assert "skipped lines: 1" in capsys.readouterr().out


def test_stats_opens_a_trace_at_most_twice(tmp_path, capsys, monkeypatch):
    path = _build("trace", tmp_path)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["stats", str(path)]) == 0
    assert 1 <= len(opened) <= 2


def test_importing_the_registry_loads_no_optional_subpackage():
    probe = (
        "import sys, repro.artefact; print([m for m in ('repro.gateway', "
        "'repro.perf', 'repro.adversary', 'repro.fastcore') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestReadJsonl:
    def test_header_rows_and_skipped(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(
            b'{"kind":"header","format":1}\n\n{"a":1}\n[1]\n\xff\xfe\n{"b":'
        )
        header, rows, skipped = read_jsonl(path)
        assert header == {"kind": "header", "format": 1}
        assert rows == [{"a": 1}]
        assert skipped == 3


class TestExpand:
    def test_directory_becomes_its_sorted_matching_files(self, tmp_path):
        for name in ("spans-1.jsonl", "flight-0.jsonl", "spans-0.jsonl",
                     "soak.events", "notes.txt"):
            (tmp_path / name).write_text("")
        loose = str(tmp_path / "loose.jsonl")
        found = expand([loose, str(tmp_path)], ("spans", "flight"))
        assert found == [loose] + [
            str(tmp_path / name)
            for name in ("flight-0.jsonl", "spans-0.jsonl", "spans-1.jsonl")
        ]

    def test_directory_with_no_match_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match=r"no \*\.events files"):
            expand([str(tmp_path)], ("events",))


class TestWriteAtomic:
    def test_parents_are_created(self, tmp_path):
        path = write_atomic(tmp_path / "a" / "b" / "x.jsonl", ["one", "two"])
        assert path.read_text() == "one\ntwo\n"

    def test_existing_file_is_replaced_whole(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("old\n" * 100)
        seen_during_write = []

        def lines():
            yield "new"
            seen_during_write.append(path.read_text())

        write_atomic(path, lines())
        assert seen_during_write == ["old\n" * 100]
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]

    def test_failing_iterator_leaves_no_temp_and_keeps_the_target(
        self, tmp_path
    ):
        path = tmp_path / "x.jsonl"
        path.write_text("old\n")

        def lines():
            yield "half"
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            write_atomic(path, lines())
        assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]
        assert path.read_text() == "old\n"
