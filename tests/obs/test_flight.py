"""Unit tests for the flight recorder: ring bounds, record shapes, and
the dump/read roundtrip that `repro timeline` consumes."""

import json

import pytest

from repro.obs import (
    DEFAULT_CAPACITY,
    FLIGHT_SOURCE,
    FlightRecorder,
    dump_flight,
    read_flight,
)
from repro.obs.tracing import SpanRecorder, read_spans
from repro.sim.trace import EventKind


class TestRing:
    def test_capacity_bound_and_dropped(self):
        rec = FlightRecorder("0", capacity=4)
        for i in range(10):
            rec.note({"rec": "event", "t": float(i)})
        assert len(rec) == 4
        assert rec.recorded == 10
        assert rec.dropped == 6
        # Oldest-first, and only the newest four survive.
        assert [r["t"] for r in rec.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_must_be_positive(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                FlightRecorder("0", capacity=capacity)

    def test_default_capacity(self):
        assert FlightRecorder("0").capacity == DEFAULT_CAPACITY

    def test_note_event_shapes(self):
        rec = FlightRecorder("0")
        rec.note_event({"t": 1.0, "event": "net-grant"})
        rec.note_event(
            {"t": 2.0, "event": "net-span-close", "detail": {"wait_s": 0.5}}
        )
        plain, detailed = rec.records()
        assert plain == {"rec": "event", "t": 1.0, "event": "net-grant"}
        assert detailed["detail"] == {"wait_s": 0.5}

    def test_note_trace_renders_rows_on_read(self):
        rec = FlightRecorder("0", capacity=2)
        rec.note_trace(3, EventKind.IDLE, None, None)
        rec.note_trace(4, EventKind.ACTION, 5, "enter")
        rec.note_trace(5, EventKind.TRANSIENT, None, (1, 2))
        action, transient = rec.records()
        assert action == {
            "rec": "event", "t": 4, "event": "action", "pid": 5, "detail": "enter"
        }
        assert transient == {
            "rec": "event", "t": 5, "event": "transient", "pid": None,
            "detail": (1, 2),
        }
        assert (rec.recorded, rec.dropped) == (3, 1)

    def test_note_frame_shapes(self):
        rec = FlightRecorder("0")
        rec.note_frame(1.0, "in", "fork")
        rec.note_frame(2.0, "out", "request", peer="1")
        plain, with_peer = rec.records()
        assert plain == {"rec": "frame", "t": 1.0, "dir": "in", "type": "fork"}
        assert with_peer["peer"] == "1"
        assert rec.recorded == 2


class TestDump:
    def _recorder(self):
        rec = FlightRecorder("2", capacity=8)
        rec.note_frame(1.0, "in", "request", peer="1")
        rec.note_event({"t": 2.0, "event": "net-grant"})
        return rec

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "flight-2.jsonl"
        dump_flight(
            path, self._recorder(), reason="soak-violation",
            header={"topology": "ring:3", "seed": 7},
        )
        flight = read_flight(path)
        assert flight.header["source"] == FLIGHT_SOURCE
        assert flight.header["node"] == "2"
        assert flight.header["reason"] == "soak-violation"
        assert flight.header["topology"] == "ring:3"
        assert flight.header["capacity"] == 8
        assert flight.header["dropped"] == 0
        assert [r["rec"] for r in flight.records] == ["frame", "event"]
        assert flight.spans == []
        assert flight.skipped == 0

    def test_dump_carries_recent_spans(self, tmp_path):
        tracer = SpanRecorder("2")
        span = tracer.open("acquire", lc=1, t=0.5)
        tracer.event(span, "grant", lc=2, t=1.0)
        tracer.close(span, lc=3, t=1.5)
        path = dump_flight(
            tmp_path / "flight-2.jsonl", self._recorder(),
            reason="crash:2", tracer=tracer,
        )
        flight = read_flight(path)
        assert flight.header["spans"] == 1
        assert len(flight.spans) == 1
        assert flight.spans[0].name == "acquire"
        assert flight.spans[0].first_event("grant") is not None

    def test_span_window_is_bounded_by_capacity(self, tmp_path):
        tracer = SpanRecorder("0")
        for i in range(6):
            span = tracer.open("acquire", lc=i, t=float(i))
            tracer.close(span, lc=i, t=float(i))
        rec = FlightRecorder("0", capacity=4)
        flight = read_flight(
            dump_flight(tmp_path / "f.jsonl", rec, reason="x", tracer=tracer)
        )
        assert len(flight.spans) == 4
        assert flight.spans[0].open_t == 2.0  # oldest two fell off

    def test_read_spans_accepts_a_flight_dump(self, tmp_path):
        """`repro timeline` merges black boxes through the span reader:
        spans parse, ring records count as skipped, never fatal."""
        tracer = SpanRecorder("2")
        span = tracer.open("acquire", lc=1, t=0.5)
        tracer.close(span, lc=2, t=1.0)
        path = dump_flight(
            tmp_path / "flight-2.jsonl", self._recorder(),
            reason="stall:2", tracer=tracer,
        )
        span_file = read_spans(path)
        assert span_file.header["source"] == FLIGHT_SOURCE
        assert len(span_file.spans) == 1
        assert span_file.skipped == 2  # the two ring records

    def test_read_is_lenient(self, tmp_path):
        path = dump_flight(
            tmp_path / "f.jsonl", self._recorder(), reason="sigterm"
        )
        with path.open("a") as handle:
            handle.write("not json\n")
        flight = read_flight(path)
        assert flight.skipped == 1
        assert len(flight.records) == 2

    def test_no_leftover_tmp_file(self, tmp_path):
        dump_flight(tmp_path / "f.jsonl", self._recorder(), reason="x")
        assert [p.name for p in tmp_path.iterdir()] == ["f.jsonl"]

    def test_dump_lines_are_canonical_json(self, tmp_path):
        path = dump_flight(
            tmp_path / "f.jsonl", self._recorder(), reason="x"
        )
        for line in path.read_text().splitlines():
            row = json.loads(line)
            assert json.dumps(
                row, sort_keys=True, separators=(",", ":")
            ) == line
