"""Tests for campaign trial records and their JSONL encoding."""

import json

from repro.campaign import (
    TrialRecord,
    canonical_json,
    iter_lines,
    parse_line,
    read_records,
    shard_key,
    write_records,
)


def record(key="k1", seed=3, **result):
    return TrialRecord(
        key=key,
        kind="sim",
        params={"topology": "ring:4", "algorithm": "na-diners", "steps": 100},
        seed=seed,
        result=result or {"total_eats": 7},
        meta={"worker": 42, "duration_s": 0.5},
    )


class TestShardKey:
    def test_stable_across_dict_order(self):
        a = shard_key("sim", {"a": 1, "b": 2}, 0)
        b = shard_key("sim", {"b": 2, "a": 1}, 0)
        assert a == b

    def test_sensitive_to_every_component(self):
        base = shard_key("sim", {"a": 1}, 0)
        assert shard_key("sim", {"a": 2}, 0) != base
        assert shard_key("sim", {"a": 1}, 1) != base
        assert shard_key("stabilize", {"a": 1}, 0) != base


class TestLineRoundTrip:
    def test_round_trip_preserves_canonical_part(self):
        r = record()
        parsed = parse_line(r.to_line())
        assert parsed == r  # meta excluded from equality
        assert parsed.result == r.result
        assert parsed.meta == r.meta

    def test_canonical_line_has_no_meta(self):
        line = record().canonical_line()
        assert "meta" not in json.loads(line)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'

    def test_parse_rejects_garbage(self):
        assert parse_line("") is None
        assert parse_line('{"truncated": ') is None
        assert parse_line('{"format": 99, "key": "x"}') is None
        assert parse_line("[1, 2, 3]") is None


class TestFiles:
    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "nope.jsonl") == []

    def test_write_then_read(self, tmp_path):
        records = {r.key: r for r in (record("b"), record("a"))}
        path = tmp_path / "out.jsonl"
        write_records(path, records)
        back = read_records(path)
        assert [r.key for r in back] == ["a", "b"]  # canonical key order

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        full = record("aaa").to_line()
        path.write_text(full + "\n" + record("bbb").to_line()[:30])
        back = read_records(path)
        assert [r.key for r in back] == ["aaa"]

    def test_iter_lines_meta_toggle(self):
        lines = list(iter_lines([record()], include_meta=False))
        assert all("meta" not in json.loads(l) for l in lines)


class TestFormatV2:
    def test_duration_round_trip(self):
        rec = TrialRecord(
            key="k1", kind="sim", params={}, seed=0,
            result={"total_eats": 3}, duration_s=0.125,
        )
        back = parse_line(rec.to_line())
        assert back.duration_s == 0.125

    def test_duration_excluded_from_canonical_line(self):
        rec = TrialRecord(
            key="k1", kind="sim", params={}, seed=0,
            result={}, duration_s=0.125,
        )
        assert "duration_s" not in rec.canonical_line()

    def test_duration_excluded_from_equality(self):
        a = TrialRecord(key="k", kind="sim", params={}, seed=0, result={},
                        duration_s=0.1)
        b = TrialRecord(key="k", kind="sim", params={}, seed=0, result={},
                        duration_s=9.9)
        assert a == b

    def test_v1_line_still_parses(self):
        """PR-1 files carried the duration inside the opaque meta object."""
        v1 = json.dumps({
            "format": 1,
            "key": "k1",
            "kind": "sim",
            "params": {},
            "seed": 0,
            "result": {"total_eats": 2},
            "meta": {"worker": 9, "duration_s": 0.25},
        })
        back = parse_line(v1)
        assert back is not None
        assert back.duration_s == 0.25
        assert back.result["total_eats"] == 2

    def test_unknown_format_rejected(self):
        line = json.dumps({"format": 3, "key": "k", "kind": "sim",
                           "params": {}, "seed": 0, "result": {}})
        assert parse_line(line) is None

    def test_current_format_is_2(self):
        from repro.campaign.record import ACCEPTED_FORMATS, FORMAT_VERSION

        rec = record()
        payload = json.loads(rec.to_line())
        assert payload["format"] == FORMAT_VERSION == 2
        assert set(ACCEPTED_FORMATS) == {1, 2}
