"""Smoke test of the benchmark harness (outside tier-1's ``testpaths``).

Run explicitly — it boots clusters and walks the line:5 closure, ~3 min::

    python -m pytest benchmarks/e2e/test_smoke.py -q

Every workload runs once untraced and once traced at a few-second size;
each declared metric must be printed exactly once under a well-formed name
with its unit, and ``BENCHMARK.json`` must list exactly the metrics and
workloads the harness emits.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [name for name, _why in spec.WORKLOADS]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )


def test_benchmark_json_is_what_the_harness_declares():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = (
        [w["name"] for w in committed["workloads"]]
        + [m["name"] for m in committed["end_to_end"]]
        + [m["name"] for m in committed["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in committed["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert set(spec.SIZES) == set(spec.UNITS) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric_once(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "2", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    if trace:
        declared = {n: u for n, u, _b in spec.PER_LAYER}
    else:
        declared = {n: u for n, u, _b, _bound in spec.END_TO_END}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, name
    printed = [line.split()[2] for line in lines if line.startswith("metric ")]
    assert sorted(printed) == sorted(declared)
    assert any(line.startswith(f"check {workload}: ") for line in lines)


def test_speed_probe_samples_and_stops():
    import time

    from speed import SpeedProbe

    probe = SpeedProbe()
    started = time.monotonic()
    probe.start()
    time.sleep(0.2)
    probe.stop()
    assert not probe.is_alive()
    assert probe.cpu_s() > 0
    assert 0.2 < probe.slowdown(started, time.monotonic()) < 20


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run(tmp_path, "--workload", "gateway_sim", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
