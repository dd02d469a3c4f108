"""Engine-level goldens: the object engine's output, pinned by digest.

The digests were recorded from the commit *before* ``System`` grew its
write-invalidated enabled set (every guard of every process re-evaluated
every step).  The incremental engine must reproduce them bit for bit: same
``enabled`` list handed to the daemon, same RNG draws, same trace events,
same campaign records.  A digest that moves means the computation moved —
re-record only for a change that is *meant* to alter what a seed produces.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign import SweepSpec, derive_seed
from repro.campaign.shard import _run_sim
from repro.core import NADiners
from repro.obs.trace_io import build_header, trace_from_recorder, write_trace
from repro.sim import (
    Engine,
    FaultPlan,
    MaliciousCrash,
    ProbabilisticHunger,
    System,
    TraceRecorder,
    TransientFault,
    ring,
)

#: ``benchmarks/e2e`` ``sweep_object`` at benchmark seed 1, chunks 0..4.
SWEEP_ALGORITHMS = ("na-diners", "choy-singh", "fork-ordering")
SWEEP_FAULT = {"victim": 0, "at_step": 0, "malicious_steps": 24}

SWEEP_DIGEST = "a6c22bbabdb2ecaa8065d975e4564791fc27a799253b8fdf6712334ee6ddc97f"
SWEEP_TOTAL_EATS = 7184
TRACE_DIGEST = "b70a03c7e6cad277e0575dfd250bcf91ff757507ef1a8c43e56dcb3076959ca5"
TRACE_EVENTS = 711
TRACE_SNAPSHOTS = 29


def sweep_records():
    """The fifteen ``_run_sim`` results the benchmark's counted chunks hold."""
    records = []
    for chunk in range(5):
        spec = SweepSpec(
            topologies=("ring:12",),
            algorithms=SWEEP_ALGORITHMS,
            trials=1,
            steps=2000,
            seed=derive_seed(1, chunk),
            fault=SWEEP_FAULT,
        )
        for shard in spec.shards():
            records.append(
                [shard.params["algorithm"], shard.seed,
                 _run_sim(shard.params, shard.seed)]
            )
    return records


def recorded_trace(path):
    """ring:8, a full and a partial transient fault, a malicious crash,
    RNG-drawing hunger — written the way ``repro run --trace-out`` writes."""
    topology = ring(8)
    recorder = TraceRecorder(snapshot_every=25)
    engine = Engine(
        System(topology, NADiners()),
        hunger=ProbabilisticHunger(0.6),
        faults=FaultPlan(
            [
                TransientFault(at_step=40),
                MaliciousCrash(5, at_step=200, malicious_steps=7),
                TransientFault(at_step=320, pids=(1, 2)),
            ]
        ),
        recorder=recorder,
        seed=20021,
    )
    result = engine.run(700)
    header = build_header(
        model="sim",
        algorithm="na-diners",
        seed=20021,
        steps_taken=result.steps,
        topology="ring:8",
        snapshot_every=25,
    )
    write_trace(path, trace_from_recorder(recorder, header))
    return recorder


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sweep_object_records_match_the_from_scratch_engine():
    records = sweep_records()
    assert sum(result["total_eats"] for _a, _s, result in records) == SWEEP_TOTAL_EATS
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert _sha256(blob.encode()) == SWEEP_DIGEST


def test_recorded_trace_stream_is_byte_equal(tmp_path):
    path = tmp_path / "golden.trace.jsonl"
    recorder = recorded_trace(path)
    assert len(recorder.events) == TRACE_EVENTS
    assert len(recorder.snapshots) == TRACE_SNAPSHOTS
    assert _sha256(path.read_bytes()) == TRACE_DIGEST

