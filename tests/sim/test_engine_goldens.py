"""Engine-level goldens: the object engine's output, pinned by digest.

The digests were recorded from the commit *before* ``System`` grew its
write-invalidated enabled set (every guard of every process re-evaluated
every step).  The incremental engine must reproduce them bit for bit: same
``enabled`` list handed to the daemon, same RNG draws, same trace events,
same campaign records.  A digest that moves means the computation moved —
re-record only for a change that is *meant* to alter what a seed produces.

``DAEMON_DIGESTS`` were recorded the same way from the commit before the
daemons went from the enabled *list* and a dict-of-ages ledger to the
enabled set in index form and one heap ledger (and before ``FastEngine``
became this engine over a packed store): one trace per daemon, so the swap
is pinned against the old ledger and the old selection code, not against
itself.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign import SweepSpec, derive_seed
from repro.campaign.shard import _run_sim
from repro.core import NADiners
from repro.obs.trace_io import build_header, trace_from_recorder, write_trace
import pytest

from repro.adversary import ChainStarveStrategy
from repro.sim import (
    AdversarialDaemon,
    Engine,
    FaultPlan,
    MaliciousCrash,
    ProbabilisticHunger,
    RoundDaemon,
    RoundRobinDaemon,
    StrategyDaemon,
    System,
    TraceRecorder,
    TransientFault,
    WeaklyFairDaemon,
    ring,
    starve_target,
)

#: ``benchmarks/e2e`` ``sweep_object`` at benchmark seed 1, chunks 0..4.
SWEEP_ALGORITHMS = ("na-diners", "choy-singh", "fork-ordering")
SWEEP_FAULT = {"victim": 0, "at_step": 0, "malicious_steps": 24}

SWEEP_DIGEST = "a6c22bbabdb2ecaa8065d975e4564791fc27a799253b8fdf6712334ee6ddc97f"
SWEEP_TOTAL_EATS = 7184
TRACE_DIGEST = "b70a03c7e6cad277e0575dfd250bcf91ff757507ef1a8c43e56dcb3076959ca5"
TRACE_EVENTS = 711
TRACE_SNAPSHOTS = 29

#: id -> (daemon factory, digest of ``recorded_trace`` under that daemon).
#: patience=3 makes the forced path dominate; the adversaries run with a
#: patience small enough to be hit and, once, with none at all.
DAEMON_DIGESTS = {
    "weakly-fair-patience-3": (
        lambda: WeaklyFairDaemon(patience=3),
        "0663b977822482802386a06472d59a12ca91d2fe134461562f2fc5a7342cd128",
    ),
    "round-robin": (
        RoundRobinDaemon,
        "34dbdff56ab88e8377d68b8dd91236b92a09f4dbc2cce697454c1665f077c324",
    ),
    "round": (
        RoundDaemon,
        "9a100e472c775515333c24ee69fa9ce7fecc88147894e8d0ea9569704807703f",
    ),
    "adversarial-starve-3": (
        lambda: AdversarialDaemon(starve_target(3), patience=12),
        "327d1829012e5ca0f9711c7def07a08b5a23f9077b34f56b3d07362f7714da95",
    ),
    "adversarial-unfair": (
        lambda: AdversarialDaemon(starve_target(3), patience=None),
        "7a4e8a3eaa2ee138d5bde2156b7ea281066bd13746d04f934c3118a9228dba68",
    ),
    "strategy-chain-starve": (
        lambda: StrategyDaemon(ChainStarveStrategy(), patience=12),
        "b4bcd126671d037593edf977f674d02283ad7a2ea0fddbe88cc82a21178e96f5",
    ),
}


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


def recorded_trace(path, daemon=None):
    """ring:8, a full and a partial transient fault, a malicious crash,
    RNG-drawing hunger — written the way ``repro run --trace-out`` writes."""
    topology = ring(8)
    recorder = TraceRecorder(snapshot_every=25)
    engine = Engine(
        System(topology, NADiners()),
        daemon,
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



@pytest.mark.parametrize("name", DAEMON_DIGESTS)
def test_each_daemon_schedules_as_it_did_over_the_enabled_list(name, tmp_path):
    make_daemon, digest = DAEMON_DIGESTS[name]
    path = tmp_path / "golden.trace.jsonl"
    recorder = recorded_trace(path, make_daemon())
    assert len(recorder.events) == TRACE_EVENTS
    assert _sha256(path.read_bytes()) == digest
