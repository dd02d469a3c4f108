"""Unit tests for the benchmark registry and runner."""

import pytest

from repro.perf import (
    Benchmark,
    registry,
    robust_stats,
    run_benchmark,
    run_benchmarks,
    select,
)
from repro.perf.bench import register, _REGISTRY


def make_bench(name="t/x", **kwargs):
    calls = []

    def setup():
        def kernel():
            calls.append(1)

        return kernel

    bench = Benchmark(name=name, setup=setup, **kwargs)
    return bench, calls


class TestRegistry:
    def test_default_kernels_registered(self):
        names = set(registry())
        # The kernels the ISSUE names must all be present.
        assert "engine/steps/ring16" in names
        assert "engine/steps/line16" in names
        assert "engine/steps/grid4x4" in names
        assert "snapshot/ring16" in names
        assert "invariant/eval/ring16" in names
        assert "checker/successors/ring6" in names
        assert "mp/ticks/ring8" in names
        assert "campaign/shard/sim_ring6" in names
        assert "net/codec/binary-roundtrip" in names
        assert "gateway/mux" in names

    def test_select_filters_by_substring(self):
        engine_only = select("engine/steps")
        assert engine_only
        assert all("engine/steps" in b.name for b in engine_only)
        assert [b.name for b in engine_only] == sorted(b.name for b in engine_only)

    def test_select_no_filter_returns_everything(self):
        assert len(select()) == len(registry())

    def test_duplicate_registration_rejected(self):
        @register("test/dup-guard")
        def setup():  # pragma: no cover - never run
            return lambda: None

        try:
            with pytest.raises(ValueError):
                register("test/dup-guard")(setup)
        finally:
            _REGISTRY.pop("test/dup-guard", None)


class TestRobustStats:
    def test_odd_sample(self):
        stats = robust_stats([3.0, 1.0, 2.0])
        assert stats["median_s"] == 2.0
        assert stats["min_s"] == 1.0
        assert stats["max_s"] == 3.0
        assert stats["mean_s"] == 2.0

    def test_even_sample_interpolates_median(self):
        assert robust_stats([1.0, 2.0, 3.0, 4.0])["median_s"] == 2.5

    def test_iqr(self):
        # 1..9: q1 = 3, q3 = 7 -> IQR 4.
        stats = robust_stats([float(v) for v in range(1, 10)])
        assert stats["iqr_s"] == pytest.approx(4.0)

    def test_outlier_does_not_move_median(self):
        calm = robust_stats([1.0, 1.0, 1.0, 1.0, 1.0])
        noisy = robust_stats([1.0, 1.0, 1.0, 1.0, 100.0])
        assert noisy["median_s"] == calm["median_s"] == 1.0


class TestRunner:
    def test_rounds_and_warmup_counted(self):
        bench, calls = make_bench(rounds=4, warmup=2)
        result = run_benchmark(bench)
        assert len(calls) == 6  # warmup + timed
        assert result.rounds == 4
        assert result.warmup == 2
        assert len(result.times) == 4

    def test_quick_plan(self):
        bench, calls = make_bench(quick_rounds=2, quick_warmup=1)
        result = run_benchmark(bench, quick=True)
        assert len(calls) == 3
        assert result.rounds == 2

    def test_fake_clock_gives_exact_stats(self):
        bench, _ = make_bench(rounds=3, warmup=0)
        ticks = iter([0.0, 1.0, 10.0, 12.0, 20.0, 23.0])  # deltas 1, 2, 3
        result = run_benchmark(bench, clock=lambda: next(ticks))
        assert result.times == (1.0, 2.0, 3.0)
        assert result.stats["median_s"] == 2.0
        assert result.stats["min_s"] == 1.0

    def test_ops_per_sec(self):
        bench, _ = make_bench(rounds=1, warmup=0, ops=500)
        ticks = iter([0.0, 2.0])
        result = run_benchmark(bench, clock=lambda: next(ticks))
        assert result.ops_per_sec == 250.0

    def test_run_benchmarks_progress(self):
        seen = []
        b1, _ = make_bench("t/a", rounds=1, warmup=0)
        b2, _ = make_bench("t/b", rounds=1, warmup=0)
        results = run_benchmarks([b1, b2], progress=lambda r: seen.append(r.name))
        assert seen == ["t/a", "t/b"]
        assert [r.name for r in results] == ["t/a", "t/b"]

    def test_real_kernel_smoke(self):
        # One cheap real kernel end to end: positive, finite timings.
        bench = registry()["snapshot/ring16"]
        result = run_benchmark(bench, quick=True)
        assert result.median > 0
        assert result.ops_per_sec > 0

    def test_codec_binary_kernel_smoke(self):
        bench = registry()["net/codec/binary-roundtrip"]
        result = run_benchmark(bench, quick=True)
        assert result.median > 0

    def test_gateway_mux_kernel_smoke(self):
        bench = registry()["gateway/mux"]
        result = run_benchmark(bench, quick=True)
        assert result.median > 0

    def test_gateway_mux_kernel_sheds(self):
        # The kernel times the shed path as well as the admitted one: 113
        # of its 200 submissions are shed, by every reason.
        mux = registry()["gateway/mux"].setup()()
        assert mux.admission.admitted == 87
        assert mux.admission.shed == {
            "client-window": 23, "queue-full": 85, "in-flight-window": 5,
        }
        assert mux.pending_count() == 0

    def test_payload_shape(self):
        bench, _ = make_bench(rounds=2, warmup=0, ops=10)
        ticks = iter([0.0, 1.0, 1.0, 2.0])
        payload = run_benchmark(bench, clock=lambda: next(ticks)).payload()
        assert payload["ops"] == 10
        assert payload["rounds"] == 2
        assert set(payload["stats"]) == {
            "median_s", "iqr_s", "min_s", "max_s", "mean_s",
        }
        assert payload["ops_per_sec"] == 10.0
