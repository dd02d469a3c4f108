"""E8 — ablations: each mechanism buys exactly its property.

* **no fixdepth** (= Choy–Singh baseline): the model checker exhibits a
  weakly fair livelock trapped on a priority cycle — the stabilization
  mechanism is necessary;
* **no dynamic threshold**: the starvation radius after a crash grows with
  the topology — the locality mechanism is necessary;
* **wrong D**: underestimating costs spurious exits (churn) but keeps both
  properties; overestimating slows cycle detection proportionally.
"""

from conftest import print_table

from repro.analysis import (
    frozen_chain_radius,
    plant_priority_cycle,
    steps_to_predicate,
)
from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    WrongDiameterDiners,
    e_holds,
    nc_holds,
)
from repro.sim import AlwaysHungry, Engine, NeverHungry, System, line, ring


def test_e8a_no_fixdepth_livelock(benchmark):
    from repro.verification import (
        TransitionSystem,
        confirm_fair_livelock,
        enumerate_configurations,
    )
    from repro.verification.check import prove

    def run():
        topo = ring(3)
        algo = NoFixdepthDiners(depth_cap=1)
        configs = list(
            enumerate_configurations(
                algo, topo, fixed_locals={"needs": True, "depth": 0}
            )
        )
        ts = TransitionSystem(algo, topo)
        _, report, _ = prove(ts, configs, lambda c: nc_holds(c) and e_holds(c))
        livelock = confirm_fair_livelock(ts, report.stuck_scc)
        return report, livelock

    report, livelock = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E8a: no-fixdepth on ring(3) — exhaustive check",
        ("metric", "value"),
        [
            ("states", report.total_states),
            ("converges", report.converges),
            ("stuck SCC size", len(report.stuck_scc)),
            ("confirmed weakly fair livelock", livelock),
        ],
    )
    assert not report.converges
    assert livelock  # the Figure 2 alternation, machine-confirmed


"""E8b uses the library's worst-case construction (see
repro.analysis.locality.frozen_chain_scenario)."""


def test_e8b_no_threshold_locality_grows(benchmark):
    def run():
        rows = []
        for n in (8, 12, 16):
            rows.append(
                (
                    n,
                    frozen_chain_radius(NADiners(), line(n), seed=n),
                    frozen_chain_radius(NoDynamicThresholdDiners(), line(n), seed=n),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E8b: starvation radius, frozen hungry chain behind a crashed eater",
        ("line n", "full program", "no-threshold"),
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # --- shape: with `leave` the radius stays <= 2 at every size; without
    # it the whole chain starves, so the radius equals the line length ---
    assert all(full <= 2 for _, full, _ in rows)
    for n, _, ablated in rows:
        assert ablated == n - 1


def test_e8c_wrong_diameter_costs(benchmark):
    def run():
        results = {}
        # spurious-exit churn with underestimated D
        for label, algo in (
            ("exact D", NADiners()),
            ("D=1 (under)", WrongDiameterDiners(1)),
        ):
            system = System(line(8), algo)
            engine = Engine(system, hunger=AlwaysHungry(), seed=5)
            engine.run(30_000)
            eats = engine.total_eats()
            exits = sum(
                v for (p, a), v in engine.action_counts.items() if a == "exit"
            )
            results[label] = {"meals": eats, "exits": exits, "spurious": exits - eats}
        # cycle-detection latency with overestimated D
        for label, algo in (
            ("exact D", NADiners()),
            ("D*4 (over)", WrongDiameterDiners(ring(8).diameter * 4)),
        ):
            times = []
            for seed in range(6):
                system = System(ring(8), algo)
                plant_priority_cycle(system, list(range(8)))
                result = steps_to_predicate(
                    system, nc_holds, max_steps=500_000, seed=seed,
                    hunger=NeverHungry(),
                )
                assert result.converged
                times.append(result.steps)
            results.setdefault(label, {})["cycle_break"] = sum(times) / len(times)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            label,
            data.get("meals", "-"),
            data.get("spurious", "-"),
            f"{data['cycle_break']:.0f}" if "cycle_break" in data else "-",
        )
        for label, data in results.items()
    ]
    print_table(
        "E8c: the cost of a wrong D",
        ("variant", "meals (30k steps)", "spurious exits", "mean cycle-break steps"),
        rows,
    )
    benchmark.extra_info["rows"] = rows
    # --- shape ---
    assert results["D=1 (under)"]["spurious"] > results["exact D"]["spurious"]
    assert results["D*4 (over)"]["cycle_break"] > results["exact D"]["cycle_break"]
    # and liveness survives the underestimate
    assert results["D=1 (under)"]["meals"] > 0
