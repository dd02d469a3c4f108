"""E9 — exhaustive model checking: the paper's lemmas, proved per instance.

For each instance we enumerate the *entire* state space and machine-check:

* closure of the invariant ``I`` (Theorem 1, closure part);
* convergence to ``I`` under weak fairness, via the SCC fair-escape
  argument (Theorem 1, convergence part);
* the threshold finding: on the triangle the literal diameter threshold
  yields an *empty* invariant, while the longest-simple-path threshold
  restores a non-empty, closed, convergent one.

Every instance runs through ``repro.verification.check.prove``, the driver
``repro check`` runs.  The diners instances run the way that command does —
over ``FastTransitionSystem``'s int keys — so these runs double as
macro-benchmarks of that path; the K-state instance has no action table and
runs on the object ``TransitionSystem``.
"""

from conftest import print_table

from repro.core import NADiners, invariant_with_threshold
from repro.fastcore import FastTransitionSystem
from repro.mp import KStateToken, single_privilege
from repro.sim import line, ring, star
from repro.verification import (
    TransitionSystem,
    enumerate_configurations,
    optimal_recovery_diameter,
)
from repro.verification.check import full_space, prove


def check_instance(topo, threshold=None):
    t = topo.diameter if threshold is None else threshold
    fts = FastTransitionSystem(NADiners(depth_cap=t + 1, diameter_override=t), topo)
    keys, pred = full_space(fts, invariant_with_threshold(t))
    closure, convergence, graph = prove(fts, keys, pred)
    recovery = optimal_recovery_diameter(graph, pred)
    return {
        "states": len(keys),
        "legit": convergence.legit_states,
        "closed": closure.holds,
        "converges": convergence.converges,
        "sccs": convergence.scc_count,
        "optimal_recovery": recovery,
    }


def _rows(results):
    return [
        (
            name,
            data["states"],
            data["legit"],
            "yes" if data["closed"] else "NO",
            "yes" if data["converges"] else "NO",
            "-" if data["optimal_recovery"] is None else data["optimal_recovery"],
        )
        for name, data in results.items()
    ]


HEADER = ("instance", "states", "legit states", "I closed", "converges", "opt. recovery")


def test_e9_diners_instances(benchmark):
    def run():
        return {
            "line(3), D literal": check_instance(line(3)),
            "star(3), D literal": check_instance(star(3)),
            "ring(3), D literal": check_instance(ring(3)),
            "ring(3), longest path": check_instance(
                ring(3), threshold=ring(3).longest_simple_path()
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = _rows(results)
    print_table(
        "E9a: exhaustive verification of Theorem 1 per instance", HEADER, rows
    )
    benchmark.extra_info["rows"] = rows

    # --- shape ---
    assert results["line(3), D literal"]["converges"]
    assert results["line(3), D literal"]["legit"] > 0
    assert results["star(3), D literal"]["converges"]
    # the documented finding: literal threshold on the triangle -> empty I
    assert results["ring(3), D literal"]["legit"] == 0
    # corrected threshold restores the theorem
    corrected = results["ring(3), longest path"]
    assert corrected["legit"] > 0 and corrected["closed"] and corrected["converges"]


def test_e9_diameter3_instances(benchmark):
    """The first graphs on which the "distance 3" of failure locality 2
    exists (≈ 2.5 min, ≈ 0.9 GB peak on ring(4) under the longest path)."""

    def run():
        return {
            "line(4), D literal": check_instance(line(4)),
            "ring(4), D literal": check_instance(ring(4)),
            "ring(4), longest path": check_instance(
                ring(4), threshold=ring(4).longest_simple_path()
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = _rows(results)
    print_table("E9a': Theorem 1 at diameter 3 and on the 4-cycle", HEADER, rows)
    benchmark.extra_info["rows"] = rows

    assert results["line(4), D literal"]["closed"]
    assert results["line(4), D literal"]["converges"]
    # finding 4a.1 on the cyclic shape: literal D leaves I non-empty, not closed
    literal = results["ring(4), D literal"]
    assert literal["legit"] > 0 and not literal["closed"]
    corrected = results["ring(4), longest path"]
    assert corrected["closed"] and corrected["converges"]


def test_e9_kstate_instance(benchmark):
    def run():
        topo = ring(4)
        algo = KStateToken(k=5)
        configs = list(enumerate_configurations(algo, topo))
        ts = TransitionSystem(algo, topo)
        pred = lambda c: single_privilege(c, algo)
        closure, convergence, _ = prove(ts, configs, pred)
        return {
            "states": len(configs),
            "closed": closure.holds,
            "converges": convergence.converges,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E9b: Dijkstra K-state (ring(4), k=5), exhaustive",
        ("metric", "value"),
        list(result.items()),
    )
    assert result["closed"] and result["converges"]
