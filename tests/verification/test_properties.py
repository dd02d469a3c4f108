"""Machine-checked versions of the paper's lemmas on small instances.

These are the strongest tests in the repository: they quantify over the
*entire* state space of a small instance, so a pass is an exhaustive proof
for that instance rather than a sampled observation.
"""

import pytest

from repro.core import (
    NADiners,
    e_holds,
    invariant_holds,
    invariant_with_threshold,
    nc_holds,
    red_set,
    stably_shallow_set,
)
from repro.sim import line, ring
from repro.verification import (
    TransitionSystem,
    check_all_states,
    check_closure,
    check_convergence,
    check_monotone_set,
    confirm_fair_livelock,
    enumerate_configurations,
)


@pytest.fixture(scope="module")
def line3():
    """Shared instance: line(3), literal paper threshold, needs pinned."""
    topo = line(3)
    algo = NADiners(depth_cap=topo.diameter + 1)
    configs = list(
        enumerate_configurations(algo, topo, fixed_locals={"needs": True})
    )
    return topo, algo, configs, TransitionSystem(algo, topo)


class TestLemma1NC:
    def test_nc_closed(self, line3):
        _, _, configs, ts = line3
        assert check_closure(ts, nc_holds, configs).holds

    def test_exit_never_creates_cycles(self, line3):
        # stronger form: from ANY state (cyclic or not) the number of
        # live-cycle-free... NC itself is the property; closure covers it.
        _, _, configs, ts = line3
        report = check_closure(ts, nc_holds, configs)
        assert report.counterexample is None


class TestLemma2StablyShallow:
    def test_stably_shallow_is_monotone(self, line3):
        """Once stably shallow, always stably shallow — over every
        transition of the full state space."""
        _, _, configs, ts = line3
        report = check_monotone_set(ts, stably_shallow_set, configs)
        assert report.holds, report.counterexample


class TestLemma4E:
    def test_e_closed(self, line3):
        _, _, configs, ts = line3
        assert check_closure(ts, e_holds, configs).holds


class TestTheorem1:
    def test_invariant_closed(self, line3):
        _, _, configs, ts = line3
        report = check_closure(ts, invariant_holds, configs)
        assert report.holds
        assert report.checked_states > 0  # I is non-empty on a line

    def test_convergence_proved(self, line3):
        _, _, configs, ts = line3
        report = check_convergence(ts, invariant_holds, configs)
        assert report.converges
        assert report.legit_states > 0

    def test_safety_inside_invariant(self, line3):
        """Every I-state satisfies E by construction — checked explicitly
        as the Theorem 3 base case."""
        _, _, configs, ts = line3
        legit = [c for c in configs if invariant_holds(c)]
        ok, counterexample = check_all_states(e_holds, legit)
        assert ok, counterexample


class TestTheorem1OnTriangle:
    """The K3 finding: the literal threshold has an empty invariant, the
    corrected (longest-simple-path) threshold restores the theorem."""

    @pytest.fixture(scope="class")
    def triangle(self):
        topo = ring(3)
        t = topo.longest_simple_path()
        algo = NADiners(depth_cap=t + 1, diameter_override=t)
        configs = list(
            enumerate_configurations(algo, topo, fixed_locals={"needs": True})
        )
        return topo, algo, configs, TransitionSystem(algo, topo), t

    def test_literal_invariant_empty(self, triangle):
        topo, _, configs, _, _ = triangle
        assert not any(invariant_holds(c) for c in configs)

    def test_corrected_invariant_nonempty_and_closed(self, triangle):
        _, _, configs, ts, t = triangle
        pred = invariant_with_threshold(t)
        report = check_closure(ts, pred, configs)
        assert report.holds
        assert report.checked_states > 0

    def test_corrected_convergence_proved(self, triangle):
        _, _, configs, ts, t = triangle
        report = check_convergence(ts, invariant_with_threshold(t), configs)
        assert report.converges


class TestLemma5RedStaysRed:
    def test_red_monotone_with_dead_process(self):
        """Within I (and with a dead process present), a red process never
        turns green."""
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        configs = list(
            enumerate_configurations(
                algo, topo, fixed_locals={"needs": True}, dead=[0]
            )
        )
        ts = TransitionSystem(algo, topo)
        report = check_monotone_set(
            ts, red_set, configs, only_when=invariant_holds
        )
        assert report.holds, report.counterexample


class TestAblationLivelock:
    def test_no_fixdepth_has_fair_livelock(self):
        from repro.core import NoFixdepthDiners

        topo = ring(3)
        algo = NoFixdepthDiners(depth_cap=1)
        configs = list(
            enumerate_configurations(
                algo, topo, fixed_locals={"needs": True, "depth": 0}
            )
        )
        ts = TransitionSystem(algo, topo)
        report = check_convergence(
            ts, lambda c: nc_holds(c) and e_holds(c), configs
        )
        assert not report.converges
        assert confirm_fair_livelock(ts, report.stuck_scc)

    def test_full_program_has_none(self):
        topo = ring(3)
        t = topo.longest_simple_path()
        algo = NADiners(depth_cap=t + 1, diameter_override=t)
        configs = list(
            enumerate_configurations(algo, topo, fixed_locals={"needs": True})
        )
        ts = TransitionSystem(algo, topo)
        report = check_convergence(ts, invariant_with_threshold(t), configs)
        assert report.converges


class TestConfirmFairLivelock:
    def test_empty_states(self):
        topo = line(2)
        ts = TransitionSystem(NADiners(), topo)
        assert not confirm_fair_livelock(ts, [])

    def test_single_state_without_self_loop(self):
        from repro.sim import System

        topo = line(2)
        algo = NADiners()
        ts = TransitionSystem(algo, topo)
        config = System(topo, algo).snapshot()
        assert not confirm_fair_livelock(ts, [config])


class TestStarving:
    """Theorem 2's liveness as :func:`starving` reads it: which live
    process a weakly fair computation can keep from eating."""

    def test_enter_enabled_throughout_a_cycle_is_fired(self):
        from repro.verification import starving

        # Other steps cycle 0 <-> 1; q = 9 may enter at both, and eats at 2.
        graph = {
            0: (("p", "go", 1), (9, "enter", 2)),
            1: (("p", "go", 0), (9, "enter", 2)),
            2: ((9, "exit", 0),),
        }
        assert starving(graph, 9, "enter") == []
        # Enabled at 1 alone, enter is not owed to q: a tour keeps it out.
        graph[0] = (("p", "go", 1),)
        assert sorted(map(sorted, starving(graph, 9, "enter"))) == [[0, 1]]
        # A state where nothing moves is a witness on its own.
        graph[2] = ()
        assert sorted(map(sorted, starving(graph, 9, "enter"))) == [[0, 1], [2]]

    def test_a_label_enabled_throughout_and_leaving_breaks_the_witness(self):
        from repro.verification import starving

        # "r" is enabled at both states of the cycle and only leaves it:
        # weak fairness fires it, so the cycle holds no fair computation.
        graph = {
            0: (("p", "go", 1), ("r", "out", 3)),
            1: (("p", "go", 0), ("r", "out", 3)),
            3: ((9, "enter", 3),),
        }
        assert starving(graph, 9, "enter") == []
        # Without r's exits, only "go" is enabled throughout, and it stays
        # inside: the cycle is a witness.
        graph[0], graph[1] = (("p", "go", 1),), (("p", "go", 0),)
        assert sorted(map(sorted, starving(graph, 9, "enter"))) == [[0, 1]]

    def test_line3_with_an_end_dead_starves_distance_2_only_at_dead_ends(self):
        """Node 0 dead on line(3): node 2, at distance 2, is kept from
        eating only by the 5 states where nothing can move."""
        from repro.fastcore import FastTransitionSystem
        from repro.verification import starving
        from repro.verification.explorer import reachable_graph

        topo = line(3)
        d = topo.diameter
        fts = FastTransitionSystem(NADiners(depth_cap=d + 1, diameter_override=d), topo)
        codec = fts.codec
        graph = reachable_graph(fts.successors, fts.enumerate_keys(dead=[0]))
        witnesses = starving(graph, codec.index[2], codec.table.names.index("enter"))
        assert len(witnesses) == 5
        for (state,) in witnesses:
            assert not graph[state]
            assert codec.unpack(codec.unkey(state)).local(2, "state") != "E"


class TestProve:
    def test_graph_is_closed_under_successors(self):
        """``prove`` closes its seed states under reachability before the
        proof reads the graph."""
        from repro.sim import System
        from repro.verification.check import prove

        topo = line(3)
        algo = NADiners()
        system = System(topo, algo)
        system.write_local(0, "needs", True)
        ts = TransitionSystem(algo, topo)
        _closure, _convergence, graph = prove(ts, [system.snapshot()], nc_holds)
        assert len(graph) > 1
        for transitions in graph.values():
            for t in transitions:
                assert t.target in graph


class TestCounterexamples:
    def test_closure_counterexample_is_actionable(self):
        """Use a deliberately wrong predicate and confirm the reported
        counterexample names a real transition that breaks it."""
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        ts = TransitionSystem(algo, topo)
        configs = enumerate_configurations(
            algo, topo, fixed_locals={"needs": True}
        )
        nobody_eats = lambda c: all(
            c.local(p, "state") != "E" for p in c.topology.nodes
        )
        report = check_closure(ts, nobody_eats, configs)
        assert not report.holds
        ce = report.counterexample
        assert ce is not None
        assert ce.action == "enter"
        assert nobody_eats(ce.source)
        assert not nobody_eats(ce.target)

    def test_monotone_counterexample_shape(self):
        from repro.core import green_set

        # green is NOT monotone (a green process may turn red), so the
        # checker must find a counterexample with a dead process around.
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        ts = TransitionSystem(algo, topo)
        configs = enumerate_configurations(
            algo, topo, fixed_locals={"needs": True}, dead=[0]
        )
        report = check_monotone_set(ts, green_set, configs)
        assert not report.holds
        ce = report.counterexample
        assert not green_set(ce.source) <= green_set(ce.target)


class TestTheorem3Exhaustive:
    def test_eating_pairs_nonincreasing_everywhere(self, line3):
        """Theorem 3, strengthened and machine-checked: from EVERY state of
        line(3) — inside or outside I — no transition increases the count
        of simultaneously-eating neighbour pairs."""
        from repro.core import eating_pairs
        from repro.verification import check_numeric_nonincreasing

        _, _, configs, ts = line3
        report = check_numeric_nonincreasing(
            ts, lambda c: len(eating_pairs(c)), configs
        )
        assert report.holds, report.counterexample

    def test_the_check_can_fail(self):
        """Sanity: a measure that genuinely increases is caught."""
        from repro.verification import check_numeric_nonincreasing

        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        ts = TransitionSystem(algo, topo)
        configs = enumerate_configurations(algo, topo, fixed_locals={"needs": True})
        hungry_count = lambda c: sum(
            1 for p in c.topology.nodes if c.local(p, "state") == "H"
        )
        report = check_numeric_nonincreasing(ts, hungry_count, configs)
        assert not report.holds
        assert report.counterexample.action == "join"


class TestConvergenceDistances:
    def test_legit_states_at_zero(self, line3):
        from repro.verification import convergence_distances

        _, _, configs, ts = line3
        graph = ts.reachable_from(configs)
        distances = convergence_distances(graph, invariant_holds)
        for config, d in distances.items():
            if invariant_holds(config):
                assert d == 0

    def test_every_state_can_recover(self, line3):
        from repro.verification import optimal_recovery_diameter

        _, _, configs, ts = line3
        graph = ts.reachable_from(configs)
        diameter = optimal_recovery_diameter(graph, invariant_holds)
        assert diameter is not None
        # the optimal recovery is short relative to system size: a few
        # corrective actions per process suffice on line(3).
        assert 1 <= diameter <= 20

    def test_unreachable_marked_none(self):
        from repro.verification import optimal_recovery_diameter

        # With an unsatisfiable target nothing can ever reach it.
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        ts = TransitionSystem(algo, topo)
        configs = list(
            enumerate_configurations(algo, topo, fixed_locals={"needs": True})
        )
        graph = ts.reachable_from(configs)
        assert optimal_recovery_diameter(graph, lambda c: False) is None
