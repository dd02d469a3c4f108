"""Unit tests for the ablation variants."""

from repro.analysis import plant_priority_cycle
from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    WrongDiameterDiners,
)
from repro.core.figure1 import FIGURE1
from repro.sim import AlwaysHungry, Engine, System, WeaklyFairDaemon, line, ring


class TestNoFixdepth:
    def test_actions(self):
        names = [a.name for a in NoFixdepthDiners().actions()]
        assert names == ["join", "leave", "enter", "exit"]

    def test_exit_ignores_depth(self):
        topo = line(3)
        s = System(topo, NoFixdepthDiners())
        s.write_local(0, "depth", 99)
        assert "exit" not in [a.name for a in s.enabled_actions(0)]

    def test_fair_livelock_exists_without_fixdepth(self):
        """The checker finds a weakly fair hungry/thinking alternation wave
        trapped on a priority cycle — the paper's Figure 2 narration — that
        the full program provably does not have (see verification tests)."""
        from repro.core import e_holds, nc_holds
        from repro.verification import (
            TransitionSystem,
            check_convergence,
            confirm_fair_livelock,
            enumerate_configurations,
        )

        topo = ring(3)
        algo = NoFixdepthDiners(depth_cap=1)
        configs = enumerate_configurations(
            algo, topo, fixed_locals={"needs": True, "depth": 0}
        )
        ts = TransitionSystem(algo, topo)
        report = check_convergence(
            ts, lambda c: nc_holds(c) and e_holds(c), configs
        )
        assert not report.converges
        assert report.failure_kind == "no-escape-action"
        assert confirm_fair_livelock(ts, report.stuck_scc)

    def test_random_fair_schedules_usually_escape(self):
        # The livelock needs a coordinated rotating schedule; a randomized
        # fair daemon escapes it with overwhelming probability, so the
        # simulated system still makes progress.  The defect is the
        # *existence* of a fair livelock, which the checker test pins down.
        topo = ring(4)
        s = System(topo, NoFixdepthDiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        for p in s.pids:
            s.write_local(p, "state", "H")
        e = Engine(s, WeaklyFairDaemon(), hunger=AlwaysHungry(), seed=1)
        e.run(20_000)
        assert e.total_eats() > 0

    def test_behaves_like_paper_program_without_faults(self):
        topo = line(4)
        s = System(topo, NoFixdepthDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=2)
        e.run(3000)
        assert all(e.eats_of(p) > 0 for p in s.pids)


class TestNoDynamicThreshold:
    def test_actions(self):
        names = [a.name for a in NoDynamicThresholdDiners().actions()]
        assert names == ["join", "enter", "exit", "fixdepth"]

    def test_still_live_without_faults(self):
        s = System(ring(5), NoDynamicThresholdDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=3)
        e.run(5000)
        assert all(e.eats_of(p) > 0 for p in s.pids)

    def test_hungry_process_never_yields(self):
        s = System(line(3), NoDynamicThresholdDiners())
        s.write_local(1, "state", "H")
        s.write_local(0, "state", "H")  # hungry ancestor
        assert "leave" not in [a.name for a in s.enabled_actions(1)]


class TestWrongDiameter:
    def test_name_embeds_value(self):
        assert WrongDiameterDiners(5).name == "na-diners/D=5"

    def test_underestimate_factory(self):
        # The same five rows, a different integer: D is the only thing a
        # wrong-D instance changes, and its generated guard says so.
        topo = line(5)
        algo = WrongDiameterDiners(topo.diameter - 1)
        assert algo.table is FIGURE1
        assert algo.diameter_override == topo.diameter - 1
        exit_guard = algo.action_named("exit").guard
        assert f"D={topo.diameter - 1}>" in exit_guard.__code__.co_filename

    def test_overestimate_factory(self):
        topo = line(5)
        algo = WrongDiameterDiners(topo.diameter * 3)
        s = System(topo, algo)
        s.write_local(0, "depth", topo.diameter * 3)  # > true D, not > 3D
        assert "exit" not in [a.name for a in s.enabled_actions(0)]
        s.write_local(0, "depth", topo.diameter * 3 + 1)
        assert "exit" in [a.name for a in s.enabled_actions(0)]

    def test_underestimate_keeps_liveness(self):
        topo = line(5)
        s = System(topo, WrongDiameterDiners(topo.diameter - 1))
        e = Engine(s, hunger=AlwaysHungry(), seed=4)
        e.run(8000)
        assert all(e.eats_of(p) > 0 for p in s.pids)

    def test_underestimate_causes_spurious_exits(self):
        # With D underestimated, legitimate depths trip the exit guard:
        # more exits than enters must occur.
        topo = line(5)
        s = System(topo, WrongDiameterDiners(1))
        e = Engine(s, hunger=AlwaysHungry(), seed=4)
        e.run(8000)
        exits = sum(v for (p, n), v in e.action_counts.items() if n == "exit")
        assert exits > e.total_eats()

    def test_overestimate_slows_cycle_detection(self):
        """A planted cycle takes longer to break when D is overestimated.

        Measured with nobody wanting to eat, so the only way the cycle can
        break is the depth-propagation machinery (an eating ``exit`` would
        otherwise break it first and mask the effect).
        """
        from repro.core import nc_holds
        from repro.sim import NeverHungry

        def steps_to_acyclic(algo, seed):
            topo = ring(6)
            s = System(topo, algo)
            plant_priority_cycle(s, list(range(6)))
            e = Engine(s, WeaklyFairDaemon(), hunger=NeverHungry(), seed=seed)
            result = e.run(200_000, stop_when=nc_holds)
            assert result.stopped
            return result.steps

        exact = sum(steps_to_acyclic(NADiners(), seed) for seed in range(4))
        slow = sum(
            steps_to_acyclic(WrongDiameterDiners(12), seed) for seed in range(4)
        )
        assert slow > exact
