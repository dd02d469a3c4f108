"""FastTransitionSystem vs TransitionSystem: the checker-side parity."""

import random

import pytest

from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    e_holds,
    invariant_with_threshold,
    nc_holds,
)
from repro.fastcore import FastTransitionSystem, UnsupportedBackendError
from repro.fastcore.explorer import FastReachability
from repro.fastcore.table import int_key_program
from repro.sim import (
    SimulationError,
    System,
    UnknownProcessError,
    line,
    ring,
    star,
)
from repro.verification import (
    FastExplorer,
    TransitionSystem,
    check_closure,
    check_convergence,
    confirm_fair_livelock,
    enumerate_configurations,
)


def all_hungry_initial(topo, algo):
    system = System(topo, algo)
    for pid in topo.nodes:
        system.write_local(pid, "needs", True)
    return system.snapshot()


def labelled(fts, triples):
    """Generated ``(p, a, key)`` triples as the object model's
    ``(pid, action name, configuration)``."""
    codec = fts.codec
    return [
        (codec.pids[p], codec.table.names[a], codec.unpack(codec.unkey(k)))
        for p, a, k in triples
    ]


def randomized_config(topo, algo, seed, dead=()):
    system = System(topo, algo)
    system.randomize(random.Random(seed))
    for pid in dead:
        system.kill(pid)
    return system.snapshot()


class TestSuccessorParity:
    @pytest.mark.parametrize("topo", [ring(5), line(4)])
    @pytest.mark.parametrize("seed", [0, 3, 9, 21])
    def test_successors_identical(self, topo, seed):
        algo = NADiners(depth_cap=topo.diameter + 1)
        config = randomized_config(topo, algo, seed)
        slow = TransitionSystem(algo, topo).successors(config)
        fts = FastTransitionSystem(algo, topo)
        fast = labelled(fts, fts.successors(fts.codec.key(fts.codec.pack(config))))
        # Same transitions in the same (pid-major, declaration) order.
        assert [(pid, action) for pid, action, _c in fast] == [
            (t.pid, t.action) for t in slow
        ]
        assert [target for _p, _a, target in fast] == [t.target for t in slow]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_enabled_identical(self, seed):
        topo = ring(6)
        algo = NADiners(depth_cap=topo.diameter + 1)
        config = randomized_config(topo, algo, seed)
        fts = FastTransitionSystem(algo, topo)
        key = fts.codec.key(fts.codec.pack(config))
        fast = [(pid, action) for pid, action, _c in labelled(fts, fts.successors(key))]
        assert fast == TransitionSystem(algo, topo).enabled(config)


class TestReachability:
    # Ground truth measured with TransitionSystem.reachable_from (object
    # model) on the all-hungry initial configuration; the fast BFS must
    # reproduce the exact closure, not just "roughly as many states".
    @pytest.mark.parametrize(
        "topo,expected_states",
        [
            pytest.param(ring(3), 720, id="ring3"),
            pytest.param(line(3), 484, id="line3"),
            # the largest instance the object side affords (86 672 transitions)
            pytest.param(ring(4), 19264, id="ring4"),
        ],
    )
    def test_reachable_counts_match_object_bfs(self, topo, expected_states):
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        config = all_hungry_initial(topo, algo)
        stats = FastTransitionSystem(algo, topo).reachable_count([config])
        assert isinstance(stats, FastReachability)
        assert stats.states == expected_states
        assert stats.violations == 0
        graph = TransitionSystem(algo, topo).reachable_from([config])
        assert len(graph) == stats.states
        assert sum(len(ts) for ts in graph.values()) == stats.transitions

    # Recorded from the PackedState-copying, bytes-keyed BFS this explorer
    # replaced, immediately before it was deleted: (states, transitions,
    # E violations).  The randomized sources cover a dead process and
    # closures that do contain neighbours eating.
    @pytest.mark.parametrize(
        "topo,seed,dead,expected",
        [
            pytest.param(line(4), None, (), (9360, 40400, 0), id="line4"),
            pytest.param(ring(4), None, (), (19264, 86672, 0), id="ring4"),
            pytest.param(ring(4), 4, (3,), (295, 806, 0), id="ring4-r4-dead3"),
            pytest.param(ring(4), 3, (3,), (17, 27, 2), id="ring4-r3-dead3"),
            pytest.param(ring(4), 3, (), (957, 2644, 26), id="ring4-r3"),
        ],
    )
    def test_closure_goldens(self, topo, seed, dead, expected):
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        if seed is None:
            config = all_hungry_initial(topo, algo)
        else:
            config = randomized_config(topo, algo, seed, dead)
        stats = FastTransitionSystem(algo, topo).reachable_count([config])
        assert (stats.states, stats.transitions, stats.violations) == expected

    def test_memory_per_state_stays_a_set_entry_and_an_int(self):
        # Host-independent pin: python-level allocation peak over states on
        # the ring4 closure.  One int plus its set slot is ~60 B; the BFS
        # that kept every expanded PackedState alive read 698 B.
        import tracemalloc

        topo = ring(4)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        fts = FastTransitionSystem(algo, topo)
        config = all_hungry_initial(topo, algo)
        tracemalloc.start()
        try:
            stats = fts.reachable_count([config])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.states == 19264
        assert peak / stats.states < 200

    def test_progress_reports_every_level(self):
        topo = line(3)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        levels = []
        stats = FastExplorer(algo, topo).reachable_count(
            [all_hungry_initial(topo, algo)],
            progress=lambda *row: levels.append(row),
        )
        assert [level for level, _s, _f in levels] == list(
            range(1, len(levels) + 1)
        )
        # States only grow, by exactly the frontier each level found, and
        # the last level finds nothing.
        assert levels[0][1] == 1 + levels[0][2]
        for (_l, before, _f), (_l2, after, found) in zip(levels, levels[1:]):
            assert after == before + found
        assert levels[-1][1:] == (stats.states, 0)

    #: ``progress`` on ring4 from the all-hungry state, recorded from the
    #: BFS that expanded one state per call, before the generated closure
    #: loop replaced it: the loop keeps the order the levels are found in.
    RING4_LEVELS = [
        (1, 6, 5), (2, 21, 15), (3, 54, 33), (4, 113, 59), (5, 213, 100),
        (6, 384, 171), (7, 664, 280), (8, 1092, 428), (9, 1725, 633),
        (10, 2633, 908), (11, 3851, 1218), (12, 5369, 1518),
        (13, 7154, 1785), (14, 9130, 1976), (15, 11135, 2005),
        (16, 12951, 1816), (17, 14449, 1498), (18, 15693, 1244),
        (19, 16806, 1113), (20, 17776, 970), (21, 18505, 729),
        (22, 18955, 450), (23, 19174, 219), (24, 19250, 76),
        (25, 19264, 14), (26, 19264, 0),
    ]

    def test_progress_on_ring4_is_pinned(self):
        topo = ring(4)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        levels = []
        stats = FastTransitionSystem(algo, topo).reachable_count(
            [all_hungry_initial(topo, algo)],
            progress=lambda *row: levels.append(row),
        )
        assert levels == self.RING4_LEVELS
        assert (stats.states, stats.transitions) == (19264, 86672)

    def test_violations_counted_from_bad_source(self):
        # Start both neighbours eating: the source itself violates E.
        topo = ring(4)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        system = System(topo, algo)
        from repro.core import DinerState

        for pid in (0, 1):
            system.write_local(pid, "state", DinerState.EATING)
        stats = FastTransitionSystem(algo, topo).reachable_count(
            [system.snapshot()], max_states=200_000
        )
        assert stats.violations > 0

    def test_max_states_guard_matches_object_semantics(self):
        topo = ring(3)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        config = all_hungry_initial(topo, algo)
        with pytest.raises(SimulationError, match="max_states=100") as caught:
            FastTransitionSystem(algo, topo).reachable_count(
                [config], max_states=100
            )
        assert caught.value.max_states == 100
        # The cap is exact on both explorers: the closure has 720 states.
        assert FastTransitionSystem(algo, topo).reachable_count(
            [config], max_states=720
        ).states == 720
        with pytest.raises(SimulationError, match="max_states=719"):
            FastTransitionSystem(algo, topo).reachable_count(
                [config], max_states=719
            )
        with pytest.raises(SimulationError, match="max_states=719"):
            TransitionSystem(algo, topo).reachable_from([config], max_states=719)

    def test_the_level_loop_stops_after_the_state_that_passes_the_cap(self):
        # What makes the cap exact at most one fan-out late: the generated
        # loop checks the visited set's size after every state it expands.
        topo = ring(4)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        fts = FastTransitionSystem(algo, topo)
        level = int_key_program(fts.codec, "level").functions["level"]
        start = fts.codec.key(fts.codec.pack(all_hungry_initial(topo, algo)))
        seen, frontier = {start}, []
        level([start], seen, frontier, 10**9)
        assert len(frontier) == 5
        first = set(seen)
        level(frontier[:1], first, [], 10**9)
        capped, found = set(seen), []
        level(frontier, capped, found, len(seen))
        assert capped == first and len(found) == len(first) - len(seen) > 0

    def test_duplicate_sources_deduplicated(self):
        topo = line(3)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        config = all_hungry_initial(topo, algo)
        fts = FastTransitionSystem(algo, topo)
        assert fts.reachable_count([config, config]).states == 484


class TestFastExplorerSeam:
    def test_is_the_fast_transition_system(self):
        # One explorer class; the verification name is an alias of it.
        assert FastExplorer is FastTransitionSystem
        topo = ring(4)
        algo = NADiners(depth_cap=topo.diameter + 1)
        explorer = FastExplorer(algo, topo)
        config = randomized_config(topo, algo, 2)
        reference = TransitionSystem(algo, topo)
        key = explorer.codec.key(explorer.codec.pack(config))
        fast = labelled(explorer, explorer.successors(key))
        assert fast == [
            (t.pid, t.action, t.target) for t in reference.successors(config)
        ]
        assert [(pid, action) for pid, action, _c in fast] == reference.enabled(config)

    def test_reachable_count(self):
        topo = ring(3)
        algo = NADiners(
            depth_cap=topo.diameter + 1, diameter_override=topo.diameter
        )
        stats = FastExplorer(algo, topo).reachable_count(
            [all_hungry_initial(topo, algo)]
        )
        assert stats.states == 720

    def test_uncapped_algorithm_rejected(self):
        # Packed keys need a finite depth domain, exactly like enumeration.
        topo = ring(4)
        fts = FastTransitionSystem(NADiners(), topo)
        config = all_hungry_initial(topo, NADiners())
        with pytest.raises(UnsupportedBackendError):
            fts.reachable_count([config])
        # ... and so does expanding a key got from somewhere else: the typed
        # refusal, not a TypeError from inside the generator.
        with pytest.raises(UnsupportedBackendError, match="depth_cap <= 255"):
            fts.successors_packed(0)

    @pytest.mark.parametrize(
        "ablation, states",
        [(NADiners, 590), (NoFixdepthDiners, 192), (NoDynamicThresholdDiners, 506)],
    )
    def test_ablation_closures_match_the_object_explorer(self, ablation, states):
        # From an arbitrary all-hungry state, where the three programs'
        # closures differ (the counts are the object explorer's).
        topo = line(3)
        algo = ablation(depth_cap=topo.diameter + 1)
        system = System(topo, algo)
        system.randomize(random.Random(0))
        for pid in topo.nodes:
            system.write_local(pid, "needs", True)
        config = system.snapshot()
        graph = TransitionSystem(algo, topo).reachable_from([config])
        stats = FastExplorer(algo, topo).reachable_count([config])
        assert stats.states == len(graph) == states
        assert stats.transitions == sum(len(v) for v in graph.values())


class TestFullSpace:
    """The int-key path of ``repro check`` against the object path: the same
    enumeration, and the same properties giving the same reports."""

    #: name -> (algorithm, topology, dead)
    ENUMERATIONS = {
        "alive": (NADiners(depth_cap=3), line(3), ()),
        "dead1": (NADiners(depth_cap=3), line(3), (1,)),
        "star3-centre-dead": (NADiners(depth_cap=3), star(3), (0,)),
        # longest simple path 2 on the triangle: threshold 2, cap 3
        "ring3-corrected": (
            NADiners(depth_cap=3, diameter_override=2), ring(3), ()
        ),
        # line(4) iterates its edges out of endpoint order, which the key
        # enumeration must sort like the object one
        "line4-no-threshold": (NoDynamicThresholdDiners(depth_cap=1), line(4), ()),
    }

    @pytest.mark.parametrize("name", list(ENUMERATIONS))
    def test_enumerate_keys_is_the_object_enumeration(self, name):
        algo, topo, dead = self.ENUMERATIONS[name]
        fts = FastTransitionSystem(algo, topo)
        codec = fts.codec
        keys = list(fts.enumerate_keys(dead=dead))
        assert len(keys) == len(set(keys)) == codec.layout.size
        # same states in the same order, so a Tarjan pass over either visits
        # the same roots first (streamed: star3 is 165 888 configurations)
        configs = enumerate_configurations(
            algo, topo, fixed_locals={"needs": True}, dead=dead
        )
        count = 0
        for k, config in zip(keys, configs):
            assert codec.unpack(codec.unkey(k)) == config
            count += 1
        assert next(configs, None) is None and count == codec.layout.size

    @pytest.mark.parametrize(
        "enumerate",
        [
            lambda algo, topo, dead: FastTransitionSystem(algo, topo)
            .enumerate_keys(dead=dead),
            lambda algo, topo, dead: enumerate_configurations(
                algo, topo, dead=dead
            ),
        ],
        ids=["enumerate_keys", "enumerate_configurations"],
    )
    def test_an_unknown_dead_process_is_refused(self, enumerate):
        algo = NADiners(depth_cap=3, diameter_override=2)
        with pytest.raises(UnknownProcessError):
            next(iter(enumerate(algo, line(3), [99])))

    def test_uncapped_enumeration_rejected(self):
        with pytest.raises(UnsupportedBackendError, match="depth_cap <= 255"):
            next(FastTransitionSystem(NADiners(), line(3)).enumerate_keys())

    @staticmethod
    def _instance(name):
        """(algorithm, topology, predicate, pinned locals) of an oracle row."""
        if name == "k3-no-fixdepth":  # DESIGN 4a finding 2: Figure 2's livelock
            pinned = {"needs": True, "depth": 0}
            return NoFixdepthDiners(depth_cap=1), ring(3), (
                lambda c: nc_holds(c) and e_holds(c)
            ), pinned
        topo = line(3) if name == "line3" else ring(3)
        t = topo.longest_simple_path() if name == "ring3-corrected" else topo.diameter
        algo = NADiners(depth_cap=t + 1, diameter_override=t)
        return algo, topo, invariant_with_threshold(t), {"needs": True}

    @pytest.mark.parametrize(
        "name", ["line3", "ring3-literal", "ring3-corrected", "k3-no-fixdepth"]
    )
    def test_reports_equal_the_object_path(self, name):
        algo, topo, predicate, pinned = self._instance(name)
        configs = list(enumerate_configurations(algo, topo, fixed_locals=pinned))
        ts = TransitionSystem(algo, topo)
        fts = FastTransitionSystem(algo, topo)
        codec = fts.codec
        decode = lambda k: codec.unpack(codec.unkey(k))
        on_keys = lambda k: predicate(decode(k))
        if pinned == {"needs": True}:
            keys = list(fts.enumerate_keys())
        else:  # any iterable of states seeds the checks
            keys = [codec.key(codec.pack(c)) for c in configs]

        closure, fast_closure = (
            check_closure(ts, predicate, configs),
            check_closure(fts, on_keys, keys),
        )
        assert (fast_closure.holds, fast_closure.checked_states) == (
            closure.holds, closure.checked_states
        )
        report, fast = (
            check_convergence(ts, predicate, configs),
            check_convergence(fts, on_keys, keys),
        )
        for field in ("converges", "total_states", "legit_states", "scc_count",
                      "illegit_scc_count", "failure_kind"):
            assert getattr(fast, field) == getattr(report, field), field
        assert {decode(k) for k in fast.stuck_scc} == set(report.stuck_scc)
        assert report.converges == (name in ("line3", "ring3-corrected"))
        livelock = confirm_fair_livelock(ts, report.stuck_scc)
        assert confirm_fair_livelock(fts, fast.stuck_scc) == livelock
        if name == "k3-no-fixdepth":
            assert livelock

    def test_ring4_literal_counterexample_is_real_in_the_object_model(self):
        """DESIGN 4a finding 1 on the 4-cycle: with the literal diameter
        threshold I is not closed, and the transition the int path reports
        is one the object model takes."""
        topo = ring(4)
        t = topo.diameter
        algo = NADiners(depth_cap=t + 1, diameter_override=t)
        invariant = invariant_with_threshold(t)
        fts = FastTransitionSystem(algo, topo)
        codec = fts.codec
        decode = lambda k: codec.unpack(codec.unkey(k))
        report = check_closure(
            fts, lambda k: invariant(codec.unkey(k)), fts.enumerate_keys()
        )
        assert not report.holds
        cx = report.counterexample
        source, target = decode(cx.source), decode(cx.target)
        label = (codec.pids[cx.pid], codec.table.names[cx.action])
        assert (*label, target) in TransitionSystem(algo, topo).successors(source)
        assert invariant(source) and not invariant(target)
        # ... and the longest-simple-path threshold closes that exit
        fixed = invariant_with_threshold(topo.longest_simple_path())
        assert fixed(source) and fixed(target)

    def test_the_proof_decodes_no_state(self, monkeypatch, capsys):
        """``repro check`` tests each key's ``PackedState``: proving line3
        builds no ``Configuration`` at all."""
        from repro.fastcore import PackedCodec
        from repro.verification.check import run_check

        unpacked = []
        real = PackedCodec.unpack

        def counting(codec, ps):
            unpacked.append(ps)
            return real(codec, ps)

        monkeypatch.setattr(PackedCodec, "unpack", counting)
        assert run_check(topology="line:3") == 0
        assert "924 legit states" in capsys.readouterr().out
        assert unpacked == []
