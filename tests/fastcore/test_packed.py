"""PackedCodec: Configuration ↔ PackedState translation and keys."""

import random

import pytest

from repro.baselines import ForkOrderingDiners, HygienicDiners
from repro.baselines import ChoySinghDiners
from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    e_holds,
    eating_pairs,
)
from repro.fastcore import (
    FastTransitionSystem,
    PackedCodec,
    UnsupportedBackendError,
)
from repro.fastcore.table import int_key_program
from repro.sim import DomainError, System, grid, line, ring, star


def randomized_config(topo, algo, seed, dead=(), malicious=()):
    system = System(topo, algo)
    system.randomize(random.Random(seed))
    for p in dead:
        system.kill(p)
    for p in malicious:
        system.mark_malicious(p)
    return system.snapshot()


class TestRoundTrip:
    @pytest.mark.parametrize("topo", [ring(6), line(5), grid(3, 3)])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_pack_unpack_identity(self, topo, seed):
        algo = NADiners()
        codec = PackedCodec(topo, algo)
        config = randomized_config(topo, algo, seed)
        assert codec.unpack(codec.pack(config)) == config

    def test_round_trip_preserves_dead_and_malicious(self):
        topo = ring(6)
        algo = NADiners()
        codec = PackedCodec(topo, algo)
        config = randomized_config(topo, algo, 3, dead=(1,), malicious=(4,))
        back = codec.unpack(codec.pack(config))
        assert back.dead == config.dead
        assert back.malicious == config.malicious
        assert back == config

    def test_initial_state_matches_fresh_system(self):
        topo = line(5)
        algo = NADiners()
        codec = PackedCodec(topo, algo)
        assert codec.unpack(codec.initial_state()) == System(topo, algo).snapshot()

    def test_initially_dead_matches_object_model(self):
        topo = ring(5)
        algo = NADiners()
        codec = PackedCodec(topo, algo)
        fast = codec.unpack(codec.initial_state(initially_dead=(2,)))
        obj = System(topo, algo, initially_dead=(2,)).snapshot()
        assert fast == obj


class TestKey:
    def test_key_is_injective_on_distinct_configs(self):
        topo = ring(4)
        algo = NADiners(depth_cap=topo.diameter + 1)
        codec = PackedCodec(topo, algo)
        seen = {}
        for seed in range(50):
            config = randomized_config(topo, algo, seed)
            key = codec.key(codec.pack(config))
            assert isinstance(key, int)
            if key in seen:
                assert seen[key] == config
            seen[key] = config
        assert len(seen) > 1

    def test_key_equal_iff_config_equal(self):
        topo = line(4)
        algo = NADiners(depth_cap=topo.diameter + 1)
        codec = PackedCodec(topo, algo)
        a = randomized_config(topo, algo, 1)
        assert codec.key(codec.pack(a)) == codec.key(codec.pack(a))

    def test_key_requires_finite_cap(self):
        topo = ring(4)
        codec = PackedCodec(topo, NADiners())  # uncapped depth counter
        with pytest.raises(UnsupportedBackendError):
            codec.key(codec.initial_state())

    def test_key_rejects_a_depth_its_field_cannot_hold(self):
        # A depth past the cap would spill into the next field and alias
        # another configuration; a hand-built state must not get that far.
        topo = ring(4)
        codec = PackedCodec(topo, NADiners(depth_cap=topo.diameter + 1))
        ps = codec.initial_state()
        ps.depth[1] = codec.cap + 1
        with pytest.raises(DomainError):
            codec.key(ps)

    def test_layout_is_one_field_per_process_then_one_bit_per_edge(self):
        # The fixed layout is what a symmetry quotient will permute: flipping
        # one edge changes exactly one bit above the n process fields.
        topo = ring(4)
        codec = PackedCodec(topo, NADiners(depth_cap=topo.diameter + 1))
        ps = codec.initial_state()
        key = codec.key(ps)
        _e, i, j, _dom = codec.edge_order[2]
        ps.anc[i] ^= 1 << j
        ps.anc[j] ^= 1 << i
        ps.desc[i] ^= 1 << j
        ps.desc[j] ^= 1 << i
        flipped = codec.key(ps) ^ key
        assert flipped == 1 << (flipped.bit_length() - 1)
        assert flipped.bit_length() - 1 == (
            codec.n * (codec.cap.bit_length() + 5) + 2
        )


class TestRank:
    @pytest.mark.parametrize(
        "program",
        [NADiners, NoFixdepthDiners, NoDynamicThresholdDiners, ChoySinghDiners],
    )
    @pytest.mark.parametrize(
        "topo", [line(3), ring(3), star(3)], ids=["line3", "ring3", "star3"]
    )
    @pytest.mark.parametrize("dead", [(), (0,), (1,)], ids=["alive", "dead0", "dead1"])
    def test_rank_numbers_the_keys_in_enumeration_order(self, program, topo, dead):
        layout = PackedCodec(topo, program(depth_cap=topo.diameter + 1)).layout
        ranks = [layout.rank(k) for k in layout.keys(frozenset(dead))]
        assert ranks == list(range(layout.size))

    def test_needs_and_status_are_no_digit(self):
        topo = ring(4)
        algo = NADiners(depth_cap=topo.diameter + 1)
        codec = PackedCodec(topo, algo)
        layout = codec.layout
        config = randomized_config(topo, algo, 3)
        ps = codec.pack(config)
        key = codec.key(ps)
        ps.needs[2] = not ps.needs[2]
        ps.status[1] = 1
        ps.status[3] = 2
        other = codec.key(ps)
        assert other != key and (other ^ key) & ~layout.unranked == 0
        assert layout.rank(other) == layout.rank(key)


class TestSupport:
    def test_rejects_algorithm_variants(self):
        # The refusal follows the program, not a class list: the codec runs
        # whatever runs exactly the actions its table lowers to — so an
        # untouched subclass is accepted, of the paper's program or of an
        # ablation, with its parent's table ...
        class Tweaked(NADiners):
            pass

        class Unlisted(NoFixdepthDiners):
            pass

        assert PackedCodec(ring(4), Tweaked()).table is NADiners.table
        assert PackedCodec(ring(4), Unlisted()).table.names == (
            "join", "leave", "enter", "exit",
        )
        # ... and one whose actions are not its table's rows ("drifted"), or
        # that has no table at all, must be refused rather than mis-run.
        drifted = NoFixdepthDiners()
        drifted._actions = drifted._actions[:-1]
        for algorithm in (drifted, HygienicDiners(), ForkOrderingDiners()):
            with pytest.raises(UnsupportedBackendError):
                PackedCodec(ring(4), algorithm)

    def test_neighbors_eating_matches_e_predicate(self):
        # The closure loop's audit counts "two neighbours eat, dead or not":
        # the packed eating pairs, and — nobody faulty here — not E.
        topo = ring(6)
        algo = NADiners(depth_cap=topo.diameter + 1)
        codec = FastTransitionSystem(algo, topo).codec
        level = int_key_program(codec, "level").functions["level"]
        violations = 0
        for seed in range(30):
            config = randomized_config(topo, algo, seed)
            ps = codec.pack(config)
            key = codec.key(ps)
            _fanned, flag = level([key], {key}, [], 1)
            assert flag == bool(eating_pairs(ps)) == (not e_holds(config))
            violations += flag
        assert violations  # randomized states do hit E violations
