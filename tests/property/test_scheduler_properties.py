"""Property-based tests for the daemons' fairness and determinism.

The paper's computations are maximal *weakly fair* interleavings; the
daemons turn that model assumption into code.  These properties quantify
over adversarially chosen enabledness sequences and check the two load-
bearing guarantees: no continuously enabled action starves past the
patience bound, and the adversarial daemons are pure functions of
(scorer/strategy, seed, observed enabledness) — the replayability that
the whole adversary subsystem builds on.

The daemons read an :class:`~repro.sim.network.EnabledSet` and keep ages in
a tick + min-heap ledger that looks only at what changed.  The ledger it
replaced — a dict of ages rebuilt from the whole enabled list every
selection — is kept here as :class:`DictLedger`, the oracle: under random
enable / disable / fire sequences both must name the same oldest action at
the same age, and a daemon built on either must make the same choices for
the same seed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AdversarialDaemon, WeaklyFairDaemon
from repro.sim.network import EnabledSet
from repro.sim.scheduler import _FairnessLedger


class Act:
    """Stub ActionDef: daemons and scorers only read ``.name``."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Act({self.name})"


#: Five processes with one action each; process 0 is the victim.
ACTS = (Act("a"),)

# One scheduling history: per round, which of the 5 processes are enabled.
# Process 0 (the victim) is forced enabled in every round.
histories = st.lists(
    st.sets(st.integers(1, 4), max_size=4),
    min_size=40,
    max_size=80,
).map(lambda rounds: [sorted(r | {0}) for r in rounds])

seeds = st.integers(0, 10_000)


def present(enabled, members):
    """Make exactly ``members`` enabled, the way a store would."""
    for p in range(len(enabled.pids)):
        enabled.update(p, 1 if p in members else 0)


def schedule(daemon, history, seed):
    """The pids ``daemon`` picks when shown ``history`` round by round."""
    enabled = EnabledSet(range(5), ACTS)
    rng = random.Random(seed)
    picks = []
    for step, members in enumerate(history):
        present(enabled, members)
        p, a = daemon.select(None, enabled, step, rng)
        assert (enabled.bits[p] >> a) & 1  # the choice is always enabled
        picks.append(p)
    return picks


def longest_miss(picks):
    worst = missed = 0
    for p in picks:
        missed = 0 if p == 0 else missed + 1
        worst = max(worst, missed)
    return worst


class TestWeaklyFairDaemon:
    @given(histories, seeds)
    @settings(max_examples=60, deadline=None)
    def test_continuously_enabled_action_never_starves(self, history, seed):
        """The hard weak-fairness bound: an action enabled at every
        selection fires within ``patience`` + pool-size opportunities
        (the slack is ties — several actions can reach the patience age
        together and drain one per round)."""
        patience = 5
        picks = schedule(WeaklyFairDaemon(patience=patience), history, seed)
        assert longest_miss(picks) <= patience + 5

    @given(histories, seeds)
    @settings(max_examples=30, deadline=None)
    def test_choice_is_always_enabled(self, history, seed):
        schedule(WeaklyFairDaemon(patience=3), history, seed)  # asserts inside

    @given(histories, seeds)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_for_a_seed(self, history, seed):
        assert schedule(WeaklyFairDaemon(patience=4), history, seed) == schedule(
            WeaklyFairDaemon(patience=4), history, seed
        )


class DictLedger:
    """The ledger ``sim/scheduler.py`` had before the enabled set went to
    index form, verbatim: per (pid, action-name), how many consecutive
    selection opportunities the action has been enabled without firing."""

    def __init__(self):
        self._ages = {}

    def observe(self, enabled):
        ages = self._ages
        self._ages = {
            (key := (pid, action.name)): ages.get(key, 0) + 1
            for pid, action in enabled
        }

    def fired(self, choice):
        self._ages.pop((choice[0], choice[1].name), None)

    def oldest(self, enabled):
        best_age = -1
        best = None
        for choice in enabled:
            age = self._ages.get((choice[0], choice[1].name), 0)
            if age > best_age:
                best_age = age
                best = choice
        assert best is not None
        return best_age, best


#: The oracle runs over something less regular than the victim pool: four
#: processes (non-integer pids) with three actions each.
PIDS = ("w", "x", "y", "z")
TRIO = (Act("join"), Act("enter"), Act("exit"))

#: One round: per process, one or two successive bit patterns (a second
#: one is a guard that flipped and flipped back — or not — between two
#: selections), then how the round fires: a draw, or None for "the oldest".
rounds = st.lists(
    st.tuples(
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=2),
            min_size=4,
            max_size=4,
        ),
        st.one_of(st.none(), st.integers(0, 10_000)),
    ),
    min_size=1,
    max_size=60,
)


class TestFairnessLedger:
    @given(rounds)
    @settings(max_examples=200, deadline=None)
    def test_heap_ledger_names_the_dict_ledgers_oldest_at_the_same_age(self, history):
        enabled = EnabledSet(PIDS, TRIO)
        heap, oracle = _FairnessLedger(), DictLedger()
        for patterns, draw in history:
            for p, successive in enumerate(patterns):
                for bits in successive:
                    enabled.update(p, bits)
            if not enabled.count:
                continue  # an engine shows no daemon an empty enabled set
            pairs = enabled.pairs()
            oracle.observe(pairs)
            expected_age, expected = oracle.oldest(pairs)
            age, pick = heap.oldest(enabled)
            assert (age, pairs[enabled.items().index(pick)]) == (expected_age, expected)
            if draw is not None:
                pick = enabled.nth(draw % enabled.count)
            heap.fired(enabled, pick)
            oracle.fired(pairs[enabled.items().index(pick)])

    @given(rounds, st.integers(1, 8), seeds)
    @settings(max_examples=100, deadline=None)
    def test_weakly_fair_daemon_chooses_as_it_did_over_the_dict_ledger(
        self, history, patience, seed
    ):
        enabled = EnabledSet(PIDS, TRIO)
        daemon, oracle = WeaklyFairDaemon(patience=patience), DictLedger()
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for step, (patterns, _draw) in enumerate(history):
            for p, successive in enumerate(patterns):
                enabled.update(p, successive[-1])
            pairs = enabled.pairs()
            if not pairs:
                continue
            # WeaklyFairDaemon.select as it read at the parent commit.
            oracle.observe(pairs)
            age, oldest = oracle.oldest(pairs)
            expected = (
                oldest if age >= patience
                else pairs[oracle_rng.randrange(len(pairs))]
            )
            oracle.fired(expected)
            p, a = daemon.select(None, enabled, step, rng)
            assert (PIDS[p], TRIO[a]) == expected

    @given(histories)
    @settings(max_examples=30, deadline=None)
    def test_only_currently_enabled_actions_age(self, history):
        """Weak fairness protects *continuously* enabled actions: a round
        of disablement must drop the age back to zero."""
        enabled = EnabledSet(range(5), ACTS)
        ledger = _FairnessLedger()
        streak = [0] * 5  # consecutive rounds each process has been enabled
        for members in history:
            present(enabled, members)
            streak = [streak[p] + 1 if p in members else 0 for p in range(5)]
            age, (p, _a) = ledger.oldest(enabled)
            assert age == max(streak) and streak[p] == age

    def test_age_grows_while_enabled_and_resets_on_fire(self):
        enabled = EnabledSet(range(5), ACTS)
        present(enabled, [0, 1])
        ledger = _FairnessLedger()
        for expected in (1, 2, 3):
            assert ledger.oldest(enabled) == (expected, (0, 0))
        ledger.fired(enabled, (0, 0))
        assert ledger.oldest(enabled) == (4, (1, 0))
        enabled.update(1, 0)
        assert ledger.oldest(enabled) == (2, (0, 0))


def spite_scorer(system, pid, action):
    """A deterministic, state-free adversary score."""
    return (pid * 7 + len(action.name)) % 5


class TestAdversarialDaemon:
    @given(histories, seeds)
    @settings(max_examples=40, deadline=None)
    def test_deterministic_for_scorer_and_seed(self, history, seed):
        """The replayability contract: same scorer, same seed, same
        observed enabledness sequence — identical schedule."""
        assert schedule(
            AdversarialDaemon(spite_scorer, patience=6), history, seed
        ) == schedule(AdversarialDaemon(spite_scorer, patience=6), history, seed)

    @given(histories, seeds)
    @settings(max_examples=40, deadline=None)
    def test_patience_still_bounds_starvation(self, history, seed):
        """Even a maximally spiteful scorer cannot starve a continuously
        enabled action past the patience escape hatch."""
        patience = 4
        daemon = AdversarialDaemon(
            lambda s, pid, a: 0.0 if pid == 0 else 1.0, patience=patience
        )
        assert longest_miss(schedule(daemon, history, seed)) <= patience + 5

    @given(histories)
    @settings(max_examples=30, deadline=None)
    def test_reset_restores_a_fresh_schedule(self, history):
        daemon = AdversarialDaemon(spite_scorer, patience=6)
        first = schedule(daemon, history, 0)
        daemon.reset()
        assert schedule(daemon, history, 0) == first
