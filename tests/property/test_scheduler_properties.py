"""Property-based tests for the daemons' fairness and determinism.

The paper's computations are maximal *weakly fair* interleavings; the
daemons turn that model assumption into code.  These properties quantify
over adversarially chosen enabledness sequences and check the two load-
bearing guarantees: no continuously enabled action starves past the
patience bound, and the adversarial daemons are pure functions of
(scorer/strategy, seed, observed enabledness) — the replayability that
the whole adversary subsystem builds on.

The daemons read an :class:`~repro.sim.network.EnabledSet` and keep ages in
a :class:`~repro.sim.fairness.FairSelector` (a birth per slot and a queue of
births) whose ``changes`` they write only for what changed — the selector
``MpEngine`` selects through too.  The ledger it replaced — a dict of ages
rebuilt from the whole enabled list every selection — is kept here as
:class:`DictLedger`, the oracle: under random enable / disable / fire sequences both must name the
same oldest action at the same age, and a daemon built on either must make
the same choices for the same seed.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import AdversarialDaemon, SchedulingError, WeaklyFairDaemon
from repro.sim.fairness import FIRED, FairSelector
from repro.sim.network import EnabledSet


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


def oldest_entry(selector):
    """``(born, slot)`` of the selector's oldest available slot: the least
    live slot of the oldest birth group in its queue."""
    return min((b, s) for b, s in selector.queue if selector.born[s] == b)


class Probe(WeaklyFairDaemon):
    """A daemon whose selector is never forced, so every selection asks
    :meth:`_pick`, which notes the oldest enabled action and its age as the
    selector holds them (:func:`oldest_entry`) and fires
    ``items()[draw % count]``, or that oldest action when ``draw`` is
    None."""

    def __init__(self):
        super().__init__(patience=10**9)
        self.draw = None

    def _pick(self, system, enabled, step, rng):
        selector = self._selector
        born, slot = oldest_entry(selector)
        self.oldest = selector.selections - born, divmod(slot, len(enabled.actions))
        if self.draw is None:
            return self.oldest[1]
        return enabled.items()[self.draw % enabled.count]


class TestFairnessLedger:
    @given(rounds)
    @settings(max_examples=200, deadline=None)
    def test_heap_ledger_names_the_dict_ledgers_oldest_at_the_same_age(self, history):
        enabled = EnabledSet(PIDS, TRIO)
        probe, oracle = Probe(), DictLedger()
        for patterns, draw in history:
            for p, successive in enumerate(patterns):
                for bits in successive:
                    enabled.update(p, bits)
            if not enabled.count:
                continue  # an engine shows no daemon an empty enabled set
            pairs = enabled.pairs()
            oracle.observe(pairs)
            expected_age, expected = oracle.oldest(pairs)
            probe.draw = draw
            pick = probe.select(None, enabled, 0, random.Random(0))
            age, oldest = probe.oldest
            assert (age, pairs[enabled.items().index(oldest)]) == (expected_age, expected)
            if draw is not None:
                assert pick == enabled.items()[draw % enabled.count]
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
        probe = Probe()
        streak = [0] * 5  # consecutive rounds each process has been enabled
        for step, members in enumerate(history):
            present(enabled, members)
            streak = [streak[p] + 1 if p in members else 0 for p in range(5)]
            probe.draw = step
            fired, _a = probe.select(None, enabled, step, random.Random(0))
            age, (p, _a) = probe.oldest
            assert age == max(streak) and streak[p] == age
            streak[fired] = 0  # fired: its next selection sees it afresh

    def test_age_grows_while_enabled_and_resets_on_fire(self):
        enabled = EnabledSet(range(5), ACTS)
        present(enabled, [0, 1, 4])
        probe = Probe()
        rng = random.Random(0)

        def select(draw):
            probe.draw = draw
            pick = probe.select(None, enabled, 0, rng)
            return probe.oldest, pick

        # Process 4 soaks up the selections that fire nobody else.
        for expected in (1, 2):
            assert select(-1) == ((expected, (0, 0)), (4, 0))
        assert select(0) == ((3, (0, 0)), (0, 0))
        assert select(-1) == ((4, (1, 0)), (4, 0))
        enabled.update(1, 0)
        assert select(-1) == ((2, (0, 0)), (4, 0))


#: One selector history over eight slots: per selection, the slots that
#: were touched since the last one, each with one or two successive
#: availabilities written to ``changes`` (a slot that went away and came
#: back keeps its age; the selector reads only the last write), and how the
#: selection ends if nothing is overdue — a uniform draw (None) or the
#: caller's preference.
SLOTS = 8
slot_rounds = st.lists(
    st.tuples(
        st.dictionaries(
            st.integers(0, SLOTS - 1),
            st.lists(st.booleans(), min_size=1, max_size=2),
            max_size=SLOTS,
        ),
        st.one_of(st.none(), st.integers(0, 10_000)),
    ),
    min_size=1,
    max_size=80,
)
SLOT = Act("slot")


class TestFairSelector:
    @given(slot_rounds, st.integers(1, 8), seeds)
    @settings(max_examples=200, deadline=None)
    # Slot 1 goes away and comes back before the second selection, so at
    # the third it is as old as slot 2 and, the lower slot, is forced; then
    # a selection finds nothing available and every age starts over.
    @example(
        history=[
            ({0: [True], 1: [True], 2: [True]}, 0),
            ({1: [False, True]}, 0),
            ({}, 0),
            ({0: [False], 1: [False], 2: [False]}, None),
            ({0: [True], 1: [True], 2: [True]}, 0),
        ],
        patience=3,
        seed=0,
    )
    def test_the_selector_keeps_the_dict_ledgers_ages(self, history, patience, seed):
        selector, oracle = FairSelector(patience, SLOTS), DictLedger()
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        up = set()
        for touched, draw in history:
            for slot, successive in touched.items():
                for available in successive:
                    (up.add if available else up.discard)(slot)
                    selector.changes[slot] = available
            pairs = [(slot, SLOT) for slot in sorted(up)]
            oracle.observe(pairs)  # an empty selection resets every age
            asked = []

            def prefer():
                asked.append(True)
                return pairs[draw % len(pairs)][0]

            before = selector.selections
            fired = selector.select(rng, None if draw is None else prefer)
            if not pairs:
                assert fired is None and selector.selections == before
                continue
            assert selector.selections == before + 1
            assert selector.available == sorted(up)
            age, (oldest, _) = oracle.oldest(pairs)
            if age >= patience:
                assert (fired, asked) == (oldest, [])
            elif draw is None:
                assert fired == pairs[oracle_rng.randrange(len(pairs))][0]
            else:
                assert (fired, asked) == (pairs[draw % len(pairs)][0], [True])
            # Every other available slot is as old as the oracle says.
            for slot in up - {fired}:
                assert selector.selections - selector.born[slot] == (
                    oracle.oldest([(slot, SLOT)])[0]
                )
            assert selector.born[fired] == FIRED
            assert selector.changes == {fired: True}  # looked at again
            oracle.fired((fired, SLOT))

    @given(slot_rounds, st.integers(1, 8), seeds, seeds)
    @settings(max_examples=200, deadline=None)
    # Three slots born together at a forced selection: the least fires,
    # however the writes were ordered.
    @example(
        history=[({0: [True], 1: [True], 2: [True]}, None)],
        patience=1,
        seed=0,
        order=1,
    )
    def test_the_order_of_writes_changes_no_pick_and_no_age(
        self, history, patience, seed, order
    ):
        """``changes`` is read in write order, unsorted: the same writes
        in ascending and in shuffled slot order must pick the same slots and
        leave the same births behind."""
        ascending = FairSelector(patience, SLOTS)
        shuffled = FairSelector(patience, SLOTS)
        rngs = {ascending: random.Random(seed), shuffled: random.Random(seed)}
        shuffle = random.Random(order).shuffle
        up = set()
        for touched, draw in history:
            for slot, successive in touched.items():
                for available in successive:
                    (up.add if available else up.discard)(slot)
                    ascending.changes[slot] = shuffled.changes[slot] = available
            candidates = sorted(up)

            def prefer():
                return candidates[draw % len(candidates)]

            picks = []
            for selector, arrange in ((ascending, sorted), (shuffled, shuffle)):
                writes = list(selector.changes.items())
                arrange(writes)
                selector.changes.clear()
                selector.changes.update(writes)
                picks.append(
                    selector.select(rngs[selector], None if draw is None else prefer)
                )
            assert picks[0] == picks[1]
            assert ascending.born == shuffled.born
            assert ascending.available == shuffled.available
            assert ascending.selections == shuffled.selections

    def test_patience_below_one_is_a_scheduling_error(self):
        with pytest.raises(SchedulingError):
            FairSelector(0)


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
