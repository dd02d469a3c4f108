"""Property-based tests for ``MpEngine``'s scheduler.

``MpEngine._choose`` picks from an event index that only looks at slots
some write marked dirty.  The selection it replaced — one pass over every
channel and every process, every time — is kept here verbatim as
:class:`ScanEngine`, the oracle: two engines, one of each kind, are put
through the same random interleaving of sends (through a context and on the
channel directly), deliveries and clears behind the engine's back,
corruptions, crashes, restarts, transient faults and steps, and must choose the same event at every selection, return the
same ``False`` when nothing is available, and count the same selections.
A dirty mark dropped anywhere (the channel funnel, ``crash``, ``restart``,
the chosen slot) fails it.

The second property is the fairness bound the engine's docstring promises,
for deliveries as much as for ticks: an event available at ``patience``
selections in a row is the oldest's to lose, and the oldest fires — so it
waits at most ``patience`` selections plus one for each event that was at
least as old (and at every such selection the engine *does* fire the
oldest).
"""

import random
from typing import Any, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mp import MpEngine, MpProcess
from repro.mp.channel import Channel
from repro.net import WireChannel
from repro.sim import DeadProcessError, SimulationError, from_spec


class ScanEngine(MpEngine):
    """``MpEngine`` with the selection it had before the event index."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Its own ledger, whatever the engine under test keeps in these.
        self._born = [None] * len(self._events)
        self._selections = 0

    def _choose(self) -> Tuple[str, Any, Channel | None] | None:
        """Pick the next event, or ``None`` when none is available.

        One pass over :attr:`_events`: the oldest available event (the
        first in scan order among equally old ones) fires once it has been
        available for ``patience`` selections in a row; otherwise one is
        drawn uniformly from the available ones.  The chosen event's age
        restarts, as does that of any event found unavailable.
        """
        selection = self._selections
        born = self._born
        alive = self._alive
        available: List[int] = []
        oldest = -1
        oldest_born = selection + 1
        for i, (_, detail, channel) in enumerate(self._events):
            if channel.empty if channel is not None else not alive[detail]:
                born[i] = None
                continue
            b = born[i]
            if b is None:
                b = born[i] = selection
            if b < oldest_born:
                oldest, oldest_born = i, b
            available.append(i)
        if not available:
            return None
        self._selections = selection + 1
        if selection - oldest_born + 1 >= self.patience:
            chosen = oldest
        else:
            chosen = available[self.rng.randrange(len(available))]
        born[chosen] = None
        return self._events[chosen]


class Recording:
    """Notes what every selection chose (``None`` included)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chosen = []

    def _choose(self):
        event = super()._choose()
        self.chosen.append(event and event[:2])
        return event


class Indexed(Recording, MpEngine):
    pass


class Scanned(Recording, ScanEngine):
    pass


class Talker(MpProcess):
    """Sends on some ticks, answers some messages, and can fall silent, so
    channels fill, drain and sit empty in every combination."""

    def __init__(self, pid, seed):
        super().__init__(pid)
        self.rng = random.Random(seed)

    def on_message(self, ctx, src, payload):
        if self.rng.random() < 0.3:
            ctx.send(src, ("re",))

    def on_tick(self, ctx):
        if self.rng.random() < 0.4:
            ctx.send(self.rng.choice(ctx.neighbors), ("hi",))

    def corrupt(self, rng):
        self.rng.seed(rng.randrange(1 << 16))

    def random_payload(self, rng):
        return ("junk", rng.randrange(4))


def build(cls, spec, patience, factory, seed, silent=False):
    topology = from_spec(spec)
    processes = {p: Talker(p, seed + i) for i, p in enumerate(topology.nodes)}
    if silent:
        for process in processes.values():
            process.on_tick = lambda ctx: None
    return cls(
        topology, processes, patience=patience, seed=seed,
        channel_factory=factory, channel_capacity=3,
    )


def apply(engine, op, a, b):
    """One operation, addressed by position so any topology can take it."""
    nodes = engine.topology.nodes
    pid = nodes[a % len(nodes)]
    peers = engine.topology.neighbors(pid)
    peer = peers[b % len(peers)]
    try:
        if op == "step":
            return [engine.step() for _ in range(1 + b % 4)]
        if op == "ctx-send":
            return engine._contexts[pid].send(peer, ("ctx", b))
        if op == "send":
            return engine.channel(pid, peer).send(("raw", b))
        if op == "deliver":
            return engine.channel(pid, peer).deliver()
        if op == "clear":
            return engine.channel(pid, peer).clear()
        if op == "refill":
            # Empty and non-empty again between two selections: the scan
            # cannot see it happened, so neither may the index.
            channel = engine.channel(pid, peer)
            channel.clear()
            return channel.send(("again", b))
        if op == "corrupt":
            return engine.channel(pid, peer).corrupt(
                random.Random(b), engine.processes[pid].random_payload
            )
        if op == "crash":
            return engine.crash(pid)
        if op == "malice":
            return engine.crash_maliciously(pid, b % 4)
        if op == "restart":
            return engine.restart(pid, rng=random.Random(b) if b % 2 else None)
        if op == "transient":
            return engine.transient_fault(None if b % 3 == 0 else [pid, peer])
    except (DeadProcessError, SimulationError) as error:
        return type(error).__name__
    raise AssertionError(op)


OPS = (
    "step", "step", "step", "step", "ctx-send", "send", "deliver", "clear",
    "refill", "corrupt", "crash", "malice", "restart", "transient",
)

interleavings = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 11), st.integers(0, 11)),
    min_size=20,
    max_size=90,
)
patiences = st.one_of(st.integers(1, 8), st.just(64))
factories = st.sampled_from((Channel, WireChannel))
specs = st.sampled_from(("ring:4", "line:3", "star:3", "grid:2:3"))


@settings(max_examples=120, deadline=None)
@given(specs, patiences, factories, st.integers(0, 999), st.booleans(), interleavings)
def test_the_index_chooses_what_the_scan_chose(
    spec, patience, factory, seed, silent, interleaving
):
    indexed = build(Indexed, spec, patience, factory, seed, silent)
    scanned = build(Scanned, spec, patience, factory, seed, silent)
    for op, a, b in interleaving:
        assert apply(indexed, op, a, b) == apply(scanned, op, a, b), (op, a, b)
        assert indexed.chosen == scanned.chosen, (op, a, b)
        assert indexed._selector.selections == scanned._selections
    # Run both dry: a mark lost earlier can show up late.
    for engine in (indexed, scanned):
        for pid in engine.live_pids():
            engine.crash(pid)
    for _ in range(200):
        assert indexed.step() == scanned.step()
    assert indexed.chosen == scanned.chosen
    assert indexed.chosen[-1] is None
    assert indexed._selector.selections == scanned._selections
    assert indexed.step_count == scanned.step_count
    assert [c.peek_all() for c in indexed.channels()] == [
        c.peek_all() for c in scanned.channels()
    ]


def available_events(engine):
    return {
        (kind, detail)
        for kind, detail, channel in engine._events
        if (not channel.empty if channel is not None else engine.is_alive(detail))
    }


@settings(max_examples=60, deadline=None)
@given(specs, patiences, factories, st.integers(0, 999), interleavings)
# A selection that finds nothing available ends every wait: a channel
# emptied behind the engine's back and refilled after it is young again.
@example(
    spec="line:3", patience=1, factory=WireChannel, seed=6,
    interleaving=[("step", 0, 0)] * 13 + [
        ("crash", 1, 0), ("crash", 2, 0), ("malice", 0, 2),
        ("transient", 0, 1), ("transient", 0, 0), ("transient", 0, 0),
        ("step", 0, 1), ("step", 0, 3), ("deliver", 2, 0), ("step", 0, 0),
        ("transient", 0, 0),
    ],
)
def test_no_available_event_waits_patience_selections(
    spec, patience, factory, seed, interleaving
):
    engine = build(Indexed, spec, patience, factory, seed)
    bound = patience + len(engine._events) - 1
    waited = {}

    def select():
        """One selection, with the ages kept the slow way."""
        before = available_events(engine)
        if not engine.step():
            assert not before
            # Nothing was available, so no event's run of selections
            # continues past this one.
            waited.clear()
            return
        fired = engine.chosen[-1]
        assert fired in before
        for event in list(waited):
            if event not in before:
                del waited[event]
        for event in before:
            waited[event] = waited.get(event, 0) + 1
        longest = max(waited.values())
        if longest >= patience:
            assert waited[fired] == longest, (fired, waited)
        assert longest <= bound, waited
        del waited[fired]

    for op, a, b in interleaving:
        if op == "step":
            for _ in range(1 + b % 4):
                select()
        else:
            apply(engine, op, a, b)
    for _ in range(3 * patience):
        select()
