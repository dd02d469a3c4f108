"""The neighbour-exclusion sweep against the all-pairs oracle: the same
violations in the same order, on random topologies, ``exclude`` sets and
hold-interval dicts — the disjoint per-node holds ``LockState`` folds, and
overlapping (or empty, or reversed) ones, since the function is public."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import neighbour_violations
from repro.sim import line, random_connected, ring, star

from ..obs.exclusion_oracle import oracle_violations

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")

topologies = st.one_of(
    st.integers(3, 7).map(ring),
    st.integers(2, 7).map(line),
    st.integers(2, 5).map(star),
    st.tuples(st.integers(3, 7), st.floats(0.0, 0.6), st.integers(0, 50)).map(
        lambda args: random_connected(args[0], args[1], seed=args[2])
    ),
)

#: Quarter-second grid points, so starts, ends and overlaps tie often.
instants = st.integers(0, 40).map(lambda k: k / 4)


def disjoint_holds():
    """One node's holds as ``LockState`` folds them: in order, never
    overlapping (a release and the next grant may share an instant)."""
    steps = st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=8
    )

    def fold(pairs):
        holds, t = [], 0.0
        for gap, length in pairs:
            start = t + gap / 4
            t = start + length / 4
            holds.append((start, t))
        return holds

    return steps.map(fold)


any_holds = st.lists(st.tuples(instants, instants), max_size=8)


@st.composite
def audits(draw, holds):
    topo = draw(topologies)
    names = [repr(p) for p in topo.nodes]
    intervals = {name: draw(holds) for name in names}
    if draw(st.booleans()):
        # A missing key reads as a node that never held.
        intervals.pop(draw(st.sampled_from(names)))
    exclude = draw(st.lists(st.sampled_from(names), max_size=2))
    return topo, intervals, exclude


@given(audits(disjoint_holds()))
def test_disjoint_holds_match_the_oracle(audit):
    topo, intervals, exclude = audit
    assert neighbour_violations(topo, intervals, exclude=exclude) == (
        oracle_violations(topo, intervals, exclude=exclude)
    )


@given(audits(any_holds))
def test_overlapping_holds_match_the_oracle(audit):
    topo, intervals, exclude = audit
    assert neighbour_violations(topo, intervals, exclude=exclude) == (
        oracle_violations(topo, intervals, exclude=exclude)
    )


def test_many_holds_on_one_edge_are_all_reported_in_order():
    """Every hold of node 0 overlaps every hold of node 1: the sweep's
    output is the full product, ordered as the oracle orders it."""
    intervals = {
        "0": [(k / 8, 10.0) for k in range(30)],
        "1": [(k / 16, 10.0 + k) for k in range(30)],
    }
    found = neighbour_violations(line(2), intervals)
    assert len(found) == 900
    assert found == oracle_violations(line(2), intervals)
