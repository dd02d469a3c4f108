"""The neighbour-exclusion audit as first written: every hold of one
endpoint against every hold of the other.  Quadratic per edge, which is
why :func:`repro.obs.slo.neighbour_violations` sweeps instead — this loop
stays as the reference its answers (order included) are held to."""

from repro.obs.slo import Violation


def oracle_violations(topology, intervals, *, exclude=()):
    excluded = set(exclude)
    violations = []
    for e in topology.edges:
        p, q = tuple(e)
        a, b = repr(p), repr(q)
        if a in excluded or b in excluded:
            continue
        for start_a, end_a in intervals.get(a, ()):
            for start_b, end_b in intervals.get(b, ()):
                lo = max(start_a, start_b)
                hi = min(end_a, end_b)
                if lo < hi:
                    violations.append(Violation(a, b, lo, hi))
    violations.sort(key=lambda v: (v.overlap_start, v.node_a, v.node_b))
    return violations
