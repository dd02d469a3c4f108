"""``repro check``: Theorem 1 on one small instance, exhaustively.

One path for the one algorithm the command checks: ``NADiners`` capped at
``threshold + 1`` always has a packed form, so every state is an int key of
:class:`repro.fastcore.explorer.FastTransitionSystem` and the properties of
:mod:`repro.verification.properties` run over those keys.  The invariant is
:func:`repro.core.invariant_with_threshold`, evaluated once per state on the
key's ``PackedState`` (``codec.unkey``); a ``Configuration`` is decoded only
for a printed counterexample.
"""

from __future__ import annotations

import resource
import sys
import time

from ..core import NADiners, invariant_report, invariant_with_threshold
from ..fastcore.explorer import FastTransitionSystem
from ..sim import System, from_spec
from ..sim.errors import StateSpaceExceededError
from .properties import check_closure, check_convergence


def _over_cap(spec: str, max_states: int, what: str, needed="N") -> int:
    print(
        f"repro check: {spec} has more than {max_states} {what} "
        f"(the --max-states cap); raise it with --max-states {needed}",
        file=sys.stderr,
    )
    return 2


def full_space(fts: FastTransitionSystem, predicate):
    """``(keys, predicate over keys)``: every state of ``fts``'s full space
    (:meth:`~FastTransitionSystem.enumerate_keys`) and ``predicate`` — one
    of :mod:`repro.core.predicates`, which read a ``PackedState`` as it is —
    evaluated once per state, here, on ``codec.unkey(k)``.

    The space is closed under transitions (no action writes ``needs`` or a
    status), so the returned membership test answers the predicate for every
    successor as well without decoding anything again.
    """
    unkey = fts.codec.unkey
    keys = list(fts.enumerate_keys())
    satisfying = {k for k in keys if predicate(unkey(k))}
    return keys, satisfying.__contains__


def run_check(
    *, topology: str, corrected_threshold: bool = False, reachable: bool = False,
    max_states: int = 1_000_000, progress: int = 0,
) -> int:
    """``repro check``: check the topology named by the spec ``topology``
    and print the verdict; the return value is the process exit code: 0
    proved / no violation, 1 not, 2 past ``max_states``.

    Default: closure of ``I`` and convergence to it from *every* state
    (``needs`` pinned true).  ``reachable``: BFS from the all-hungry initial
    configuration auditing eating-exclusion instead, with a stderr heartbeat
    every ``progress`` BFS levels.
    """
    if max_states < 1:
        raise ValueError("--max-states must be >= 1")
    if progress < 0:
        raise ValueError("--progress must be >= 0")
    spec, topology = topology, from_spec(topology)
    threshold = (
        topology.longest_simple_path() if corrected_threshold else topology.diameter
    )
    algo = NADiners(depth_cap=threshold + 1, diameter_override=threshold)
    fts = FastTransitionSystem(algo, topology)
    if reachable:
        return _check_reachable(fts, spec, threshold, max_states, progress)

    states = fts.codec.layout.size
    if states > max_states:
        return _over_cap(spec, max_states, "states", states)
    print(f"{topology}, threshold={threshold}: {states} states", flush=True)
    keys, predicate = full_space(fts, invariant_with_threshold(threshold))
    closure = check_closure(fts, predicate, keys)
    print(f"I closed: {closure.holds} ({closure.checked_states} legit states)")
    if closure.counterexample is not None:
        cx, codec = closure.counterexample, fts.codec
        print(
            f"counterexample: process {codec.pids[cx.pid]!r} executes "
            f"{codec.table.names[cx.action]} at"
        )
        print(fts.describe(cx.source))
        print("and reaches")
        print(fts.describe(cx.target))
        report = invariant_report(codec.unkey(cx.target), threshold)
        print(f"where I's conjuncts read {report}")
    convergence = check_convergence(fts, predicate, keys, max_states=max_states)
    print(
        f"converges: {convergence.converges} "
        f"({convergence.scc_count} SCCs, {convergence.legit_states} legit states)"
    )
    return 0 if closure.holds and convergence.converges else 1


def _check_reachable(fts, spec, threshold, max_states, every) -> int:
    """BFS the states reachable from the canonical all-hungry initial
    configuration and audit eating-exclusion on each; a state is one int in
    a set.  Timing goes on its own ``elapsed:`` line."""
    topology = fts.topology
    system = System(topology, fts.algorithm)
    for pid in topology.nodes:
        system.write_local(pid, "needs", True)
    started = time.monotonic()

    def heartbeat(level: int, states: int, frontier: int) -> None:
        if level % every == 0:
            rate = states / max(time.monotonic() - started, 1e-9)
            print(
                f"[level {level}] {states} states, frontier {frontier}, "
                f"{rate:.0f} states/s",
                file=sys.stderr,
            )

    try:
        stats = fts.reachable_count(
            [system.snapshot()],
            max_states=max_states,
            progress=heartbeat if every else None,
        )
    except StateSpaceExceededError as exc:
        return _over_cap(spec, exc.max_states, "reachable states")
    elapsed = max(time.monotonic() - started, 1e-9)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        f"{topology}, threshold={threshold}: "
        f"reachable from all-hungry initial (fast backend)"
    )
    print(f"reachable: {stats.states} states, {stats.transitions} transitions")
    print(f"safety violations (neighbours eating): {stats.violations}")
    print(
        f"elapsed: {elapsed:.2f} s, {stats.states / elapsed:.0f} states/s, "
        f"peak RSS {peak_kb / 1024:.1f} MB"
    )
    return 0 if stats.violations == 0 else 1
