"""Masking analysis — probing the paper's concluding open problem.

The paper distinguishes its guarantee ("eventual correctness outside the
failure locality") from the stronger *masking* tolerance it leaves to future
work: a masking program "always operates correctly outside of failure
locality **during** the crash".

This module quantifies exactly how non-masking the paper's program is.
During a malicious crash the faulty process can set its own ``state`` to
``E`` while a neighbour eats, so safety violations involving the faulty
process are possible *during* the arbitrary phase.  But the enter guard is
local: a live process only starts eating when every neighbour it must watch
is not eating, so a violation between two **live non-faulty** processes can
never be manufactured remotely — which is itself a masking-flavoured
property worth measuring.

:func:`masking_probe` runs a malicious-crash scenario while classifying
every sampled violation as *faulty-involved* (includes the malicious/dead
process) or *clean-pair* (two live non-faulty processes).  The paper's
program should show zero clean-pair violations ever, and faulty-involved
violations only during/immediately after the arbitrary phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.predicates import eating_pairs
from ..sim.configuration import Configuration
from ..sim.engine import Engine
from ..sim.faults import MaliciousCrash
from ..sim.hunger import AlwaysHungry
from ..sim.network import System
from ..sim.process import Algorithm
from ..sim.topology import Pid, Topology


@dataclass(frozen=True)
class MaskingReport:
    """Violation census of one malicious-crash run."""

    victim: Pid
    malicious_steps: int
    sampled_states: int
    #: sampled states with a violating pair that includes the faulty process.
    faulty_involved: int
    #: sampled states with a violating pair of two live non-faulty processes.
    clean_pair: int
    #: last sampled step index at which any violation was observed (-1: none).
    last_violation_step: int

    @property
    def masks_clean_pairs(self) -> bool:
        """True when no two healthy processes ever violated safety."""
        return self.clean_pair == 0

    @property
    def violations_transient(self) -> bool:
        """True when every observed violation cleared before the run's end."""
        return self.last_violation_step < self.sampled_states - 1


def classify_violations(config: Configuration) -> Tuple[int, int]:
    """(faulty-involved, clean-pair) violating-pair counts in one state."""
    faulty = config.faulty
    involved = clean = 0
    for pair in eating_pairs(config):
        if all(p in faulty for p in pair):
            continue  # both dead: frozen garbage, not an active violation
        if faulty & pair:
            involved += 1
        else:
            clean += 1
    return involved, clean


def masking_probe(
    algorithm: Algorithm,
    topology: Topology,
    victim: Pid,
    *,
    malicious_steps: int = 20,
    warmup: int = 2_000,
    observe: int = 30_000,
    sample_every: int = 1,
    seed: int = 0,
) -> MaskingReport:
    """Crash ``victim`` maliciously mid-run and census the violations."""
    system = System(topology, algorithm)
    engine = Engine(system, hunger=AlwaysHungry(), seed=seed)
    engine.run(warmup)
    engine.inject(MaliciousCrash(victim, malicious_steps=malicious_steps))

    sampled = faulty_involved = clean_pair = 0
    last_violation = -1
    for _ in range(observe):
        if not engine.step():
            break
        if engine.step_count % sample_every:
            continue
        involved, clean = classify_violations(system.snapshot())
        if involved:
            faulty_involved += 1
        if clean:
            clean_pair += 1
        if involved or clean:
            last_violation = sampled
        sampled += 1
    return MaskingReport(
        victim=victim,
        malicious_steps=malicious_steps,
        sampled_states=sampled,
        faulty_involved=faulty_involved,
        clean_pair=clean_pair,
        last_violation_step=last_violation,
    )
