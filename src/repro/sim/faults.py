"""Fault injection.

The paper's fault taxonomy (§1):

* **benign crash** — the process halts, undetectably, and never steps again
  (:class:`BenignCrash`; with ``at_step=0`` this is an *initially dead*
  process);
* **malicious crash** — the process "makes a finite number of arbitrary
  steps before halting" (:class:`MaliciousCrash`).  During the arbitrary
  phase the process may write anything into its own local variables and its
  incident shared edge variables — exactly the state a healthy process could
  write — after which it halts;
* **transient fault** — perturbs the state of (part of) the system,
  leaving it arbitrary, after which no further faults occur and
  stabilization must bring the system back (:class:`TransientFault`).

A :class:`FaultPlan` is a validated schedule of such events, applied by the
engine at the start of the step they are due.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import FaultPlanError
from .network import StateStore
from .topology import Pid


class FaultEvent(ABC):
    """One scheduled fault."""

    #: Engine step at whose start the fault takes effect.
    at_step: int

    @abstractmethod
    def apply(self, system: StateStore, rng: random.Random) -> None:
        """Mutate ``system`` — either state store — to reflect the fault
        occurring."""


@dataclass(frozen=True)
class BenignCrash(FaultEvent):
    """Process ``pid`` halts at ``at_step`` and never steps again."""

    pid: Pid
    at_step: int = 0

    def apply(self, system: StateStore, rng: random.Random) -> None:
        system.kill(self.pid)


@dataclass(frozen=True)
class MaliciousCrash(FaultEvent):
    """Process ``pid`` behaves arbitrarily for ``malicious_steps`` engine
    steps starting at ``at_step``, then halts.

    Each step of the arbitrary phase the process performs one *havoc* write
    (random in-domain values into a random subset of its own locals and
    incident edges).  The engine drives the phase; this event only flips the
    process into the MALICIOUS status and registers the budget.
    """

    pid: Pid
    at_step: int = 0
    malicious_steps: int = 4

    def __post_init__(self) -> None:
        if self.malicious_steps < 0:
            raise FaultPlanError("malicious_steps must be non-negative")

    def apply(self, system: StateStore, rng: random.Random) -> None:
        if self.malicious_steps == 0:
            system.kill(self.pid)
        else:
            system.mark_malicious(self.pid)


@dataclass(frozen=True)
class TransientFault(FaultEvent):
    """State corruption at ``at_step``.

    ``pids=None`` corrupts the entire system state (every local variable of
    every process and every edge variable); a tuple of pids limits the
    corruption to those processes and their incident edges.
    """

    at_step: int = 0
    pids: Tuple[Pid, ...] | None = None

    def apply(self, system: StateStore, rng: random.Random) -> None:
        system.randomize(rng, self.pids)


class FaultPlan:
    """A validated, step-ordered schedule of fault events.

    Rules enforced at construction:

    * steps are non-negative;
    * a process crashes (benignly or maliciously) at most once;
    * malicious budgets are tracked so the engine can retire processes.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        crashed: set[Pid] = set()
        for event in events:
            if event.at_step < 0:
                raise FaultPlanError(f"fault scheduled at negative step: {event!r}")
            if isinstance(event, (BenignCrash, MaliciousCrash)):
                if event.pid in crashed:
                    raise FaultPlanError(f"process {event.pid!r} crashes twice")
                crashed.add(event.pid)
        self._events: List[FaultEvent] = sorted(events, key=lambda e: e.at_step)
        self._cursor = 0

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return tuple(self._events)

    @property
    def crash_sites(self) -> Tuple[Pid, ...]:
        """All processes scheduled to crash (benignly or maliciously)."""
        return tuple(
            e.pid for e in self._events if isinstance(e, (BenignCrash, MaliciousCrash))
        )

    def malicious_budget(self) -> Dict[Pid, int]:
        """Per-process arbitrary-step budgets for malicious crashes."""
        return {
            e.pid: e.malicious_steps
            for e in self._events
            if isinstance(e, MaliciousCrash) and e.malicious_steps > 0
        }

    def due(self, step: int) -> List[FaultEvent]:
        """Pop every event scheduled at or before ``step`` (in order)."""
        due: List[FaultEvent] = []
        while self._cursor < len(self._events) and self._events[self._cursor].at_step <= step:
            due.append(self._events[self._cursor])
            self._cursor += 1
        return due

    def exhausted(self) -> bool:
        """True when no future events remain."""
        return self._cursor >= len(self._events)

    def reset(self) -> None:
        """Rewind the plan (reuse across runs)."""
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self._events)} events)"
