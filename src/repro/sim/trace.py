"""Trace recording.

A :class:`TraceRecorder` captures what happened during a run: one
:class:`TraceEvent` per engine occurrence (action execution, havoc step,
crash, transient fault), plus optional periodic configuration snapshots.

Recording is opt-in because snapshots cost O(system size) each; benchmarks
that only need aggregate counters use the engine's built-in action counters
instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from .configuration import Configuration
from .topology import Pid


class EventKind(enum.Enum):
    """What a trace event records."""

    ACTION = "action"  #: A live process executed an algorithm action.
    HAVOC = "havoc"  #: A malicious process took one arbitrary step.
    CRASH = "crash"  #: A process halted (benign crash or end of malice).
    MALICE_BEGIN = "malice-begin"  #: A malicious crash entered its arbitrary phase.
    TRANSIENT = "transient"  #: A transient fault corrupted state.
    IDLE = "idle"  #: No action enabled this step (system waiting on faults).


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence.

    ``detail`` is the action name for ACTION events and free-form context for
    the others (e.g. the corrupted pid set of a transient fault).  ``payload``
    optionally carries structured context — for ACTION events the engine puts
    the acting process's pre-action locals there, which is what lets a depth
    probe see the value ``depth`` held *when* ``exit`` fired.  It is excluded
    from equality so payload-free replicas still compare equal to originals.
    """

    step: int
    kind: EventKind
    pid: Optional[Pid] = None
    detail: Any = None
    payload: Any = field(default=None, compare=False)

    def __str__(self) -> str:
        pid = "" if self.pid is None else f" {self.pid!r}"
        detail = "" if self.detail is None else f" {self.detail}"
        return f"[{self.step:>6}] {self.kind.value}{pid}{detail}"


class TraceRecorder:
    """Accumulates events and (optionally) configuration snapshots.

    Parameters
    ----------
    snapshot_every:
        Record a full configuration snapshot every N executed steps;
        0 disables snapshots.  The initial and final configurations are
        always recorded when snapshots are enabled.
    keep_events:
        Event recording can be switched off independently when only
        snapshots are wanted.
    """

    def __init__(self, snapshot_every: int = 0, *, keep_events: bool = True) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")
        self.snapshot_every = snapshot_every
        self.keep_events = keep_events
        self._events: List[TraceEvent] = []
        self._snapshots: List[Tuple[int, Configuration]] = []

    # -------------------------------------------------------------- record

    def record_event(self, event: TraceEvent) -> None:
        if self.keep_events:
            self._events.append(event)

    def wants_snapshot(self, step: int) -> bool:
        """Whether ``step`` is on the cadence — ask before building one."""
        return bool(self.snapshot_every) and step % self.snapshot_every == 0

    def maybe_snapshot(self, step: int, configuration: Configuration) -> None:
        """Record ``configuration`` if ``step`` is on the cadence."""
        if self.wants_snapshot(step):
            self._snapshots.append((step, configuration))

    def force_snapshot(self, step: int, configuration: Configuration) -> None:
        """Record a snapshot regardless of cadence (run start/end)."""
        if self.snapshot_every:
            if not self._snapshots or self._snapshots[-1][0] != step:
                self._snapshots.append((step, configuration))

    # --------------------------------------------------------------- query

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    @property
    def snapshots(self) -> Tuple[Tuple[int, Configuration], ...]:
        return tuple(self._snapshots)

    def events_of_kind(self, kind: EventKind) -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self._events if e.kind is kind)

    def actions_of(self, pid: Pid) -> Tuple[TraceEvent, ...]:
        """All algorithm actions executed by ``pid``, in order."""
        return tuple(
            e for e in self._events if e.kind is EventKind.ACTION and e.pid == pid
        )

    def first_action(self, pid: Pid, action_name: str) -> Optional[TraceEvent]:
        """The earliest execution of ``action_name`` by ``pid``, if any."""
        for e in self._events:
            if e.kind is EventKind.ACTION and e.pid == pid and e.detail == action_name:
                return e
        return None

    def clear(self) -> None:
        self._events.clear()
        self._snapshots.clear()

    def __len__(self) -> int:
        return len(self._events)

    def render(self, limit: int | None = None) -> str:
        """A human-readable listing of the first ``limit`` events."""
        chosen = self._events if limit is None else self._events[:limit]
        body = "\n".join(str(e) for e in chosen)
        if limit is not None and len(self._events) > limit:
            body += f"\n... ({len(self._events) - limit} more events)"
        return body
