"""Exception hierarchy for the simulation kernel.

All kernel errors derive from :class:`SimulationError` so callers can catch
kernel problems with a single ``except`` clause while still being able to
distinguish configuration mistakes (bad topology, unknown variable) from
runtime scheduling problems.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class TopologyError(SimulationError):
    """The communication graph is malformed (disconnected, self-loop, ...)."""


class UnknownProcessError(SimulationError):
    """A process identifier does not belong to the system."""

    def __init__(self, pid: object) -> None:
        super().__init__(f"unknown process: {pid!r}")
        self.pid = pid


class UnknownVariableError(SimulationError):
    """A variable name is not declared by the algorithm."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown variable: {name!r}")
        self.name = name


class NotNeighborsError(SimulationError):
    """An edge operation referenced two processes that are not neighbours."""

    def __init__(self, pid: object, other: object) -> None:
        super().__init__(f"processes {pid!r} and {other!r} are not neighbours")
        self.pid = pid
        self.other = other


class DomainError(SimulationError):
    """A value written to a variable falls outside its declared domain."""

    def __init__(self, name: str, value: object) -> None:
        super().__init__(f"value {value!r} outside the domain of variable {name!r}")
        self.name = name
        self.value = value


class DeadProcessError(SimulationError):
    """An action of a dead (crashed) process was asked to execute."""

    def __init__(self, pid: object) -> None:
        super().__init__(f"process {pid!r} is dead and cannot take steps")
        self.pid = pid


class SchedulingError(SimulationError):
    """A daemon produced an invalid scheduling decision."""


class FaultPlanError(SimulationError):
    """A fault plan is internally inconsistent (duplicate crash, bad step, ...)."""


class StateSpaceExceededError(SimulationError):
    """A reachability sweep found more states than its ``max_states`` cap."""

    def __init__(self, max_states: int) -> None:
        super().__init__(f"state space exceeds max_states={max_states}")
        self.max_states = max_states
