"""Variable domains.

Every local variable declared by an :class:`~repro.sim.process.Algorithm` is
given a *domain*: the set of values the variable may legally take.  Domains
serve three distinct masters:

* the **simulator** validates writes against them (catching algorithm bugs
  early) and samples from them when injecting transient faults or driving the
  havoc phase of a malicious crash;
* the **model checker** enumerates them to build the full state space;
* **property-based tests** use them to generate arbitrary configurations.

Two families are provided.  :class:`FiniteDomain` and :class:`IntRange` are
fully enumerable.  :class:`SaturatingInt` models the paper's unbounded
``depth`` counter: it is enumerable only after choosing a saturation cap,
which is sound for the dining-philosophers program because every guard only
compares ``depth`` against the diameter ``D`` (see DESIGN.md §5).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Iterator, Sequence

from .errors import DomainError


class Domain(ABC):
    """An abstract set of values a variable may take.

    Members must be immutable (bools, ints, strings, enum members, tuples
    of those).  ``System`` treats a write of the very object already stored
    as no write at all, so a command that mutated a stored list or dict in
    place and wrote it back would change state without anyone's guards
    being re-evaluated (see ``System.enabled``).
    """

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Return True when ``value`` is a member of the domain."""

    @abstractmethod
    def sample(self, rng: random.Random) -> Any:
        """Draw a uniformly random member (used for fault injection)."""

    @abstractmethod
    def values(self) -> Iterator[Any]:
        """Iterate every member.  Raises if the domain is not enumerable."""

    def validate(self, name: str, value: Any) -> Any:
        """Return ``value`` or raise :class:`DomainError` naming ``name``."""
        if not self.contains(value):
            raise DomainError(name, value)
        return value


class FiniteDomain(Domain):
    """An explicitly listed finite set of values.

    >>> d = FiniteDomain(("T", "H", "E"))
    >>> d.contains("H")
    True
    >>> sorted(d.values())
    ['E', 'H', 'T']
    """

    def __init__(self, members: Sequence[Any]) -> None:
        if not members:
            raise ValueError("a FiniteDomain needs at least one member")
        self._members: tuple[Any, ...] = tuple(members)
        self._member_set = frozenset(self._members)
        if len(self._member_set) != len(self._members):
            raise ValueError("FiniteDomain members must be distinct")

    def contains(self, value: Any) -> bool:
        return value in self._member_set

    def sample(self, rng: random.Random) -> Any:
        return rng.choice(self._members)

    def values(self) -> Iterator[Any]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return f"FiniteDomain({self._members!r})"


class IntRange(Domain):
    """The integer interval ``[lo, hi]``, inclusive at both ends."""

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty IntRange: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and self.lo <= value <= self.hi

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)

    def values(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"IntRange({self.lo}, {self.hi})"


class SaturatingInt(Domain):
    """Non-negative integers, unbounded for writes but sampled/enumerated
    up to a cap.

    The paper's ``depth`` variable may grow without bound during a
    computation, so :meth:`contains` accepts every ``int >= 0``.  Fault
    injection and state-space enumeration, however, need a finite horizon:
    ``cap`` bounds both.  For the dining-philosophers program a cap of
    ``D + 1`` is a sound abstraction because all guards only test
    ``depth > D``.
    """

    def __init__(self, cap: int) -> None:
        if cap < 0:
            raise ValueError("SaturatingInt cap must be non-negative")
        self.cap = cap

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def sample(self, rng: random.Random) -> int:
        return rng.randint(0, self.cap)

    def values(self) -> Iterator[int]:
        return iter(range(self.cap + 1))

    def __len__(self) -> int:
        return self.cap + 1

    def __repr__(self) -> str:
        return f"SaturatingInt(cap={self.cap})"


class BoolDomain(FiniteDomain):
    """The two booleans; a convenience singleton-ish domain."""

    def __init__(self) -> None:
        super().__init__((False, True))

    def __repr__(self) -> str:
        return "BoolDomain()"
