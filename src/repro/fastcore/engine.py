"""The packed-state engine: bit-for-bit the object engine, много faster.

:class:`FastEngine` runs the same fault → malice → hunger → action step
cycle as :class:`repro.sim.engine.Engine`, over the packed encoding of
:mod:`repro.fastcore.packed` instead of the object model.  Parity is exact,
not approximate:

* **RNG** — every ``random.Random`` draw happens in the same order with the
  same arguments: havoc target sampling replays ``System.havoc_process``'s
  recipe (same target list, same ``randint``/``sample`` calls, same domain
  objects), transient faults replay ``System.randomize`` (same local-domain
  dict order, same ``topology.edges`` iteration order), hunger policies are
  consulted per live process in node order, and the daemon draws only when
  the object daemon would.
* **scheduling** — the weakly-fair ledger is reimplemented over packed
  enabled-bits with identical semantics (consecutive-observation ages,
  first-strict-max oldest, patience), so the chosen ``(pid, action)``
  sequence matches the object :class:`~repro.sim.scheduler.WeaklyFairDaemon`
  choice-for-choice; :class:`~repro.sim.scheduler.RoundRobinDaemon` is
  mirrored deterministically.
* **events** — with a recorder or bus attached, the engine emits byte-equal
  :class:`~repro.sim.trace.TraceEvent` streams (including pre-action locals
  payloads) and identical snapshot cadences.

Both engines evaluate guards *incrementally*: executing an action at ``p``
can only change the guards of ``p`` and its neighbours (guards read own
locals, neighbour locals and incident edges — nothing else), so each step
re-evaluates a distance-1 neighbourhood instead of the whole system
(``System.all_enabled`` does the same over the object model).  What this
engine adds is the representation: each re-evaluation is a handful of bitset
operations instead of a dict walk through ``ProcessView``, and the fairness
ledger is a heap over packed enabled-bits.  The run loop, result packaging
and counters are :class:`~repro.sim.engine.EngineBase`, shared with the
object engine.  Unsupported pieces (custom algorithms, adversarial daemons,
foreign fault events) raise
:class:`~repro.fastcore.packed.UnsupportedBackendError` up front rather than
silently diverging.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Tuple

from ..sim.configuration import Configuration
from ..sim.engine import EngineBase
from ..sim.errors import DeadProcessError, SchedulingError, UnknownProcessError
from ..sim.faults import BenignCrash, FaultPlan, MaliciousCrash, TransientFault
from ..sim.hunger import HungerPolicy
from ..sim.scheduler import Daemon, RoundRobinDaemon, WeaklyFairDaemon
from ..sim.topology import Pid, Topology
from ..sim.trace import EventKind, TraceEvent, TraceRecorder
from .packed import (
    ACTION_NAMES,
    ALIVE,
    DEAD,
    MALICIOUS,
    STATE_VALUES,
    PackedCodec,
    PackedState,
    UnsupportedBackendError,
    apply_action,
    enabled_bits,
)

_VAR_NAMES = ("state", "needs", "depth")


class FastEngine(EngineBase):
    """Drop-in engine over packed state.

    Construction mirrors :class:`repro.sim.engine.Engine` except that the
    system is described by ``(topology, algorithm)`` instead of a mutable
    :class:`~repro.sim.network.System` (the packed encoding *is* the
    system).  ``initial`` starts from an arbitrary configuration, matching
    ``System.from_configuration``.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm,
        daemon: Daemon | None = None,
        *,
        hunger: HungerPolicy | None = None,
        faults: FaultPlan | None = None,
        recorder: TraceRecorder | None = None,
        bus=None,
        seed: int = 0,
        rng: random.Random | None = None,
        initially_dead: Iterable[Pid] = (),
        initial: Configuration | None = None,
    ) -> None:
        self.codec = PackedCodec(topology, algorithm)
        codec = self.codec
        if initial is not None:
            ps = codec.pack(initial)
        else:
            ps = codec.initial_state(initially_dead)
        self._ps = ps
        self.topology = topology
        self.algorithm = algorithm
        self.hunger = hunger
        self.faults = faults
        self.recorder = recorder
        self.bus = bus
        self.rng = rng if rng is not None else random.Random(seed)
        self.step_count = 0
        #: Executed algorithm actions, keyed by ``(pid, action_name)``.
        self.action_counts: Counter = Counter()
        self._n = codec.n
        self._pids = codec.pids
        self._nbrs = codec.nbrs
        self._d_const = codec.d_const
        self._cap = codec.cap
        # Derived whole-system bitsets, maintained incrementally.
        self._nonT_mask = 0
        self._e_mask = 0
        self._malicious_mask = 0
        for p in range(self._n):
            if ps.state[p] != 0:
                self._nonT_mask |= 1 << p
            if ps.state[p] == 2:
                self._e_mask |= 1 << p
            if ps.status[p] == MALICIOUS:
                self._malicious_mask |= 1 << p
        # Daemon mirror.
        self.daemon = daemon
        if daemon is None or type(daemon) is WeaklyFairDaemon:
            self._round_robin = False
            self.patience = daemon.patience if daemon is not None else 64
        elif type(daemon) is RoundRobinDaemon:
            self._round_robin = True
            self._rr_cursor = 0
        else:
            raise UnsupportedBackendError(
                f"fast backend supports WeaklyFairDaemon/RoundRobinDaemon, "
                f"not {type(daemon).__name__}"
            )
        # Fairness ledger state (weakly-fair mode).
        self._tick = 0
        self._observed_bits = [0] * self._n
        self._since = [0] * (self._n * 5)
        self._heap: List[Tuple[int, int, int]] = []
        self._ledger_dirty: List[int] = []
        # Enabled bits per process + total count.
        self._enab = [0] * self._n
        self._enab_count = 0
        for p in range(self._n):
            bits = self._guard(p)
            self._enab[p] = bits
            self._enab_count += bits.bit_count()
            if bits:
                self._ledger_dirty.append(p)
        # Fault plan mirror.
        self._malicious_budget: Dict[Pid, int] = (
            faults.malicious_budget() if faults is not None else {}
        )
        if faults is not None:
            for event in faults.events:
                if not isinstance(
                    event, (BenignCrash, MaliciousCrash, TransientFault)
                ):
                    raise UnsupportedBackendError(
                        f"fast backend cannot apply {type(event).__name__}"
                    )
        # Havoc targets per process, in ``System.havoc_process``'s order:
        # (local name, None, domain) in declaration order, then
        # (None, neighbour index, edge domain) in neighbour order.
        edge_domains = {
            frozenset((i, j)): dom for _e, i, j, dom in codec.edge_order
        }
        self._havoc_targets = [
            [(name, None, dom) for name, dom in codec.local_domains.items()]
            + [(None, q, edge_domains[frozenset((p, q))]) for q in self._nbrs[p]]
            for p in range(self._n)
        ]
        # Hunger classification: 0 = none, 1 = constant vector, 2 = generic.
        if hunger is None or algorithm.hunger_variable is None:
            self._hunger_mode = 0
        elif hunger.constant:
            self._hunger_mode = 1
            self._hunger_vector = [
                bool(hunger.wants(pid, 0, None)) for pid in self._pids
            ]
            self._dirty_needs = set(range(self._n))
        else:
            self._hunger_mode = 2

    # -------------------------------------------------------------- guards

    def _guard(self, p: int) -> int:
        ps = self._ps
        return enabled_bits(
            p,
            ps.state,
            ps.needs,
            ps.depth,
            ps.status,
            ps.anc,
            ps.desc,
            self._nonT_mask,
            self._e_mask,
            self._d_const,
            self._cap,
        )

    def _recompute(self, p: int) -> None:
        """Refresh ``p``'s enabled bits after any state it reads changed."""
        new = self._guard(p)
        old = self._enab[p]
        if new != old:
            self._enab[p] = new
            self._enab_count += new.bit_count() - old.bit_count()
            self._ledger_dirty.append(p)

    def _recompute_around(self, p: int) -> None:
        self._recompute(p)
        for q in self._nbrs[p]:
            self._recompute(q)

    # ---------------------------------------------------------------- step

    def step(self) -> bool:
        """One engine step; mirrors ``Engine.step`` exactly."""
        step = self.step_count
        faults = self.faults
        pending_faults = faults is not None and not faults.exhausted()
        if pending_faults:
            self._apply_due_faults(step)
        if self._malicious_mask:
            self._malice_phase(step)
        if self._hunger_mode:
            self._refresh_hunger(step)

        if self._enab_count:
            if self._round_robin:
                p, a = self._select_rr()
            else:
                p, a = self._select_wf()
            pid = self._pids[p]
            name = ACTION_NAMES[a]
            payload = self._locals_payload(p) if self.observed else None
            self._execute(p, a)
            self.action_counts[(pid, name)] += 1
            if self.bus is not None or self.recorder is not None:
                self._emit(TraceEvent(step, EventKind.ACTION, pid, name, payload))
        else:
            if not pending_faults and not self._malicious_mask:
                return False
            if self.bus is not None or self.recorder is not None:
                self._emit(TraceEvent(step, EventKind.IDLE))

        self.step_count += 1
        if self.recorder is not None:
            self.recorder.maybe_snapshot(self.step_count, self.snapshot())
        return True

    # ----------------------------------------------------------- selection

    def _select_wf(self) -> Tuple[int, int]:
        """Mirror of ``WeaklyFairDaemon.select`` over packed enabled bits.

        Ages are tracked as "tick the action was last (re-)observed enabled";
        a min-heap on that tick yields the ledger's first-strict-max oldest
        action in O(log) amortized, and the random path draws exactly when
        the object daemon draws.
        """
        tick = self._tick + 1
        self._tick = tick
        obs = self._observed_bits
        enab = self._enab
        dirty = self._ledger_dirty
        if dirty:
            since = self._since
            heap = self._heap
            for p in dirty:
                old = obs[p]
                new = enab[p]
                gained = new & ~old
                if gained:
                    base = p * 5
                    while gained:
                        b = gained & -gained
                        a = b.bit_length() - 1
                        gained ^= b
                        since[base + a] = tick
                        heappush(heap, (tick, p, a))
                obs[p] = new
            del dirty[:]
        heap = self._heap
        since = self._since
        while True:
            t, p, a = heap[0]
            if (obs[p] >> a) & 1 and since[p * 5 + a] == t:
                break
            heappop(heap)
        if tick - t + 1 >= self.patience:
            choice_p, choice_a = p, a
        else:
            k = self.rng.randrange(self._enab_count)
            choice_p, choice_a = self._nth_enabled(k)
        # fired(): drop the key; if still enabled it is re-observed at age 1.
        obs[choice_p] &= ~(1 << choice_a)
        dirty.append(choice_p)
        return choice_p, choice_a

    def _nth_enabled(self, k: int) -> Tuple[int, int]:
        enab = self._enab
        for p in range(self._n):
            e = enab[p]
            if e:
                c = e.bit_count()
                if k < c:
                    while k:
                        e &= e - 1
                        k -= 1
                    return p, (e & -e).bit_length() - 1
                k -= c
        raise SchedulingError("enabled count out of sync")  # pragma: no cover

    def _select_rr(self) -> Tuple[int, int]:
        """Mirror of ``RoundRobinDaemon.select``."""
        enab = self._enab
        n = self._n
        cur = self._rr_cursor
        for offset in range(n):
            p = cur + offset
            if p >= n:
                p -= n
            e = enab[p]
            if e:
                self._rr_cursor = (p + 1) % n
                del self._ledger_dirty[:]
                return p, (e & -e).bit_length() - 1
        raise SchedulingError("no enabled action (select on empty set?)")

    # ------------------------------------------------------------- execute

    def _execute(self, p: int, a: int) -> None:
        ps = self._ps
        apply_action(ps, p, a, self._nbrs[p], self._cap)
        bp = 1 << p
        s = ps.state[p]
        if s:
            self._nonT_mask |= bp
        else:
            self._nonT_mask &= ~bp
        if s == 2:
            self._e_mask |= bp
        else:
            self._e_mask &= ~bp
        self._recompute_around(p)

    # -------------------------------------------------------------- faults

    def _apply_due_faults(self, step: int) -> None:
        for event in self.faults.due(step):
            self._apply_fault(event, step)

    def _apply_fault(self, event, step: int) -> None:
        emitting = self.bus is not None or self.recorder is not None
        if isinstance(event, MaliciousCrash):
            p = self._pid_index(event.pid)
            if event.malicious_steps == 0:
                self._kill(p)
                if emitting:
                    self._emit(
                        TraceEvent(step, EventKind.CRASH, event.pid, "malicious")
                    )
            else:
                self._mark_malicious(p)
                if emitting:
                    self._emit(
                        TraceEvent(
                            step,
                            EventKind.MALICE_BEGIN,
                            event.pid,
                            event.malicious_steps,
                        )
                    )
        elif isinstance(event, BenignCrash):
            self._kill(self._pid_index(event.pid))
            if emitting:
                self._emit(TraceEvent(step, EventKind.CRASH, event.pid, "benign"))
        elif isinstance(event, TransientFault):
            self._randomize(self.rng, event.pids)
            if emitting:
                self._emit(TraceEvent(step, EventKind.TRANSIENT, None, event.pids))
        else:
            raise UnsupportedBackendError(
                f"fast backend cannot apply {type(event).__name__}"
            )

    def inject(self, event) -> None:
        """Apply a fault event immediately, outside any schedule."""
        step = self.step_count
        if isinstance(event, MaliciousCrash) and event.malicious_steps > 0:
            self._mark_malicious(self._pid_index(event.pid))
            self._malicious_budget[event.pid] = event.malicious_steps
            if self.bus is not None or self.recorder is not None:
                self._emit(
                    TraceEvent(
                        step, EventKind.MALICE_BEGIN, event.pid, event.malicious_steps
                    )
                )
            return
        self._apply_fault(event, step)

    def _pid_index(self, pid: Pid) -> int:
        try:
            return self.codec.index[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    def _kill(self, p: int) -> None:
        ps = self._ps
        ps.status[p] = DEAD
        self._malicious_mask &= ~(1 << p)
        self._recompute(p)

    def _mark_malicious(self, p: int) -> None:
        ps = self._ps
        if ps.status[p] == DEAD:
            raise DeadProcessError(self._pids[p])
        ps.status[p] = MALICIOUS
        self._malicious_mask |= 1 << p
        self._recompute(p)

    def _malice_phase(self, step: int) -> None:
        emitting = self.bus is not None or self.recorder is not None
        m = self._malicious_mask
        while m:
            p = (m & -m).bit_length() - 1
            m &= m - 1
            pid = self._pids[p]
            budget = self._malicious_budget.get(pid, 0)
            if budget > 0:
                self._havoc(p)
                if emitting:
                    self._emit(TraceEvent(step, EventKind.HAVOC, pid))
                self._malicious_budget[pid] = budget - 1
            if self._malicious_budget.get(pid, 0) <= 0:
                self._kill(p)
                if emitting:
                    self._emit(
                        TraceEvent(step, EventKind.CRASH, pid, "malice exhausted")
                    )

    def _havoc(self, p: int) -> None:
        """Replay ``System.havoc_process`` draw-for-draw on packed state."""
        rng = self.rng
        targets = self._havoc_targets[p]
        count = rng.randint(1, len(targets))
        for name, q, domain in rng.sample(targets, count):
            if name is not None:
                self._write_local(p, name, domain.sample(rng))
            else:
                self._orient_edge(p, q, domain.sample(rng))
        self._recompute_around(p)

    def _write_local(self, p: int, name: str, value) -> None:
        ps = self._ps
        if name == "state":
            code = 0 if value == "T" else (1 if value == "H" else 2)
            ps.state[p] = code
            bp = 1 << p
            if code:
                self._nonT_mask |= bp
            else:
                self._nonT_mask &= ~bp
            if code == 2:
                self._e_mask |= bp
            else:
                self._e_mask &= ~bp
        elif name == "needs":
            ps.needs[p] = value
            if self._hunger_mode == 1:
                self._dirty_needs.add(p)
        else:
            ps.depth[p] = value

    def _orient_edge(self, i: int, j: int, value: Pid) -> None:
        """Point the edge ``{i, j}`` at ``value`` (the new ancestor)."""
        ps = self._ps
        a = i if value == self._pids[i] else j
        d = j if a == i else i
        ba, bd = 1 << a, 1 << d
        ps.anc[d] |= ba
        ps.desc[d] &= ~ba
        ps.anc[a] &= ~bd
        ps.desc[a] |= bd

    def _randomize(self, rng: random.Random, pids=None) -> None:
        """Replay ``System.randomize`` draw-for-draw on packed state."""
        codec = self.codec
        chosen = tuple(self._pids if pids is None else pids)
        chosen_idx = set()
        for pid in chosen:
            p = self._pid_index(pid)
            chosen_idx.add(p)
            for name, domain in codec.local_domains.items():
                self._write_local(p, name, domain.sample(rng))
        for _e, i, j, dom in codec.edge_order:
            if i in chosen_idx or j in chosen_idx:
                self._orient_edge(i, j, dom.sample(rng))
        touched = set(chosen_idx)
        for p in chosen_idx:
            touched.update(self._nbrs[p])
        for p in sorted(touched):
            self._recompute(p)

    # -------------------------------------------------------------- hunger

    def _refresh_hunger(self, step: int) -> None:
        ps = self._ps
        status = ps.status
        needs = ps.needs
        if self._hunger_mode == 1:
            dirty = self._dirty_needs
            if not dirty:
                return
            vector = self._hunger_vector
            for p in dirty:
                if status[p] == ALIVE and needs[p] != vector[p]:
                    needs[p] = vector[p]
                    self._recompute(p)
            dirty.clear()
        else:
            wants = self.hunger.wants
            rng = self.rng
            for p in range(self._n):
                if status[p] == ALIVE:
                    value = wants(self._pids[p], step, rng)
                    if needs[p] != value:
                        needs[p] = value
                        self._recompute(p)

    # ------------------------------------------------------------- observe

    def _locals_payload(self, p: int) -> Dict[str, object]:
        ps = self._ps
        return {
            "state": STATE_VALUES[ps.state[p]],
            "needs": ps.needs[p],
            "depth": ps.depth[p],
        }

    # ------------------------------------------------------------- queries

    def snapshot(self) -> Configuration:
        """Decode the current packed state into a Configuration."""
        return self.codec.unpack(self._ps)

    def packed_state(self) -> PackedState:
        """A copy of the current packed state (for explorers/tests)."""
        return self._ps.copy()

    def is_live(self, pid: Pid) -> bool:
        return self._ps.status[self._pid_index(pid)] == ALIVE

    def is_quiescent(self) -> bool:
        return self._enab_count == 0
