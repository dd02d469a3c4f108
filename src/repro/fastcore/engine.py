"""The packed store: the paper's program over bitsets, behind the surface
:class:`repro.sim.engine.Engine` drives.

There is one engine.  What this module adds is a second *representation*
of the state it steps: :class:`PackedSystem` keeps a configuration in the
packed encoding of :mod:`repro.fastcore.packed` and offers the
:class:`~repro.sim.network.StateStore` surface the object model's
:class:`~repro.sim.network.System` offers.  Step cycle, fault handling,
malice phase, hunger refresh, daemons and the fairness ledger are the
engine's and exist once; the havoc/randomize draw recipe is
``StateStore``'s and exists once.  So a seed produces the same computation
on either store by construction, and what the co-run battery in
``tests/fastcore`` still has to vouch for is the part that is *lowered*
twice: Figure 1's guards and commands (the program
:func:`repro.fastcore.table.vector_program` generates from the action table
and each store binds over its own vectors, against the ``ActionDef``s
:func:`repro.core.figure1.view_program` generates from the same rows).
Like ``System``, the packed store re-evaluates guards incrementally — a
write at ``p`` re-evaluates ``p`` and its neighbours — here a handful of
bitset operations per process instead of a dict walk through
``ProcessView``, and for the engine's ``fire(p, a)`` inside the same
generated frame as the command.

What the packed store cannot run it refuses with
:class:`~repro.fastcore.packed.UnsupportedBackendError`: an algorithm with
no action table, or whose actions are not its table's (at construction,
in :class:`PackedCodec`) — and any part of ``System``'s public
surface it does not serve (a strategy or score function reaching for
``read_edge``, ``view``, ``restore`` …, on first read).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from ..core.figure1 import STATE_CODE, STATE_VALUES
from ..core.state import VAR_DEPTH, VAR_NEEDS, VAR_STATE
from ..sim.configuration import Configuration
from ..sim.engine import Engine
from ..sim.errors import DeadProcessError, UnknownProcessError, UnknownVariableError
from ..sim.network import ProcessStatus, StateStore, System
from ..sim.process import ActionDef
from ..sim.scheduler import Daemon
from ..sim.topology import Pid, Topology, edge
from .packed import (
    ALIVE,
    DEAD,
    MALICIOUS,
    PackedCodec,
    UnsupportedBackendError,
)
from .table import vector_program

#: ``PackedState.status`` codes, decoded and back.
_STATUS = {
    ALIVE: ProcessStatus.ALIVE,
    MALICIOUS: ProcessStatus.MALICIOUS,
    DEAD: ProcessStatus.DEAD,
}
_STATUS_CODE = {status: code for code, status in _STATUS.items()}


class PackedSystem(StateStore):
    """The paper's program (or an ablation) on a topology, as packed
    vectors and bitsets.

    Construction mirrors :class:`~repro.sim.network.System`; ``initial``
    starts from an arbitrary configuration instead (what
    ``System.from_configuration`` does for the object model).
    """

    def __init__(
        self,
        topology: Topology,
        algorithm,
        *,
        initially_dead: Iterable[Pid] = (),
        initial: Configuration | None = None,
    ) -> None:
        codec = self.codec = PackedCodec(topology, algorithm)
        super().__init__(topology, algorithm)
        ps = self._ps = (
            codec.pack(initial)
            if initial is not None
            else codec.initial_state(initially_dead)
        )
        #: Figure 1 over these vectors, generated from the table (once per
        #: table, cap and D, however many stores are built).
        program = vector_program(codec.table, codec.cap, codec.d_const)
        self.source = program.source
        self._action_index = {name: a for a, name in enumerate(codec.table.names)}
        #: Who may read a cell of ``p``: the process and its neighbours.
        self._readers = tuple((p,) + row for p, row in enumerate(codec.nbrs))
        # ``fire(p, a)`` is the engine's per-step entry, spared the pid/name
        # round trip: command, masks and guard refresh in one generated
        # frame.  The closures hold ``ps``'s lists and the enabled set's
        # ``bits``/``changed``, which are therefore never rebound.
        self.fire, self._recompute, self._set_state = program.functions["bind"](
            ps.state, ps.needs, ps.depth, ps.status, ps.anc, ps.desc,
            codec.nbrs, self._readers, self._enabled,
        )
        self._local_domains = codec.local_domains
        edge_cells = {
            e: (self._orient, (i, j), dom) for e, i, j, dom in codec.edge_order
        }
        self._edge_cells = list(edge_cells.items())
        self._local_count = len(codec.local_domains)
        self._writable = {
            pid: [
                (self._put, (p, name), dom)
                for name, dom in codec.local_domains.items()
            ]
            + [edge_cells[edge(pid, q)] for q in topology.neighbors(pid)]
            for p, pid in enumerate(self.pids)
        }
        self._recompute(range(codec.n))

    def _p(self, pid: Pid) -> int:
        try:
            return self._index[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    # -------------------------------------------------------------- guards

    def _wrote(self, pid: Pid) -> None:
        self._recompute(self._readers[self._index[pid]])

    def execute(self, pid: Pid, action: ActionDef) -> None:
        """Run ``action`` at ``pid`` (the caller has checked the guard)."""
        p = self._p(pid)
        if self._ps.status[p]:
            raise DeadProcessError(pid)
        self.fire(p, self._action_index[action.name])

    # -------------------------------------------------------------- status

    def status(self, pid: Pid) -> ProcessStatus:
        return _STATUS[self._ps.status[self._p(pid)]]

    def _set_status(self, pid: Pid, status: ProcessStatus) -> None:
        p, code = self._index[pid], _STATUS_CODE[status]
        if self._ps.status[p] != code:
            self._ps.status[p] = code
            self._recompute((p,))
            self._status_changed(pid, status)

    # ----------------------------------------------------------- variables

    def locals_of(self, pid: Pid) -> Dict[str, Any]:
        """``pid``'s local variables, decoded, in declaration order."""
        p = self._p(pid)
        ps = self._ps
        return {
            VAR_STATE: STATE_VALUES[ps.state[p]],
            VAR_NEEDS: ps.needs[p],
            VAR_DEPTH: ps.depth[p],
        }

    def write_local(self, pid: Pid, variable: str, value: Any) -> None:
        """Write one local variable, by ``System.write_local``'s rules: a
        no-op for the object already stored, validated otherwise."""
        p = self._p(pid)
        if variable == VAR_NEEDS:  # the per-step case: the hunger refresh
            old = self._ps.needs[p]
        else:
            try:
                old = self.locals_of(pid)[variable]
            except KeyError:
                raise UnknownVariableError(variable) from None
        if value is old:
            return
        self._local_domains[variable].validate(variable, value)
        self._put((p, variable), value)
        if variable == self._hunger_var:
            self.hunger_stale.add(pid)
        if value != old:
            # ``needs`` is an input only its own process's guards read.
            self._recompute((p,) if variable == VAR_NEEDS else self._readers[p])

    def _put(self, cell: Tuple[int, str], value: Any) -> None:
        """Store an in-domain value in a local raw (a :data:`~repro.sim.
        network.Cell` setter: no validation, no guard re-evaluation)."""
        p, variable = cell
        ps = self._ps
        if variable == VAR_STATE:
            self._set_state(p, STATE_CODE[value])
        elif variable == VAR_NEEDS:
            ps.needs[p] = value
        else:
            ps.depth[p] = value

    def _orient(self, ends: Tuple[int, int], value: Pid) -> None:
        """Point the edge between ``ends`` at ``value`` (the new ancestor;
        the edge cells' setter)."""
        i, j = ends
        ps = self._ps
        a, d = (i, j) if value == self.pids[i] else (j, i)
        ba, bd = 1 << a, 1 << d
        ps.anc[d] |= ba
        ps.desc[d] &= ~ba
        ps.anc[a] &= ~bd
        ps.desc[a] |= bd

    # ------------------------------------------------------- configuration

    def snapshot(self) -> Configuration:
        """Decode the current packed state into a Configuration."""
        return self.codec.unpack(self._ps)


def _refusal(name: str) -> property:
    def refuse(self):
        raise UnsupportedBackendError(
            f"the packed store does not serve System.{name}; "
            "run this on the object backend"
        )

    return property(refuse)


# The one refusal for "the packed store does not serve that": a strategy,
# score function or fault event written against System gets a typed error
# naming what it reached for.  Properties rather than ``__getattr__``: a
# class with that hook takes CPython's slow path on *every* attribute read,
# and the engine reads the store's several times a step.
for _name in dir(System):
    if not _name.startswith("_") and not hasattr(PackedSystem, _name):
        setattr(PackedSystem, _name, _refusal(_name))


class FastEngine(Engine):
    """``Engine(PackedSystem(topology, algorithm, …), daemon, …)``, under
    the name and with the constructor the fast backend has always had."""

    #: In this class's own dict on purpose: profilers and the benchmark's
    #: tracer patch ``step`` per class, through ``vars(cls)``, and must be
    #: able to tell a packed step from an object one.
    step = Engine.step

    def __init__(
        self,
        topology: Topology,
        algorithm,
        daemon: Daemon | None = None,
        *,
        initially_dead: Iterable[Pid] = (),
        initial: Configuration | None = None,
        **kwargs,
    ) -> None:
        super().__init__(
            PackedSystem(
                topology, algorithm, initially_dead=initially_dead, initial=initial
            ),
            daemon,
            **kwargs,
        )


#: Registered state backends, by name.
STATE_BACKENDS = ("object", "fast")


def make_engine(
    topology,
    algorithm,
    daemon=None,
    *,
    backend: str = "object",
    initially_dead=(),
    initial=None,
    **kwargs,
) -> Engine:
    """Build an engine over the state store ``backend`` names.

    ``initial`` starts from an arbitrary configuration (and then decides who
    is dead); everything else is passed to :class:`Engine`.
    """
    if backend == "fast":
        return FastEngine(
            topology,
            algorithm,
            daemon,
            initially_dead=initially_dead,
            initial=initial,
            **kwargs,
        )
    if backend != "object":
        raise UnsupportedBackendError(
            f"unknown state backend {backend!r}; expected one of {STATE_BACKENDS}"
        )
    if initial is not None:
        system = System.from_configuration(algorithm, initial)
    else:
        system = System(topology, algorithm, initially_dead=initially_dead)
    return Engine(system, daemon, **kwargs)
