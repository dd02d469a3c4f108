"""Figure 1 once, as data — the paper's program as an action table.

:data:`FIGURE1` is the whole program: one :class:`Action` per row, a guard
over a handful of *atoms* and a command as field assignments.  An ablation
is an edit of that table (``FIGURE1.without("leave")``), declared where the
variant is (:mod:`repro.core.variants`), not new code.  Nothing here
evaluates a guard.  *Lowerings* turn a table into Python source, spelling
the atoms for one representation of the state, ``compile()`` it once
(:func:`compile_program`) and hand back the functions:

* :func:`view_program` (here) — over the public :class:`~repro.sim.process.
  ProcessView` API: one guard and one command function per row, the
  ``ActionDef``s the object model, the checker and the low-atomicity
  adapter run;
* ``fastcore.table.vector_program`` / ``int_key_program`` — over the packed
  store's vectors and over the explorer's int-encoded state.

A new backend is one more spelling of the atoms, not one more transcription
of the rows.  Generated source is registered in :mod:`linecache` under a
name saying what it was generated for, so a traceback or a profile shows
its lines.  An independent, hand-written transcription of Figure 1 lives in
``tests/core/figure1_oracle.py``; every lowering is tested against it.
"""

from __future__ import annotations

import linecache
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..sim.process import ActionDef
from .state import (
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_FIXDEPTH,
    ACTION_JOIN,
    ACTION_LEAVE,
    VAR_DEPTH,
    VAR_NEEDS,
    VAR_STATE,
)

#: T/H/E codes.  Order matters: it is the FiniteDomain declaration order.
STATE_VALUES: Tuple[str, ...] = ("T", "H", "E")
STATE_CODE: Dict[str, int] = {v: i for i, v in enumerate(STATE_VALUES)}

#: A guard in disjunctive form: alternatives of conjuncts.
Guard = Tuple[Tuple[str, ...], ...]

#: The atom vocabulary, as a lowering finds it in a conjunct or a value.
STATE_TEST = re.compile(r"state == ([THE])")
ATOM = re.compile(r"\b(needs|depth|anc_nonT|desc_E|prop|D)\b")


@dataclass(frozen=True)
class Action:
    """One row of Figure 1.

    ``when`` is the guard: any alternative holds, an alternative being a
    conjunction of Python expressions over the atoms

    * ``state == T`` / ``H`` / ``E`` (the process's own state; always a
      whole conjunct, which is what lets a lowering case-split on it),
    * ``needs``, ``depth`` — its other two variables,
    * ``anc_nonT`` — some ancestor is not thinking,
    * ``desc_E`` — some descendant is eating,
    * ``prop`` — the largest ``depth.q + 1`` over its descendants, clamped
      to the depth cap when one is in force (0 with no descendant),
    * ``D`` — the cycle-detection threshold.

    ``assign`` is the command, ``(variable, value)`` with the value a state
    letter, a number or an atom; ``away`` adds "point every incident edge
    away from the process".
    """

    name: str
    when: Guard
    assign: Tuple[Tuple[str, str], ...]
    away: bool = False


@dataclass(frozen=True)
class ActionTable:
    """Rows in declaration order — the order of the enabled list, and the
    bit position of each action in an enabled set."""

    rows: Tuple[Action, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(row.name for row in self.rows)

    def without(self, name: str) -> "ActionTable":
        return ActionTable(tuple(r for r in self.rows if r.name != name))

    def with_guard(self, name: str, when: Guard) -> "ActionTable":
        return ActionTable(
            tuple(replace(r, when=when) if r.name == name else r for r in self.rows)
        )

    def listing(self) -> str:
        """The program as the paper prints it, ``name : guard → command``,
        one line per row (DESIGN §1 shows this text; a test compares)."""
        width = max(len(name) for name in self.names)
        lines = []
        for row in self.rows:
            guard = " ∨ ".join(" ∧ ".join(alt) for alt in row.when)
            guard = guard.replace("not ", "¬").replace("==", "=")
            command = [f"{variable} := {value}" for variable, value in row.assign]
            command += ["edges away"] if row.away else []
            lines.append(f"{row.name:<{width}} : {guard}  →  {'; '.join(command)}")
        return "\n".join(lines)


FIGURE1 = ActionTable((
    Action(ACTION_JOIN, (("needs", "state == T", "not anc_nonT"),),
           (("state", "H"),)),
    Action(ACTION_LEAVE, (("state == H", "anc_nonT"),), (("state", "T"),)),
    Action(ACTION_ENTER, (("state == H", "not anc_nonT", "not desc_E"),),
           (("state", "E"),)),
    Action(ACTION_EXIT, (("state == E",), ("depth > D",)),
           (("state", "T"), ("depth", "0")), away=True),
    Action(ACTION_FIXDEPTH, (("depth < prop",),), (("depth", "prop"),)),
))


# ------------------------------------------------------- source -> functions


class Program(NamedTuple):
    """Compiled generated code: its functions by name, and its text."""

    functions: Dict[str, Callable]
    source: str


def compile_program(source: str, filename: str) -> Program:
    """``compile()`` generated ``source`` under ``filename``, registered in
    :mod:`linecache` (mtime None: never invalidated) so tracebacks, ``pdb``
    and profilers can show its lines."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    namespace: Dict[str, Callable] = {}
    exec(compile(source, filename, "exec"), namespace)
    return Program(namespace, source)


# ----------------------------------------------------------- view lowering


def _neighbour_atoms(cap: Optional[int]) -> Dict[str, List[str]]:
    """The atoms that quantify over neighbours, as early-return loops over
    the view's public reads (the edge variable names the ancestor)."""
    clamp = [f"    if m > {cap}: m = {cap}"] if cap is not None else []
    return {
        "anc_nonT": [
            "def anc_nonT(view):",
            "    peek, edge_value = view.peek, view.edge_value",
            "    for q in view.neighbors:",
            f"        if edge_value(q) == q and peek(q, {VAR_STATE!r}) != 'T':",
            "            return True",
            "    return False",
        ],
        "desc_E": [
            "def desc_E(view):",
            "    pid, peek, edge_value = view.pid, view.peek, view.edge_value",
            "    for q in view.neighbors:",
            f"        if edge_value(q) == pid and peek(q, {VAR_STATE!r}) == 'E':",
            "            return True",
            "    return False",
        ],
        "prop": [
            "def prop(view):",
            "    pid, peek, edge_value = view.pid, view.peek, view.edge_value",
            "    m = 0",
            "    for q in view.neighbors:",
            "        if edge_value(q) == pid:",
            f"            dq = peek(q, {VAR_DEPTH!r})",
            "            if dq >= m: m = dq + 1",
            *clamp,
            "    return m",
        ],
    }


@lru_cache(maxsize=None)
def view_program(
    table: ActionTable, cap: Optional[int], d_override: Optional[int]
) -> Tuple[ActionDef, ...]:
    """``table`` as ``ActionDef``s over :class:`ProcessView`'s public
    surface only — the view is the model's enforcement point, so generated
    code gets no private door.  ``d_override`` replaces the diameter as the
    constant ``D``.  Writes go ``state``, ``depth``, then edges in neighbour
    order.  Memoised — one compile per (table, cap, ``D``) per process,
    however many algorithm instances are built; the source is in
    :mod:`linecache` under ``guard.__code__.co_filename``."""
    helpers = _neighbour_atoms(cap)
    atoms = {
        "needs": f"view.get({VAR_NEEDS!r})",
        "depth": f"view.get({VAR_DEPTH!r})",
        "D": "view.diameter" if d_override is None else str(d_override),
        **{atom: f"{atom}(view)" for atom in helpers},
    }

    def spell(expression: str) -> str:
        expression = ATOM.sub(lambda m: atoms[m[1]], expression)
        return STATE_TEST.sub(
            lambda m: f"view.get({VAR_STATE!r}) == {m[1]!r}", expression
        )

    blocks = list(helpers.values())
    for row in table.rows:
        guard = " or ".join(" and ".join(map(spell, alt)) for alt in row.when)
        blocks.append([f"def {row.name}_guard(view):", f"    return {guard}"])
        command = [f"def {row.name}(view):"]
        for variable, value in row.assign:
            value = repr(value) if value in STATE_CODE else spell(value)
            command.append(f"    view.set({variable!r}, {value})")
        if row.away:
            command += ["    for q in view.neighbors:", "        view.set_edge(q, q)"]
        blocks.append(command)
    functions = compile_program(
        "\n\n\n".join("\n".join(block) for block in blocks) + "\n",
        f"<repro.core figure1 view {'+'.join(table.names)} cap={cap} "
        f"D={'diameter' if d_override is None else d_override}>",
    ).functions
    return tuple(
        ActionDef(row.name, functions[f"{row.name}_guard"], functions[row.name])
        for row in table.rows
    )
