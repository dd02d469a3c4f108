"""Figure 1 once, as data — the paper's program as an action table.

:data:`FIGURE1` is the whole program: one :class:`Action` per row, a guard
over a handful of *atoms* and a command as field assignments.  An ablation
is an edit of that table (``FIGURE1.without("leave")``), declared where the
variant is (:mod:`repro.core.variants`), not new code; so is a baseline
written in the same vocabulary (``fork-ordering``'s table, in
:mod:`repro.baselines.fork_ordering`).  Nothing here evaluates a guard.
*Lowerings* turn a table into Python source, spelling the atoms for one
representation of the state, ``compile()`` it once (:func:`compile_program`)
and hand back the functions:

* :func:`view_program` (here) — over the public :class:`~repro.sim.process.
  ProcessView` API: one guard and one command function per row, the
  ``ActionDef``s the object model, the checker and the low-atomicity
  adapter run, plus one ``bits(view)`` giving every row's enabled bit in one
  frame (:func:`view_bits`), the object store's refresh;
* ``fastcore.table.vector_program`` / ``int_key_program`` — over the packed
  store's vectors and over the explorer's int-encoded state.

Every lowering that fires rows goes through one emitter, :func:`emit_rows`:
rows whose guard tests the process's own ``state`` are case-split on it (a
conjunct known true is dropped, a row known false vanishes), so each branch
evaluates only what can still matter, and a neighbour atom read twice is
bound once.  A new backend is one more spelling of the atoms, not one more
transcription of the rows.  Generated source is registered in
:mod:`linecache` under a name saying what it was generated for, so a
traceback or a profile shows its lines.  An independent, hand-written
transcription of Figure 1 lives in ``tests/core/figure1_oracle.py``; every
lowering is tested against it.
"""

from __future__ import annotations

import linecache
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
ATOM = re.compile(r"\b(needs|depth|anc_nonT|desc_E|prop|D|next_free|all_held)\b")

#: A fork on the table: the value of an edge cell nobody holds.
FORK_FREE = "<free>"

#: The commands a row may run on its incident edges, as the listing prints
#: them: make every neighbour the ancestor; take the lowest-ordered fork the
#: process lacks; put back every fork it holds.
EDGE_COMMANDS: Dict[str, str] = {
    "away": "edges away",
    "take next": "take next fork",
    "release held": "release held forks",
}


@dataclass(frozen=True)
class Action:
    """One row of an action table.

    ``when`` is the guard: any alternative holds, an alternative being a
    conjunction of Python expressions over the atoms

    * ``state == T`` / ``H`` / ``E`` (the process's own state; always a
      whole conjunct, which is what lets a lowering case-split on it),
    * ``needs``, ``depth`` — its other two variables,
    * ``anc_nonT`` — some ancestor is not thinking,
    * ``desc_E`` — some descendant is eating,
    * ``prop`` — the largest ``depth.q + 1`` over its descendants, clamped
      to the depth cap when one is in force (0 with no descendant),
    * ``D`` — the cycle-detection threshold,
    * ``next_free`` — the lowest-ordered fork the process lacks is free
      (forks are edge cells holding a holder or :data:`FORK_FREE`, ordered
      by the neighbour's node index),
    * ``all_held`` — the process holds every incident fork.

    ``assign`` is the command, ``(variable, value)`` with the value a state
    letter, a number or an atom; ``edges`` names one of
    :data:`EDGE_COMMANDS`, run after the assignments.
    """

    name: str
    when: Guard
    assign: Tuple[Tuple[str, str], ...]
    edges: Optional[str] = None


@dataclass(frozen=True)
class ActionTable:
    """Rows in declaration order — the order of the enabled list, and the
    bit position of each action in an enabled set."""

    rows: Tuple[Action, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(row.name for row in self.rows)

    @property
    def vocabulary(self) -> FrozenSet[str]:
        """Every atom and edge command the rows use: what a lowering must
        be able to spell to run this table."""
        words = set()
        for row in self.rows:
            text = [c for alt in row.when for c in alt]
            text += [value for _variable, value in row.assign]
            words.update(ATOM.findall(" ".join(text)))
            words.update([row.edges] if row.edges else [])
        return frozenset(words)

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
            command += [EDGE_COMMANDS[row.edges]] if row.edges else []
            lines.append(f"{row.name:<{width}} : {guard}  →  {'; '.join(command)}")
        return "\n".join(lines)


FIGURE1 = ActionTable((
    Action(ACTION_JOIN, (("needs", "state == T", "not anc_nonT"),),
           (("state", "H"),)),
    Action(ACTION_LEAVE, (("state == H", "anc_nonT"),), (("state", "T"),)),
    Action(ACTION_ENTER, (("state == H", "not anc_nonT", "not desc_E"),),
           (("state", "E"),)),
    Action(ACTION_EXIT, (("state == E",), ("depth > D",)),
           (("state", "T"), ("depth", "0")), edges="away"),
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


# ------------------------------------------------------------ the emitter

#: atom -> the local a block binds it to when it reads it more than once
_LOCALS = {"anc_nonT": "an"}


def _residual(when: Guard, state: Optional[int]) -> str:
    """``when`` as source, with the process's own state known (or, for a
    guard that does not test it, None): ``"True"``, ``"False"`` or what is
    left to evaluate."""
    alternatives = []
    for conjunction in when:
        rest = []
        for conjunct in conjunction:
            test = STATE_TEST.fullmatch(conjunct)
            if test is None:
                rest.append(conjunct)
            elif STATE_CODE[test[1]] != state:
                break
        else:
            if not rest:
                return "True"
            alternatives.append(" and ".join(rest))
    return " or ".join(alternatives) or "False"


def _tests_state(row: Action) -> bool:
    return any(STATE_TEST.fullmatch(c) for alt in row.when for c in alt)


class Lowering(NamedTuple):
    """How one target spells the atoms and what it does with an enabled row."""

    #: atom -> expression source
    atoms: Dict[str, str]
    #: atom -> statements that must run before its expression is read (two
    #: atoms may share one list: it runs once)
    preludes: Dict[str, List[str]]
    #: the variable holding the process's own state
    state: str
    #: ``(action index, row, own state code or None) -> statement`` for
    #: "enabled"; a block of several is its lines joined by newlines
    fire: Callable[[int, Action, Optional[int]], str]
    #: how ``state`` spells T, H and E
    codes: Tuple[str, str, str] = ("0", "1", "2")


def _block(pairs: Sequence[Tuple[str, str]], low: Lowering) -> List[str]:
    """``if guard: statement`` for each pair, over atoms spelled by ``low``:
    preludes first, an atom read twice bound to a local once.  A statement
    block goes on its own indented lines."""
    text = "\n".join(g + "\n" + s for g, s in pairs if g != "False")
    lines: List[str] = []
    spelled = {}
    uses = Counter(ATOM.findall(text))
    emitted: List[List[str]] = []
    for atom, source in low.atoms.items():
        prelude = low.preludes.get(atom)
        if uses[atom] and prelude and prelude not in emitted:
            lines += prelude
            emitted.append(prelude)
        if uses[atom] > 1 and atom in _LOCALS:
            lines.append(f"{_LOCALS[atom]} = {source}")
            source = _LOCALS[atom]
        spelled[atom] = source
    spell = lambda src: ATOM.sub(lambda m: spelled[m[1]], src)
    for guard, statement in pairs:
        if guard == "False":
            continue
        block = spell(statement).split("\n")
        if guard == "True":
            lines += block
        elif len(block) == 1:
            lines.append(f"if {spell(guard)}: {block[0]}")
        else:
            lines += [f"if {spell(guard)}:", *indent(block)]
    return lines or ["pass"]


def indent(lines: Sequence[str], by: str = "    ") -> List[str]:
    return [by + line if line else line for line in lines]


def emit_rows(table: ActionTable, low: Lowering) -> List[str]:
    """The statements that fire every enabled row, in declaration order.

    A run of rows that test the own state becomes one ``if``/``elif`` chain
    on it, each arm holding what is left of those rows' guards there; rows
    that do not test it follow (or precede) the chain as they are declared.
    """
    lines: List[str] = []
    rows = list(enumerate(table.rows))
    while rows:
        chained = _tests_state(rows[0][1])
        run = []
        while rows and _tests_state(rows[0][1]) == chained:
            run.append(rows.pop(0))
        if not chained:
            lines += _block(
                [(_residual(r.when, None), low.fire(a, r, None)) for a, r in run], low
            )
            continue
        for state, keyword in ((0, "if"), (1, "elif"), (2, "else")):
            test = f" {low.state} == {low.codes[state]}" if keyword != "else" else ""
            lines.append(f"{keyword}{test}:")
            lines += indent(_block(
                [(_residual(r.when, state), low.fire(a, r, state)) for a, r in run],
                low,
            ))
    return lines


# ----------------------------------------------------------- view lowering


def _searches() -> Dict[str, List[str]]:
    """The neighbour atoms a guard may not need to finish, as early-return
    functions over the view's public reads (the edge variable names the
    ancestor)."""
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
    }


def _scans(cap: Optional[int]) -> Dict[str, Tuple[str, List[str]]]:
    """The neighbour atoms computed by a scan, as ``atom -> (local, the
    statements binding it)``: inlined where ``bits`` reads them (one scan
    binds both fork atoms), wrapped in a function for the per-row guards."""
    clamp = [f"if m > {cap}: m = {cap}"] if cap is not None else []
    prop = [
        "pid, peek, edge_value = view.pid, view.peek, view.edge_value",
        "m = 0",
        "for q in view.neighbors:",
        "    if edge_value(q) == pid:",
        f"        dq = peek(q, {VAR_DEPTH!r})",
        "        if dq >= m: m = dq + 1",
        *clamp,
    ]
    forks = [
        "pid, edge_value = view.pid, view.edge_value",
        "nf, ah = False, True",
        "for q in view.ordered_neighbors:",
        "    v = edge_value(q)",
        "    if v != pid:",
        f"        nf, ah = v == {FORK_FREE!r}, False",
        "        break",
    ]
    return {"prop": ("m", prop), "next_free": ("nf", forks), "all_held": ("ah", forks)}


#: Each edge command over the view, after the row's assignments.
_VIEW_EDGES: Dict[str, List[str]] = {
    "away": ["for q in view.neighbors:", "    view.set_edge(q, q)"],
    "take next": [
        "pid = view.pid",
        "for q in view.ordered_neighbors:",
        "    if view.edge_value(q) != pid:",
        "        view.set_edge(q, pid)",
        "        break",
    ],
    "release held": [
        "pid = view.pid",
        "for q in view.neighbors:",
        "    if view.edge_value(q) == pid:",
        f"        view.set_edge(q, {FORK_FREE!r})",
    ],
}


@lru_cache(maxsize=None)
def _view_functions(
    table: ActionTable, cap: Optional[int], d_override: Optional[int]
) -> Dict[str, Callable]:
    """The view lowering of ``table``, compiled: ``<row>_guard`` and
    ``<row>`` per row, and ``bits``."""
    used = table.vocabulary
    searches = {a: text for a, text in _searches().items() if a in used}
    scans = {a: scan for a, scan in _scans(cap).items() if a in used}
    blocks = list(searches.values()) + [
        [f"def {atom}(view):", *indent(lines), f"    return {local}"]
        for atom, (local, lines) in scans.items()
    ]
    atoms = {
        "needs": f"view.get({VAR_NEEDS!r})",
        "depth": f"view.get({VAR_DEPTH!r})",
        "D": "view.diameter" if d_override is None else str(d_override),
        **{atom: f"{atom}(view)" for atom in (*searches, *scans)},
    }

    def spell(expression: str) -> str:
        expression = ATOM.sub(lambda m: atoms[m[1]], expression)
        return STATE_TEST.sub(
            lambda m: f"view.get({VAR_STATE!r}) == {m[1]!r}", expression
        )

    for row in table.rows:
        guard = " or ".join(" and ".join(map(spell, alt)) for alt in row.when)
        blocks.append([f"def {row.name}_guard(view):", f"    return {guard}"])
        command = [f"def {row.name}(view):"]
        for variable, value in row.assign:
            value = repr(value) if value in STATE_CODE else spell(value)
            command.append(f"    view.set({variable!r}, {value})")
        command += indent(_VIEW_EDGES[row.edges]) if row.edges else []
        blocks.append(command)

    # The fused refresh: every row's bit, the own state read once, the scans
    # inlined and a search bound once where two rows read it.
    low = Lowering(
        atoms={**atoms, "depth": "d", **{a: local for a, (local, _) in scans.items()}},
        preludes={a: lines for a, (_, lines) in scans.items()},
        state="s",
        fire=lambda a, row, state: f"new |= {1 << a}",
        codes=tuple(repr(v) for v in STATE_VALUES),
    )
    body = emit_rows(table, low)
    decode = [f"s = view.get({VAR_STATE!r})"]
    if any(re.search(r"\bd\b", line) for line in body):
        decode.append(f"d = view.get({VAR_DEPTH!r})")
    blocks.append(
        ["def bits(view):", "    new = 0"] + indent(decode + body) + ["    return new"]
    )
    return compile_program(
        "\n\n\n".join("\n".join(block) for block in blocks) + "\n",
        f"<repro.core figure1 view {'+'.join(table.names)} cap={cap} "
        f"D={'diameter' if d_override is None else d_override}>",
    ).functions


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
    functions = _view_functions(table, cap, d_override)
    return tuple(
        ActionDef(row.name, functions[f"{row.name}_guard"], functions[row.name])
        for row in table.rows
    )


def view_bits(
    table: ActionTable, cap: Optional[int], d_override: Optional[int]
) -> Callable[..., int]:
    """``bits(view)``: bit ``a`` set when row ``a``'s guard holds at the
    view, each neighbour atom computed at most once — the OR of the
    :func:`view_program` guards, from the same compile."""
    return _view_functions(table, cap, d_override)["bits"]


class Lowered(NamedTuple):
    """What an algorithm's generated code was lowered from."""

    table: ActionTable
    cap: Optional[int]
    d_override: Optional[int]


def lowered_table(algorithm) -> Optional[Lowered]:
    """The table (with cap and ``D``) whose view lowering ``algorithm``
    runs exactly, or None: the one test of "this algorithm *is* its
    generated code".  The object store's fused refresh and the packed
    codec's refusal both ask it, so an instrumented subclass that wraps its
    guards, or an adapter, runs its own guards everywhere."""
    table = getattr(algorithm, "table", None)
    if table is None:
        return None
    lowered = Lowered(
        table,
        getattr(algorithm, "depth_cap", None),
        getattr(algorithm, "diameter_override", None),
    )
    return lowered if algorithm.actions() == view_program(*lowered) else None


def table_bits(algorithm) -> Optional[Callable[..., int]]:
    """:func:`view_bits` of what ``algorithm`` runs, when
    :func:`lowered_table` says it runs exactly that; else None."""
    lowered = lowered_table(algorithm)
    return None if lowered is None else view_bits(*lowered)
