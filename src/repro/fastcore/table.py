"""The two packed programs generated from Figure 1's action table.

The table itself (:data:`repro.core.figure1.FIGURE1`, its atoms, the
ablations as table edits on the variant classes) lives in ``core`` with the
lowering the object model runs; this module adds the two *packed* lowerings,
each turning a table into Python source that is ``compile()``d once:

* :func:`int_key_program` — per (topology, table, cap, ``D``): one
  straight-line ``expand(k)`` over :meth:`PackedCodec.key`'s int itself.
  Every neighbour field is read by a constant shift, every successor is
  ``k`` masked and or-ed with constants, nothing is decoded into lists and
  no function is called per transition.  It is the body of
  :meth:`FastTransitionSystem.successors_packed`.
* :func:`vector_program` — topology-independent, memoised per (table, cap,
  ``D``) so a campaign's thousand stores compile once: a ``bind`` factory
  each :class:`PackedSystem` calls once over its vectors and bitsets, whose
  ``fire(p, a)`` is a whole packed step — the row's command, the masks the
  guards read, the guard refresh of ``p``'s readers — in one frame.

Both share :func:`_emit_rows`, which is where the table's structure becomes
control flow: rows whose guard tests the process's own ``state`` are
case-split on it (a conjunct known true is dropped, a row known false
vanishes), so each branch evaluates only what can still matter — the nesting
hand-written packed guards used to have, derived instead of typed.

Generated source is kept on the program (``.source``) and registered in
:mod:`linecache`; all three lowerings are tested against the hand-written
reference in ``tests/core/figure1_oracle.py``.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.figure1 import (
    ATOM,
    STATE_CODE,
    STATE_TEST,
    Action,
    ActionTable,
    Guard,
    Program,
    compile_program,
)

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


class _Lowering(NamedTuple):
    """How one target spells the atoms and what it does with an enabled row."""

    #: atom -> expression source
    atoms: Dict[str, str]
    #: atom -> statements that must run before its expression is read
    preludes: Dict[str, List[str]]
    #: the variable holding the process's own state code
    state: str
    #: ``(action index, row, own state or None) -> statement`` for "enabled"
    fire: Callable[[int, Action, Optional[int]], str]


def _block(pairs: Sequence[Tuple[str, str]], low: _Lowering) -> List[str]:
    """``if guard: statement`` for each pair, over atoms spelled by ``low``:
    preludes first, an atom read twice bound to a local once."""
    text = "\n".join(g + "\n" + s for g, s in pairs if g != "False")
    lines: List[str] = []
    spelled = {}
    uses = Counter(ATOM.findall(text))
    for atom, source in low.atoms.items():
        if uses[atom]:
            lines += low.preludes.get(atom, ())
        if uses[atom] > 1 and atom in _LOCALS:
            lines.append(f"{_LOCALS[atom]} = {source}")
            source = _LOCALS[atom]
        spelled[atom] = source
    spell = lambda src: ATOM.sub(lambda m: spelled[m[1]], src)
    for guard, statement in pairs:
        if guard == "True":
            lines.append(spell(statement))
        elif guard != "False":
            lines.append(f"if {spell(guard)}: {spell(statement)}")
    return lines or ["pass"]


def _indent(lines: Sequence[str], by: str = "    ") -> List[str]:
    return [by + line if line else line for line in lines]


def _emit_rows(table: ActionTable, low: _Lowering) -> List[str]:
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
            test = f" {low.state} == {state}" if keyword != "else" else ""
            lines.append(f"{keyword}{test}:")
            lines += _indent(_block(
                [(_residual(r.when, state), low.fire(a, r, state)) for a, r in run],
                low,
            ))
    return lines


# -------------------------------------------------------- int-key lowering


def int_key_program(codec) -> Program:
    """``expand(k) -> (successors, eating)`` for ``codec``'s topology, table,
    cap and ``D``, over the int layout :meth:`PackedCodec.key` fixes.

    ``successors`` are ``(p, a, key)`` triples, pid-major in declaration
    order; ``eating`` is whether two neighbours are both in state E.
    """
    layout = codec.layout
    db, shifts = layout.depth_bits, layout.shift
    table, cap, n = codec.table, codec.cap, codec.n
    state_at = [s + db + 3 for s in shifts]
    every_bit = (1 << (layout.edge_base + len(layout.edges))) - 1
    #: per process: (neighbour, edge variable, "is the neighbour my ancestor
    #: when the edge's key bit is set", the edge's key bit)
    incident: List[List[Tuple[int, str, bool, int]]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(layout.edges):
        bit = 1 << (layout.edge_base + e)
        incident[i].append((j, f"e{e}", False, bit))
        incident[j].append((i, f"e{e}", True, bit))

    def over(p: int, ancestors: bool, what: str) -> str:
        """Disjunction of ``what`` (over neighbour ``q``) across ``p``'s
        ancestors, or descendants."""
        return " or ".join(
            ("" if set_means_anc == ancestors else "not ") + f"{ev} and "
            + what.format(q=q)
            for q, ev, set_means_anc, _bit in incident[p]
        ) or "False"

    body: List[str] = []
    for p in range(n):
        shift = shifts[p]
        prop = []
        for q, ev, set_means_anc, _bit in incident[p]:
            is_desc = ("not " if set_means_anc else "") + ev
            prop.append(
                f"if {is_desc} and d{q} >= m: m = d{q} + 1" if prop
                else f"m = d{q} + 1 if {is_desc} else 0"
            )
        prop.append(f"if m > {cap}: m = {cap}")

        def fire(a: int, row: Action, state: Optional[int]) -> str:
            clear = fixed = 0
            moving = ""
            for variable, value in row.assign:
                at, bits = (
                    (state_at[p], 2) if variable == "state" else (shift, db)
                )
                clear |= ((1 << bits) - 1) << at
                if value in STATE_CODE:
                    fixed |= STATE_CODE[value] << at
                elif value.isdigit():
                    fixed |= int(value) << at
                else:  # an atom, known only when the code runs
                    moving += f" | {value} << {at}" if at else f" | {value}"
            if row.away:
                for _q, _ev, set_means_anc, bit in incident[p]:
                    clear |= bit
                    fixed |= bit if set_means_anc else 0
            if state is not None and clear == 3 << state_at[p]:
                # Only the state changes and this arm knows its old value.
                successor = f"k ^ {(state << state_at[p]) ^ fixed:#x}"
            else:
                successor = f"k & {~clear & every_bit:#x}"
                successor += f" | {fixed:#x}" if fixed else ""
            return f"add(({p}, {a}, {successor}{moving}))"

        low = _Lowering(
            atoms={
                "needs": f"k & {1 << (shift + db + 2):#x}",
                "depth": f"d{p}",
                "anc_nonT": "(" + over(p, True, "s{q}") + ")",
                "desc_E": "(" + over(p, False, "s{q} == 2") + ")",
                "prop": "m",
                "D": str(codec.d_const),
            },
            preludes={"prop": prop},
            state=f"s{p}",
            fire=fire,
        )
        body.append(f"if not k & {3 << (shift + db):#x}:  # {codec.pids[p]!r} alive")
        body += _indent(_emit_rows(table, low))

    both_eat = " or ".join(
        f"s{i} == 2 and s{j} == 2" for i, j in layout.edges
    ) or "False"
    # Decode only what some guard, command or the audit reads (an ablation
    # without fixdepth never looks at a depth).
    read = set(re.findall(r"\b[sde]\d+\b", "\n".join(body) + both_eat))
    decode = []
    for p in range(n):
        if f"s{p}" in read:
            decode.append(f"s{p} = k >> {state_at[p]} & 3")
        if f"d{p}" in read:
            at = f" >> {shifts[p]}" if shifts[p] else ""
            decode.append(f"d{p} = k{at} & {(1 << db) - 1}")
    for e in range(len(layout.edges)):
        if f"e{e}" in read:
            decode.append(f"e{e} = k & {1 << (layout.edge_base + e):#x}")
    any_eats = sum(2 << at for at in state_at)
    source = "\n".join(
        ["def expand(k):", "    out = []", "    add = out.append"]
        + _indent(decode + body)
        + [f"    return out, ({both_eat}) if k & {any_eats:#x} else False", ""]
    )
    # Topology has no name; its repr plus a digest of the edge list keeps two
    # graphs of one size from sharing (and overwriting) a linecache entry.
    edges = zlib.crc32(repr(layout.edges).encode())
    return compile_program(
        source,
        f"<repro.fastcore int-key {codec.topology!r}/{edges:08x} "
        f"{codec.algorithm.name} cap={cap} D={codec.d_const}>",
    )


# --------------------------------------------------------- vector lowering


#: The whole-system masks the guards read, updated where a command assigns
#: ``state``: per assigned code, what happens to its bit ``bp`` in each.
_MASK_UPDATE = {
    0: ["nonT &= ~bp", "eating &= ~bp"],
    1: ["nonT |= bp", "eating &= ~bp"],
    2: ["nonT |= bp", "eating |= bp"],
}


@lru_cache(maxsize=None)
def vector_program(table: ActionTable, cap: Optional[int], d_const: int) -> Program:
    """``bind(state, needs, depth, status, anc, desc, nbrs, readers,
    enabled)`` over :class:`PackedState`'s vectors, for any topology.

    ``bind`` returns three closures over one store's vectors, its enabled
    set's ``bits``/``changed`` and the non-thinking and eating masks (kept
    as ``nonlocal`` ints, computed from ``state`` at bind time):

    * ``fire(p, a)`` — row ``a``'s command at ``p``, the masks' update, then
      the guard refresh of ``readers[p]``: a packed step in one frame;
    * ``recompute(processes)`` — refresh the enabled bits of ``processes``;
    * ``set_state(p, code)`` — store a state code and update the masks.

    The closures hold the lists, so they must be mutated in place and never
    rebound.  Memoised — one compile per (table, cap, ``D``) per process,
    however many stores are built."""
    prop = [
        "m = 0",
        "dm = desc[p]",
        "while dm:",
        "    low = dm & -dm",
        "    dm ^= low",
        "    dq = depth[low.bit_length() - 1]",
        "    if dq >= m: m = dq + 1",
    ]
    if cap is not None:
        prop.append(f"if m > {cap}: m = {cap}")
    low = _Lowering(
        atoms={
            "needs": "needs[p]",
            "depth": "d",
            "anc_nonT": "anc[p] & nonT",
            "desc_E": "desc[p] & eating",
            "prop": "m",
            "D": str(d_const),
        },
        preludes={"prop": prop},
        state="s",
        fire=lambda a, row, state: f"new |= {1 << a}",
    )
    guards = _emit_rows(table, low)
    uses_depth = any(re.search(r"\bd\b", line) for line in guards)

    def refresh(over: str) -> List[str]:
        """The guard loop over ``over`` with the enabled set's bookkeeping
        inline: the one text both refreshes are made of."""
        return [
            f"for p in {over}:",
            "    new = 0",
            "    if not status[p]:",
            "        s = state[p]",
        ] + (["        d = depth[p]"] if uses_depth else []) + _indent(
            guards, " " * 8
        ) + [
            "    old = bits[p]",
            "    if new != old:",
            "        bits[p] = new",
            "        enabled.count += new.bit_count() - old.bit_count()",
            "        changed.add(p)",
        ]

    fire = [
        "def fire(p, a):",
        '    """Run action ``a`` at ``p``, then refresh everyone who reads it."""',
        "    nonlocal nonT, eating",
    ]
    for a, row in enumerate(table.rows):
        fire.append(f"    {'if' if a == 0 else 'elif'} a == {a}:  # {row.name}")
        command: List[str] = []
        if row.away or "state" in dict(row.assign):
            command.append("bp = 1 << p")
        for variable, value in row.assign:
            if value in low.preludes:
                command += low.preludes[value]
            code = STATE_CODE.get(value)
            command.append(
                f"{variable}[p] = {low.atoms.get(value, value) if code is None else code}"
            )
            if variable == "state":
                command += _MASK_UPDATE[code]
        if row.away:
            command += [
                "for q in nbrs[p]:",
                "    bq = 1 << q",
                "    anc[p] |= bq",
                "    desc[p] &= ~bq",
                "    anc[q] &= ~bp",
                "    desc[q] |= bp",
            ]
        fire += _indent(command, " " * 8)
    # ``readers[p]`` is evaluated once, before the loop rebinds ``p``.
    fire += _indent(refresh("readers[p]"))
    body = [
        "nonT = eating = 0",
        "for p, s in enumerate(state):",
        "    if s:",
        "        nonT |= 1 << p",
        "        if s == 2:",
        "            eating |= 1 << p",
        "bits, changed = enabled.bits, enabled.changed",
        "",
        "def recompute(processes):",
        '    """Refresh the enabled bits of ``processes``."""',
    ] + _indent(refresh("processes")) + [
        "",
        "def set_state(p, code):",
        '    """Store state ``code`` at ``p``; no guard is refreshed."""',
        "    nonlocal nonT, eating",
        "    state[p] = code",
        "    bp = 1 << p",
        "    nonT = nonT | bp if code else nonT & ~bp",
        "    eating = eating | bp if code == 2 else eating & ~bp",
        "",
    ] + fire + ["", "return fire, recompute, set_state"]
    source = "\n".join(
        [
            "def bind(state, needs, depth, status, anc, desc, nbrs, readers, enabled):",
            '    """Figure 1 bound to one store: ``(fire, recompute, set_state)``."""',
        ]
        + _indent(body)
        + [""]
    )
    names = "+".join(table.names)
    return compile_program(
        source, f"<repro.fastcore vector {names} cap={cap} D={d_const}>"
    )
