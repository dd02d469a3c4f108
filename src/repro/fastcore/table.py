"""The three packed programs generated from an action table.

The table itself (:data:`repro.core.figure1.FIGURE1`, its atoms, the
ablations as table edits on the variant classes) lives in ``core``, and so
does the row emitter every lowering shares (:func:`repro.core.figure1.
emit_rows`, which case-splits the rows on the process's own ``state`` and
binds a neighbour atom read twice once) together with the lowering the
object model runs.  This module adds the *packed* lowerings, each spelling
the atoms for packed state and turning a table into Python source that is
``compile()``d once:

* :func:`int_key_program` — per (topology, table, cap, ``D``), over
  :meth:`PackedCodec.key`'s int itself: every neighbour field is read by a
  constant shift, every successor is ``k`` masked and or-ed with constants,
  nothing is decoded into lists and no Python function is called per
  transition.  It emits three programs from one set of rows, which differ
  only in what an enabled row does with its successor:

  - ``expand(k)``, straight-line, lists the labelled successors: the body
    of :meth:`FastTransitionSystem.successors_packed`, which the proofs
    run;
  - ``level(frontier, seen, found, limit)`` expands a whole BFS level in one
    frame, adding each new successor to the visited set and the next
    frontier in place, and audits each state for two neighbours eating:
    the loop of :meth:`FastTransitionSystem.reachable_count` over a set of
    keys;
  - ``bitmap(frontier, ranks, seen, found, found_ranks, c, limit)`` is
    ``level`` over a bitmap of ranks (:meth:`KeyLayout.rank`), one bit a
    state: each row adds a difference fixed here to its parent's rank,
    tests the successor's bit, and builds the successor key only when the
    bit was clear — the loop ``reachable_count`` runs when the full
    space's bitmap is small enough.
* :func:`vector_program` — topology-independent, memoised per (table, cap,
  ``D``) so a campaign's thousand stores compile once: a ``bind`` factory
  each :class:`PackedSystem` calls once over its vectors and bitsets, whose
  ``fire(p, a)`` is a whole packed step — the row's command, the masks the
  guards read, the guard refresh of ``p``'s readers — in one frame.

All three spell Figure 1's vocabulary only (no fork atoms): the codec
refuses a table that uses more.  Generated source is kept on the program
(``.source``) and registered in :mod:`linecache`.  ``expand`` and ``bind``
are tested against the hand-written reference in
``tests/core/figure1_oracle.py``, ``level`` against ``expand`` and
``bitmap`` against ``level`` in ``tests/property/test_int_key_properties.py``.
"""

from __future__ import annotations

import re
import zlib
from functools import lru_cache
from typing import List, Optional, Tuple

from ..core.figure1 import (
    STATE_CODE,
    Action,
    ActionTable,
    Lowering,
    Program,
    compile_program,
    emit_rows,
    indent,
)
from ..core.state import VAR_DEPTH, VAR_NEEDS, VAR_STATE
from .packed import STATUS


# -------------------------------------------------------- int-key lowering


#: What an enabled row does with its successor, per generated function:
#: ``expand`` lists its key ``{t}``; ``level`` counts it and, if new, marks
#: and queues it; ``bitmap`` does the same by its rank ``{r}``, building the
#: key only for a state it has not seen.
_INT_KEY_FIRE = {
    "expand": "add(({p}, {a}, {t}))",
    "level": "t = {t}\nn += 1\nif t not in seen:\n    seen_add(t)\n    push(t)",
    "bitmap": (
        "t = {r}\nn += 1\ni, b = t >> 3, 1 << (t & 7)\nif not seen[i] & b:\n"
        "    seen[i] |= b\n    push({t})\n    push_rank(t)\n    c += 1"
    ),
}

#: The frame of each closure loop around the rows: its signature, what it
#: binds first, what it loops over, how many states it has visited, and
#: what it returns.
_CLOSURE_FRAMES = {
    "level": (
        "level(frontier, seen, found, limit)",
        "seen_add, push = seen.add, found.append",
        "k in frontier", "len(seen)", "n, v",
    ),
    "bitmap": (
        "bitmap(frontier, ranks, seen, found, found_ranks, c, limit)",
        "push, push_rank = found.append, found_ranks.append",
        "k, r in zip(frontier, ranks)", "c", "n, v, c",
    ),
}


def int_key_program(codec, function: str = "expand") -> Program:
    """One function over ``codec``'s topology, table, cap and ``D``, on the
    int layout the codec's :class:`KeyLayout` fixes:

    * ``expand(k) -> successors`` — ``(p, a, key)`` triples, pid-major in
      declaration order;
    * ``level(frontier, seen, found, limit) -> (transitions, violations)`` —
      one BFS level: every key of ``frontier`` expanded in order, each
      successor not in the set ``seen`` added to it and appended to the list
      ``found``, in ``expand``'s order.  It returns how many successors there
      were and how many of ``frontier``'s states have two neighbours
      eating, and stops after the state that takes ``seen`` past ``limit``;
    * ``bitmap(frontier, ranks, seen, found, found_ranks, c, limit) ->
      (transitions, violations, c)`` — the same level over
      :meth:`KeyLayout.rank`: ``ranks`` holds each frontier key's rank,
      ``seen`` is a ``bytearray`` with bit ``r`` set for every visited rank
      ``r``, and ``c`` counts the visited states.  A successor's rank is
      its parent's plus a difference written here, per row, from the
      place values of the fields the row assigns; a successor whose bit is
      clear gets it set, and its key and rank are appended to ``found`` and
      ``found_ranks``.  It returns ``c`` too, and stops after the state
      that takes ``c`` past ``limit``.  Sound only when every key has the
      same :attr:`KeyLayout.unranked` bits, which no row writes.

    They differ only in what an enabled row does with its successor
    (:data:`_INT_KEY_FIRE`) and in the frame around the rows, which for
    ``level`` and ``bitmap`` holds the eating audit.
    """
    layout = codec.layout
    at, mask, weight = layout.at, layout.mask, layout.weight
    table, cap, n = codec.table, codec.cap, codec.n
    every_bit = (1 << layout.bits) - 1
    statement = _INT_KEY_FIRE[function]

    def read(p: int, name: str) -> str:
        """Source for the index ``p``'s ``name`` holds in ``k``."""
        shift = f" >> {at(p, name)}" if at(p, name) else ""
        return f"k{shift} & {mask(name)}"

    def scaled(term: str, w: int) -> str:
        return term if w == 1 else f"{term} * {w}"

    #: per process: (neighbour, edge variable, "is the neighbour my ancestor
    #: when the edge's key bit is set", the edge's offset in a key)
    incident: List[List[Tuple[int, str, bool, int]]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(layout.edges):
        offset = layout.edge_base + e
        incident[i].append((j, f"e{e}", True, offset))
        incident[j].append((i, f"e{e}", False, offset))

    def over(p: int, ancestors: bool, what: str) -> str:
        """Disjunction of ``what`` (over neighbour ``q``) across ``p``'s
        ancestors, or descendants."""
        return " or ".join(
            ("" if set_means_anc == ancestors else "not ") + f"{ev} and "
            + what.format(q=q)
            for q, ev, set_means_anc, _offset in incident[p]
        ) or "False"

    body: List[str] = []
    for p in range(n):
        prop = []
        for q, ev, set_means_anc, _offset in incident[p]:
            is_desc = ("not " if set_means_anc else "") + ev
            prop.append(
                f"if {is_desc} and d{q} >= m: m = d{q} + 1" if prop
                else f"m = d{q} + 1 if {is_desc} else 0"
            )
        prop = prop or ["m = 0"]  # no neighbour, no descendant
        prop.append(f"if m > {cap}: m = {cap}")

        def fire(a: int, row: Action, state: Optional[int]) -> str:
            clear = fixed = 0
            moving = ""
            # The successor's rank less the parent's: a constant, plus the
            # terms only the running code knows.
            step, terms = 0, []
            for variable, value in row.assign:
                offset = at(p, variable)
                w = weight(offset)
                clear |= mask(variable) << offset
                new = STATE_CODE.get(value, int(value) if value.isdigit() else None)
                if new is not None:
                    fixed |= new << offset
                    step += new * w
                else:  # an atom, known only when the code runs
                    moving += f" | {value} << {offset}" if offset else f" | {value}"
                old = {VAR_STATE: f"s{p}", VAR_DEPTH: f"d{p}"}.get(
                    variable, f"({read(p, variable)})"
                )
                if variable == VAR_STATE and state is not None:
                    step -= state * w
                elif new is not None:
                    terms.append(f" - {scaled(old, w)}")
                else:
                    terms.append(f" + {scaled(f'({value} - {old})', w)}")
            if row.edges == "away":
                for _q, ev, set_means_anc, offset in incident[p]:
                    clear |= 1 << offset
                    fixed |= 1 << offset if set_means_anc else 0
                    w = weight(offset)
                    terms.append(
                        f" + (0 if {ev} else {w})" if set_means_anc
                        else f" - ({w} if {ev} else 0)"
                    )
            rank = "r" + (f" + {step}" if step > 0 else f" - {-step}" if step else "")
            own = at(p, VAR_STATE)
            if state is not None and clear == mask(VAR_STATE) << own:
                # Only the state changes and this arm knows its old value.
                successor = f"k ^ {(state << own) ^ fixed:#x}"
            else:
                successor = f"k & {~clear & every_bit:#x}"
                successor += f" | {fixed:#x}" if fixed else ""
            return statement.format(
                p=p, a=a, t=successor + moving, r=rank + "".join(terms)
            )

        low = Lowering(
            atoms={
                "needs": f"k & {mask(VAR_NEEDS) << at(p, VAR_NEEDS):#x}",
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
        alive = mask(STATUS) << at(p, STATUS)
        body.append(f"if not k & {alive:#x}:  # {codec.pids[p]!r} alive")
        body += indent(emit_rows(table, low))

    both_eat = " or ".join(
        f"s{i} == 2 and s{j} == 2" for i, j in layout.edges
    ) or "False"
    audit = both_eat if function != "expand" else ""
    # Decode only what some guard, command or the audit reads (an ablation
    # without fixdepth never looks at a depth).
    used = set(re.findall(r"\b[sde]\d+\b", "\n".join(body) + audit))
    decode = []
    for p in range(n):
        if f"s{p}" in used:
            decode.append(f"s{p} = {read(p, VAR_STATE)}")
        if f"d{p}" in used:
            decode.append(f"d{p} = {read(p, VAR_DEPTH)}")
    for e in range(len(layout.edges)):
        if f"e{e}" in used:
            decode.append(f"e{e} = k & {1 << (layout.edge_base + e):#x}")
    any_eats = sum(STATE_CODE["E"] << at(p, VAR_STATE) for p in range(n))
    if function == "expand":
        lines = (
            ["def expand(k):", "    out = []", "    add = out.append"]
            + indent(decode + body)
            + ["    return out"]
        )
    else:
        signature, bind, loop, visited, result = _CLOSURE_FRAMES[function]
        lines = [f"def {signature}:", f"    {bind}", "    n = v = 0", f"    for {loop}:"]
        lines += indent(decode + body + [
            f"if k & {any_eats:#x} and ({both_eat}): v += 1",
            f"if {visited} > limit: break",
        ], " " * 8) + [f"    return {result}"]
    # Topology has no name; its repr plus a digest of the edge list keeps two
    # graphs of one size from sharing (and overwriting) a linecache entry.
    edges = zlib.crc32(repr(layout.edges).encode())
    return compile_program(
        "\n".join(lines + [""]),
        f"<repro.fastcore int-key {function} {codec.topology!r}/{edges:08x} "
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
    low = Lowering(
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
    guards = emit_rows(table, low)
    uses_depth = any(re.search(r"\bd\b", line) for line in guards)

    def refresh(over: str) -> List[str]:
        """The guard loop over ``over`` with the enabled set's bookkeeping
        inline: the one text both refreshes are made of."""
        return [
            f"for p in {over}:",
            "    new = 0",
            "    if not status[p]:",
            "        s = state[p]",
        ] + (["        d = depth[p]"] if uses_depth else []) + indent(
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
        if row.edges or "state" in dict(row.assign):
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
        if row.edges == "away":
            command += [
                "for q in nbrs[p]:",
                "    bq = 1 << q",
                "    anc[p] |= bq",
                "    desc[p] &= ~bq",
                "    anc[q] &= ~bp",
                "    desc[q] |= bp",
            ]
        fire += indent(command, " " * 8)
    # ``readers[p]`` is evaluated once, before the loop rebinds ``p``.
    fire += indent(refresh("readers[p]"))
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
    ] + indent(refresh("processes")) + [
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
        + indent(body)
        + [""]
    )
    names = "+".join(table.names)
    return compile_program(
        source, f"<repro.fastcore vector {names} cap={cap} D={d_const}>"
    )
