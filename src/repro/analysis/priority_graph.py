"""Priority-graph analytics: the live cycles of a configuration.

The priority graph (the orientation of the neighbour relation stored in the
shared edge variables) is the data structure all of the paper's arguments
revolve around.  ``repro stabilize`` reports its live cycles through
:func:`find_live_cycles`; the chain and depth questions the proofs ask are
:mod:`repro.core.predicates`' (``longest_live_ancestor_chain``, ``shallow``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.predicates import priority_edges
from ..sim.configuration import Configuration
from ..sim.topology import Pid


def _live_adjacency(config: Configuration) -> Dict[Pid, List[Pid]]:
    faulty = config.faulty
    adjacency: Dict[Pid, List[Pid]] = {
        p: [] for p in config.topology.nodes if p not in faulty
    }
    for ancestor, descendant in priority_edges(config):
        if ancestor in adjacency and descendant in adjacency:
            adjacency[ancestor].append(descendant)
    return adjacency


def find_live_cycles(
    config: Configuration, *, limit: int = 16
) -> Tuple[Tuple[Pid, ...], ...]:
    """Up to ``limit`` simple directed cycles through live processes.

    Uses iterative DFS with an on-stack path; each discovered cycle is
    canonicalised (rotated to start at its smallest node by node order) and
    deduplicated.
    """
    adjacency = _live_adjacency(config)
    order = {p: i for i, p in enumerate(config.topology.nodes)}
    found: Dict[Tuple[Pid, ...], None] = {}

    for start in adjacency:
        stack: List[Tuple[Pid, int]] = [(start, 0)]
        path: List[Pid] = [start]
        on_path = {start}
        while stack and len(found) < limit:
            node, index = stack[-1]
            children = adjacency[node]
            if index >= len(children):
                stack.pop()
                path.pop()
                on_path.discard(node)
                continue
            stack[-1] = (node, index + 1)
            child = children[index]
            if child in on_path:
                cut = path.index(child)
                cycle = tuple(path[cut:])
                rotate = min(range(len(cycle)), key=lambda i: order[cycle[i]])
                canonical = cycle[rotate:] + cycle[:rotate]
                found[canonical] = None
            elif child in adjacency:
                stack.append((child, 0))
                path.append(child)
                on_path.add(child)
        if len(found) >= limit:
            break
    return tuple(found)
