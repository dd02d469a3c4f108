"""Communication topologies.

The paper's model is "a set of processes joined by an arbitrary neighbour
relation" (§2).  :class:`Topology` is an immutable simple undirected graph
with precomputed all-pairs distances, because the algorithm needs the system
diameter ``D`` as a constant and the analysis suite constantly asks for the
distance between a crashed process and a starving one.

Generator functions at the bottom of the module build the standard families
used throughout the tests and benchmarks, plus the exact seven-process graph
of the paper's Figure 2.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Sequence, Tuple

from .errors import TopologyError, UnknownProcessError

Pid = Hashable
Edge = FrozenSet[Pid]


def edge(p: Pid, q: Pid) -> Edge:
    """The canonical (unordered) name of the edge between ``p`` and ``q``."""
    return frozenset((p, q))


class Topology:
    """An immutable connected simple graph over process identifiers.

    Parameters
    ----------
    nodes:
        The process identifiers.  Order is preserved and used as the
        deterministic iteration order everywhere in the kernel.
    edges:
        Unordered pairs of distinct nodes.  Duplicates are rejected so a
        typo'd edge list fails loudly.
    allow_disconnected:
        The paper assumes a single system with a finite diameter, so a
        disconnected graph is rejected by default.  Tests of degenerate
        situations may opt out.
    """

    def __init__(
        self,
        nodes: Sequence[Pid],
        edges: Iterable[Tuple[Pid, Pid]],
        *,
        allow_disconnected: bool = False,
    ) -> None:
        if len(nodes) == 0:
            raise TopologyError("a topology needs at least one process")
        self._nodes: Tuple[Pid, ...] = tuple(nodes)
        node_set = set(self._nodes)
        if len(node_set) != len(self._nodes):
            raise TopologyError("duplicate process identifiers")

        adjacency: Dict[Pid, list] = {p: [] for p in self._nodes}
        seen: set[Edge] = set()
        for p, q in edges:
            if p == q:
                raise TopologyError(f"self-loop on {p!r}")
            if p not in node_set:
                raise UnknownProcessError(p)
            if q not in node_set:
                raise UnknownProcessError(q)
            e = edge(p, q)
            if e in seen:
                raise TopologyError(f"duplicate edge {sorted(map(repr, e))}")
            seen.add(e)
            adjacency[p].append(q)
            adjacency[q].append(p)

        self._edges: FrozenSet[Edge] = frozenset(seen)
        self._adjacency: Dict[Pid, Tuple[Pid, ...]] = {
            p: tuple(neighbors) for p, neighbors in adjacency.items()
        }
        self._distances = self._all_pairs_distances()
        if not allow_disconnected and len(self._nodes) > 1:
            for p, q in itertools.combinations(self._nodes, 2):
                if (p, q) not in self._distances and (q, p) not in self._distances:
                    raise TopologyError(f"graph is disconnected: no path {p!r} .. {q!r}")
        finite = [d for d in self._distances.values()]
        self._diameter = max(finite) if finite else 0
        self._longest_path: int | None = None
        self._colour_rank: Dict[Pid, Tuple[int, int]] | None = None
        self._node_order_depths: Dict[Pid, int] | None = None

    # ------------------------------------------------------------------ views

    @property
    def nodes(self) -> Tuple[Pid, ...]:
        """All process identifiers, in construction order."""
        return self._nodes

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The undirected edges, each a two-element frozenset."""
        return self._edges

    @property
    def diameter(self) -> int:
        """The maximum finite distance between two processes (paper's ``D``)."""
        return self._diameter

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, pid: Pid) -> bool:
        return pid in self._adjacency

    def neighbors(self, pid: Pid) -> Tuple[Pid, ...]:
        """The direct neighbours of ``pid`` (excluding ``pid`` itself)."""
        try:
            return self._adjacency[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    def degree(self, pid: Pid) -> int:
        """Number of neighbours of ``pid``."""
        return len(self.neighbors(pid))

    def are_neighbors(self, p: Pid, q: Pid) -> bool:
        """True when an edge joins ``p`` and ``q``."""
        return edge(p, q) in self._edges

    def distance(self, p: Pid, q: Pid) -> int:
        """Hop distance between ``p`` and ``q``.

        Raises :class:`TopologyError` for disconnected pairs (only possible
        when the topology was built with ``allow_disconnected=True``).
        """
        if p not in self._adjacency:
            raise UnknownProcessError(p)
        if q not in self._adjacency:
            raise UnknownProcessError(q)
        if p == q:
            return 0
        key = (p, q) if (p, q) in self._distances else (q, p)
        try:
            return self._distances[key]
        except KeyError:
            raise TopologyError(f"{p!r} and {q!r} are disconnected") from None

    def ball(self, center: Pid, radius: int) -> FrozenSet[Pid]:
        """All processes within ``radius`` hops of ``center`` (inclusive)."""
        return frozenset(
            q
            for q in self._nodes
            if self._reachable(center, q) and self.distance(center, q) <= radius
        )

    def outside_ball(self, centers: Iterable[Pid], radius: int) -> FrozenSet[Pid]:
        """Processes whose distance to *every* center exceeds ``radius``.

        This is the paper's set ``P`` from Proposition 1: the processes far
        enough from all crashes that the diners properties must eventually
        hold for them.
        """
        centers = tuple(centers)
        result = []
        for q in self._nodes:
            if all(
                self._reachable(c, q) and self.distance(c, q) > radius for c in centers
            ):
                result.append(q)
            elif any(not self._reachable(c, q) for c in centers):
                # A disconnected process is unaffected by the crash: treat an
                # infinite distance as "outside the ball".
                if all(
                    (not self._reachable(c, q)) or self.distance(c, q) > radius
                    for c in centers
                ):
                    result.append(q)
        return frozenset(result)

    def _reachable(self, p: Pid, q: Pid) -> bool:
        if p == q:
            return True
        return (p, q) in self._distances or (q, p) in self._distances

    def longest_simple_path(self) -> int:
        """Length (in edges) of the longest simple path in the graph.

        This is the tight cycle-detection threshold for the diners program:
        ``depth`` propagates along priority edges, so in a legitimate acyclic
        priority graph it can reach this value (which equals the diameter on
        trees but exceeds it on rings, cliques, ...).  Exact DFS — exponential
        in general, intended for the small/medium graphs this repository
        simulates; the result is cached.
        """
        if self._longest_path is None:
            best = 0
            for source in self._nodes:
                stack: list = [(source, frozenset((source,)), 0)]
                while stack:
                    node, visited, length = stack.pop()
                    if length > best:
                        best = length
                    for nxt in self._adjacency[node]:
                        if nxt not in visited:
                            stack.append((nxt, visited | {nxt}, length + 1))
            self._longest_path = best
        return self._longest_path

    def colour_rank(self) -> Mapping[Pid, Tuple[int, int]]:
        """``{p: (greedy colour of p, index of p)}`` — a strict total order
        in which every chain of neighbours is shorter than the number of
        colours.

        Nodes are coloured in construction order, each with the smallest
        colour none of its already-coloured neighbours has, so neighbours
        never share a colour and a path that climbs the order climbs the
        colours: orienting every edge from its lower-ranked to its
        higher-ranked end gives an acyclic graph whose longest chain is
        ``colours - 1`` edges (1 on even rings, lines and grids), where the
        plain node order gives ``n - 1`` on a ring.  The index breaks ties
        between non-neighbours, so the order is total; the result is cached.
        """
        if self._colour_rank is None:
            colour: Dict[Pid, int] = {}
            for p in self._nodes:
                taken = {colour[q] for q in self._adjacency[p] if q in colour}
                colour[p] = next(c for c in itertools.count() if c not in taken)
            self._colour_rank = {
                p: (colour[p], i) for i, p in enumerate(self._nodes)
            }
        return self._colour_rank

    def node_order_depths(self) -> Mapping[Pid, int]:
        """``{p: distance from p to its farthest descendant}`` when every
        edge points from its earlier endpoint (in node order) to its later
        one — the diners' initial priority DAG; the result is cached."""
        if self._node_order_depths is None:
            order = {p: i for i, p in enumerate(self._nodes)}
            depths: Dict[Pid, int] = {}
            for p in reversed(self._nodes):  # descendants come later
                depths[p] = max(
                    (depths[q] + 1 for q in self._adjacency[p] if order[q] > order[p]),
                    default=0,
                )
            self._node_order_depths = depths
        return self._node_order_depths

    # ------------------------------------------------------------ internals

    def _all_pairs_distances(self) -> Dict[Tuple[Pid, Pid], int]:
        """BFS from every node; stores each unordered pair once."""
        dist: Dict[Tuple[Pid, Pid], int] = {}
        index = {p: i for i, p in enumerate(self._nodes)}
        for source in self._nodes:
            frontier = deque([(source, 0)])
            seen = {source}
            while frontier:
                node, d = frontier.popleft()
                if node != source and index[source] < index[node]:
                    dist[(source, node)] = d
                for nxt in self._adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append((nxt, d + 1))
        return dist

    def __repr__(self) -> str:
        return (
            f"Topology(n={len(self._nodes)}, m={len(self._edges)}, "
            f"diameter={self._diameter})"
        )


# --------------------------------------------------------------- generators


def ring(n: int) -> Topology:
    """A cycle of ``n >= 3`` processes ``0 .. n-1``."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 processes")
    return Topology(range(n), [(i, (i + 1) % n) for i in range(n)])


def line(n: int) -> Topology:
    """A path of ``n >= 1`` processes ``0 .. n-1``."""
    if n < 1:
        raise TopologyError("a line needs at least 1 process")
    return Topology(range(n), [(i, i + 1) for i in range(n - 1)])


def star(n_leaves: int) -> Topology:
    """A hub (process 0) joined to ``n_leaves`` leaves ``1 .. n_leaves``."""
    if n_leaves < 1:
        raise TopologyError("a star needs at least 1 leaf")
    return Topology(range(n_leaves + 1), [(0, i) for i in range(1, n_leaves + 1)])


def complete(n: int) -> Topology:
    """The complete graph on ``n >= 2`` processes (classic round-table)."""
    if n < 2:
        raise TopologyError("a complete graph needs at least 2 processes")
    return Topology(range(n), itertools.combinations(range(n), 2))


def grid(width: int, height: int) -> Topology:
    """A ``width x height`` mesh; node ``(x, y)`` is encoded as ``y*width+x``."""
    if width < 1 or height < 1:
        raise TopologyError("grid dimensions must be positive")
    edges = []
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                edges.append((node, node + 1))
            if y + 1 < height:
                edges.append((node, node + width))
    return Topology(range(width * height), edges)


def binary_tree(depth: int) -> Topology:
    """A complete binary tree with ``2**(depth+1) - 1`` processes."""
    if depth < 0:
        raise TopologyError("tree depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    edges = []
    for i in range(1, n):
        edges.append(((i - 1) // 2, i))
    return Topology(range(n), edges)


def random_connected(n: int, extra_edge_probability: float, seed: int) -> Topology:
    """A connected random graph: a random spanning tree plus random extras.

    Every non-tree pair is added independently with
    ``extra_edge_probability``, so 0.0 yields a random tree and 1.0 the
    complete graph.  Deterministic for a given ``seed``.
    """
    if n < 1:
        raise TopologyError("need at least 1 process")
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise TopologyError("extra_edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges: set[Edge] = set()
    # Random spanning tree: attach each node to a random earlier node.
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        edges.add(edge(nodes[i], parent))
    for p, q in itertools.combinations(range(n), 2):
        if edge(p, q) not in edges and rng.random() < extra_edge_probability:
            edges.add(edge(p, q))
    return Topology(range(n), [tuple(e) for e in edges])


def figure2() -> Topology:
    """The seven-process topology of the paper's Figure 2.

    Nodes are the letters ``a .. g``.  The figure requires:

    * ``a`` adjacent to ``b`` and ``c`` — ``a`` is the crashed eater and both
      neighbours are blocked;
    * ``d`` adjacent to ``b`` and ``c`` — ``d`` is the hungry process at
      distance 2 from the crash that yields to its descendant ``e``
      (the dynamic-threshold step);
    * a triangle ``e``-``f``-``g`` carrying the priority cycle that is broken
      when ``depth.g`` exceeds the diameter;
    * system diameter 3, because the narration reads "depth:g is 4 which is
      greater than the system's diameter: 3".

    The published drawing is not fully legible in the source text, so the
    edge set here additionally joins ``d`` to ``f`` and ``g`` — the minimal
    completion that satisfies all four constraints above (without it the
    distance from ``a`` to ``f`` and ``g`` would be 4, contradicting D = 3).
    """
    nodes = tuple("abcdefg")
    edges = [
        ("a", "b"),
        ("a", "c"),
        ("b", "d"),
        ("c", "d"),
        ("d", "e"),
        ("d", "f"),
        ("d", "g"),
        ("e", "f"),
        ("e", "g"),
        ("f", "g"),
    ]
    topo = Topology(nodes, edges)
    assert topo.diameter == 3, "Figure 2 topology must have diameter 3"
    return topo


def torus(width: int, height: int) -> Topology:
    """A ``width x height`` mesh with wraparound in both dimensions.

    Both dimensions must be at least 3 so no wraparound edge duplicates a
    mesh edge.  Node ``(x, y)`` is encoded as ``y * width + x``.
    """
    if width < 3 or height < 3:
        raise TopologyError("torus dimensions must be at least 3")
    edges = []
    for y in range(height):
        for x in range(width):
            node = y * width + x
            edges.append((node, y * width + (x + 1) % width))
            edges.append((node, ((y + 1) % height) * width + x))
    return Topology(range(width * height), edges)


def hypercube(dimension: int) -> Topology:
    """The ``dimension``-dimensional hypercube (2^d processes)."""
    if dimension < 1:
        raise TopologyError("hypercube dimension must be positive")
    n = 2**dimension
    edges = []
    for node in range(n):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if node < other:
                edges.append((node, other))
    return Topology(range(n), edges)


def from_mapping(adjacency: Mapping[Pid, Iterable[Pid]]) -> Topology:
    """Build a topology from an adjacency mapping (symmetrised)."""
    nodes = tuple(adjacency)
    edges: set[Edge] = set()
    for p, neighbors in adjacency.items():
        for q in neighbors:
            edges.add(edge(p, q))
    return Topology(nodes, [tuple(e) for e in edges])


def from_spec(spec: str) -> Topology:
    """Parse ``kind:arg[:arg]`` topology specs like ``ring:8`` or ``grid:4:3``.

    The spec grammar is the portable, JSON-friendly way to name a topology —
    campaign shards carry it across process boundaries and JSONL records
    instead of a pickled graph.  Raises :class:`TopologyError` on unknown
    kinds, non-integer arguments, or wrong arity.
    """
    kind, _, rest = spec.partition(":")
    try:
        args = [int(x) for x in rest.split(":") if x] if rest else []
    except ValueError:
        raise TopologyError(f"non-integer argument in topology spec {spec!r}") from None
    builders = {
        "ring": ring,
        "line": line,
        "star": star,
        "complete": complete,
        "grid": grid,
        "tree": binary_tree,
        "random": lambda n, seed=0: random_connected(n, 0.15, seed=seed),
    }
    if kind not in builders:
        raise TopologyError(
            f"unknown topology kind {kind!r}; one of {sorted(builders)}"
        )
    try:
        return builders[kind](*args)
    except TypeError as exc:
        raise TopologyError(f"bad arguments for {kind}: {exc}") from None
