"""Directed multigraphs with finitely many vertices and edge multiplicities
in N ∪ {∞}.

Vertices are named tokens whose declaration order is remembered and canonical.
Parallel edges are stored as multiplicities; an infinite multiplicity marks an
infinite emitter.  Graphs are immutable after construction and every operation
here is a pure function.  The one cached value, a graph's ``structure`` (the
vertex kinds, the strongly connected components and the edges inside them),
is built on first use and stored on the graph; two threads that build it at
once store equal values, so concurrent read-only use is safe without a lock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

# the grammar of a vertex name, here and in the text format
NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Infinity:
    """Marker for an infinite edge multiplicity; compare with ``is INF``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()

Mult = "int | Infinity"


class Graph:
    """Finite vertex list plus a (source, target) -> multiplicity table."""

    __slots__ = ("_vertices", "_index", "_mult", "_out", "_structure")

    def __init__(self, vertices: Iterable[str], multiplicities: Mapping[tuple[str, str], object]):
        vs = tuple(vertices)
        index = {}
        out: dict[str, list[tuple[str, object]]] = {}
        for v in vs:
            if not isinstance(v, str) or not NAME_RE.fullmatch(v):
                raise ValueError(f"invalid vertex name {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex {v!r}")
            index[v] = len(index)
            out[v] = []
        mult = {}
        unsorted = []
        for (src, dst), m in multiplicities.items():
            if src not in index or dst not in index:
                raise ValueError(f"edge endpoint not declared: {src!r} -> {dst!r}")
            # INF or an int >= 0, where 0 means no edge; bools, floats and
            # Fractions are rejected, whatever their value
            if m is not INF and (type(m) is not int or m < 0):
                raise ValueError(f"invalid multiplicity {m!r} for {src!r} -> {dst!r}")
            if m is INF or m:
                mult[(src, dst)] = m
                targets = out[src]
                targets.append((dst, m))
                if len(targets) == 2:
                    unsorted.append(targets)
        # targets in declaration order
        for targets in unsorted:
            targets.sort(key=lambda pair: index[pair[0]])
        self._vertices = vs
        self._index = index
        self._mult = mult
        self._out = out
        self._structure = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def multiplicity(self, src: str, dst: str):
        self.index(src)
        self.index(dst)
        return self._mult.get((src, dst), 0)

    def out_edges(self, v: str) -> list[tuple[str, object]]:
        self.index(v)
        return list(self._out[v])

    def edges(self) -> list[tuple[str, str, object]]:
        """All edges as (source, target, multiplicity) in canonical order."""
        result = []
        for src in self._vertices:
            for dst, m in self._out[src]:
                result.append((src, dst, m))
        return result

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._mult == other._mult

    def __hash__(self):
        return hash((self._vertices, tuple(sorted(self._mult.items()))))

    def __repr__(self):
        return f"Graph(vertices={len(self._vertices)}, edges={len(self._mult)})"


class VertexClass(Enum):
    REGULAR = "regular"
    SINK = "sink"
    INFINITE_EMITTER = "infinite-emitter"


@dataclass(frozen=True)
class GraphStructure:
    """A graph's edges read once, by vertex index in declaration order.

    ``kinds`` holds each vertex's class and ``out`` its out-edges as
    (target, multiplicity) pairs, targets in declaration order.  ``comp``
    holds the strongly connected component of each vertex, a component
    numbered after every component it reaches (downstream first), and
    ``inner`` the out-edges inside the vertex's own component as (target,
    weight) pairs: weight 2 for a multiplicity of two or more (or infinite),
    else 1.  A vertex lies on a cycle exactly when its inner list is
    nonempty."""

    kinds: tuple[VertexClass, ...]
    out: tuple[tuple[tuple[int, object], ...], ...]
    comp: tuple[int, ...]
    inner: tuple[tuple[tuple[int, int], ...], ...]


def structure(g: Graph) -> GraphStructure:
    """The ``GraphStructure`` of ``g``, built on first use and kept on ``g``."""
    s = g._structure
    if s is None:
        index = g._index
        out = tuple(tuple((index[w], m) for w, m in g._out[v]) for v in g.vertices)
        comp = _components(out)
        kinds = []
        inner = []
        for edges, c in zip(out, comp):
            kind = VertexClass.REGULAR if edges else VertexClass.SINK
            own = []
            for w, m in edges:
                if m is INF:
                    kind = VertexClass.INFINITE_EMITTER
                if comp[w] == c:
                    own.append((w, 2 if m is INF or m >= 2 else 1))
            kinds.append(kind)
            inner.append(tuple(own))
        s = g._structure = GraphStructure(
            kinds=tuple(kinds), out=out, comp=tuple(comp), inner=tuple(inner)
        )
    return s


def classify_vertex(g: Graph, v: str) -> VertexClass:
    """Sink (no outgoing edges), infinite emitter, or regular, read off
    ``structure(g)``."""
    return structure(g).kinds[g.index(v)]


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of the vertices into regular and singular ones, each in
    declaration order."""

    regular: tuple[str, ...]
    singular: tuple[str, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    kinds = structure(g).kinds
    return BlockDecomposition(
        regular=tuple(v for v, k in zip(g.vertices, kinds) if k is VertexClass.REGULAR),
        singular=tuple(v for v, k in zip(g.vertices, kinds) if k is not VertexClass.REGULAR),
    )


@dataclass(frozen=True)
class GraphPredicates:
    row_finite: bool
    has_loop: bool
    is_af: bool
    unital: bool
    singular_vertices: tuple[str, ...]


def _components(adj) -> list[int]:
    """Strongly connected component id of each vertex, given its out-edges
    as (target, _) pairs: Tarjan's algorithm (SIAM J. Comput. 1, 1972) with
    an explicit stack instead of recursion.  A component is completed, and
    numbered, after every component it reaches."""
    n = len(adj)
    order = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    found = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w, _ in it:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
    return comp


def predicates(g: Graph) -> GraphPredicates:
    s = structure(g)
    # a cycle is an edge inside one strongly connected component
    loop = any(s.inner)
    return GraphPredicates(
        row_finite=VertexClass.INFINITE_EMITTER not in s.kinds,
        has_loop=loop,
        is_af=not loop,
        unital=True,
        singular_vertices=block_decomposition(g).singular,
    )


def simple_loop_census(g: Graph) -> dict[str, int]:
    """For each vertex, the number of vertex-simple directed cycles through
    it, each weighted by its edge multiplicities (an edge of multiplicity two
    or more, or infinite, counts twice) and the sum saturated at 2 ("two or
    more").

    Every simple cycle through a vertex lies inside its strongly connected
    component, so only the inner edges of ``structure(g)`` are read, each
    with its weight min(2, multiplicity).  Most vertices are settled from
    their own edges.  A vertex with no inner edge is on no cycle: 0.  Each
    inner out-edge v->w closes its own simple cycle through v, the edge
    followed by a shortest path from w back to v (which meets v only at its
    end; for a loop, the empty path), weighing at least as much as the edge;
    by the mirror argument so does each inner in-edge.  So a vertex whose
    inner out-edges, or whose inner in-edges, weigh 2 or more in total gets
    2.  Only a vertex with one inner in-edge and one inner out-edge, both of
    multiplicity 1, is searched (``_cycles_through``).  When such a vertex's
    out-edge leads to another one, every cycle through either passes that
    edge, so both lie on the same cycles: the search runs once per chain of
    them, and its count is shared along the chain, forwards and backwards.
    The census takes O(V+E) per chain.

    This is not the return-path reading of Condition (K), whose
    intermediate vertices may repeat: the two disagree on
    ``v->w, w->v, v->v`` (see the ROADMAP item on the return-path
    predicate)."""
    inner = structure(g).inner
    n = len(inner)
    in_weight = [0] * n
    source = [0] * n
    for v, edges in enumerate(inner):
        for w, k in edges:
            in_weight[w] += k
            source[w] = v
    counts: list[int | None] = [None] * n

    def chained(v: int) -> bool:
        # uncounted, and one inner in-edge and one inner out-edge of weight 1
        return counts[v] is None and in_weight[v] == 1 and len(inner[v]) == 1 and inner[v][0][1] == 1

    for base in range(n):
        if counts[base] is not None:
            continue
        out_weight = sum(k for _, k in inner[base])
        if out_weight >= 2 or in_weight[base] >= 2:
            counts[base] = 2
        elif not out_weight:
            counts[base] = 0
        else:
            count = counts[base] = _cycles_through(inner, base)
            v = inner[base][0][0]
            while chained(v):
                counts[v] = count
                v = inner[v][0][0]
            v = source[base]
            while chained(v):
                counts[v] = count
                v = source[v]
    return dict(zip(g.vertices, counts))


def _cycles_through(inner: tuple[tuple[tuple[int, int], ...], ...], base: int) -> int:
    """Weighted count, saturated at 2, of the vertex-simple cycles through
    ``base`` along ``inner``: the CIRCUIT search of Johnson's elementary
    circuit enumeration (SIAM J. Comput. 4, 1975) rooted at ``base``, on an
    explicit stack of [vertex, weight of the path so far, edge iterator,
    closed a cycle] frames.

    A vertex is blocked while it is on the path, and stays blocked after it
    is popped without closing a cycle; it is then put on the B-list of each
    of its successors.  When a vertex is popped after closing a cycle it is
    unblocked, and so, in turn, is every blocked vertex on its B-list.  So no
    vertex is entered twice between two cycles found, and the search takes
    O(V+E) per cycle; it stops as soon as the count reaches 2."""
    total = 0
    blocked = {base}
    b_lists: dict[int, set[int]] = {}
    stack = [[base, 1, iter(inner[base]), False]]
    while stack:
        frame = stack[-1]
        v, acc, it, _ = frame
        for w, k in it:
            if w == base:
                total += min(2, acc * k)
                if total >= 2:
                    return 2
                frame[3] = True
            elif w not in blocked:
                blocked.add(w)
                stack.append([w, min(2, acc * k), iter(inner[w]), False])
                break
        else:
            stack.pop()
            if frame[3]:
                if stack:
                    stack[-1][3] = True
                blocked.discard(v)
                if v in b_lists:
                    freed = [v]
                    while freed:
                        for u in b_lists.pop(freed.pop(), ()):
                            if u in blocked:
                                blocked.discard(u)
                                freed.append(u)
            else:
                for w, _ in inner[v]:
                    b_lists.setdefault(w, set()).add(v)
    return total


def census_satisfies_condition_k(census: dict[str, int]) -> bool:
    """Condition (K) read off a loop census: no vertex lies on exactly one
    simple loop."""
    return all(count != 1 for count in census.values())


def satisfies_condition_k(g: Graph) -> bool:
    """True iff no vertex lies on exactly one simple loop."""
    return census_satisfies_condition_k(simple_loop_census(g))


def emitter_edge_listing(g: Graph, v: str, count: int) -> list[str]:
    """First ``count`` targets of the canonical outgoing-edge listing of an
    infinite emitter: finite-multiplicity edges first (targets in declaration
    order, each repeated per multiplicity), then an endless round-robin over
    the infinite-multiplicity targets in declaration order."""
    finite_part: list[str] = []
    infinite_targets: list[str] = []
    for w, m in g.out_edges(v):
        if m is INF:
            infinite_targets.append(w)
        else:
            finite_part.extend([w] * m)
    listing = finite_part[:count]
    i = 0
    while len(listing) < count:
        if not infinite_targets:
            raise ValueError(f"vertex {v!r} has fewer than {count} outgoing edges")
        listing.append(infinite_targets[i % len(infinite_targets)])
        i += 1
    return listing


def desingularize(
    g: Graph, depth: int, sinks: bool = True, infinite_emitters: bool = True
) -> Graph:
    """Append a finite tail to each selected singular vertex.

    Each selected vertex v0 grows a chain v0 -> t1 -> ... -> t_depth of fresh
    vertices (the last a sink).  For an infinite emitter the outgoing edges
    are listed canonically and the j-th edge is re-sourced to the (j-1)-th
    tail vertex (t0 = v0); edges beyond index ``depth`` are dropped.  With
    ``infinite_emitters`` selected the result is row-finite.
    """
    graph, _tails = desingularize_with_tails(g, depth, sinks, infinite_emitters)
    return graph


def desingularize_with_tails(
    g: Graph, depth: int, sinks: bool = True, infinite_emitters: bool = True
) -> tuple[Graph, dict[str, tuple[str, int]]]:
    """Like :func:`desingularize`, also mapping tail vertex -> (base, position)."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    selected = []
    rewired = set()
    for v in g.vertices:
        cls = classify_vertex(g, v)
        if cls is VertexClass.SINK and sinks:
            selected.append(v)
        elif cls is VertexClass.INFINITE_EMITTER and infinite_emitters:
            selected.append(v)
            rewired.add(v)

    vertices = list(g.vertices)
    existing = set(vertices)
    mult: dict[tuple[str, str], object] = {}
    for src, dst, m in g.edges():
        if src not in rewired:
            mult[(src, dst)] = m

    tails: dict[str, tuple[str, int]] = {}

    def add_edge(src: str, dst: str) -> None:
        cur = mult.get((src, dst), 0)
        mult[(src, dst)] = INF if cur is INF else cur + 1

    for v in selected:
        chain = []
        for j in range(1, depth + 1):
            name = f"{v}__t{j}"
            while name in existing:
                name += "_"
            existing.add(name)
            vertices.append(name)
            chain.append(name)
            tails[name] = (v, j)
        prev = v
        for t in chain:
            add_edge(prev, t)
            prev = t
        if v in rewired:
            listing = emitter_edge_listing(g, v, depth)
            sources = [v] + chain[:-1]
            for source, target in zip(sources, listing):
                add_edge(source, target)

    return Graph(vertices, mult), tails
