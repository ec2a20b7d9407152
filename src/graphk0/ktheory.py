"""The ordered K0 group of a graph algebra.

The group is the cokernel of the vertex relation matrix (one column per
regular vertex), presented with explicit torsion moduli and free rank.  The
regular vertices on no cycle are eliminated first (``compute_k0``), and the
cokernel of what is left is taken by unit-pivot elimination and a Smith
normal form of the residual (``linalg.cokernel``).  Every path here reads
each vertex's class sparse, from ``coker.classes``; ``K0Presentation.delta``,
the classes as dense elements, is built for callers on its first read.  The
positive cone is the monoid generated by the vertex classes together with,
for every infinite emitter, the family of differences "emitter class minus
a finite batch of target classes" (kept intensional via per-target
capacities).

Membership in the cone is decided three-valued: Member carries a witness,
NotMember a rational separating functional on ambient coordinates, and
Unknown the spent search budget, 0 when every case of the search was
excluded or closed empty but no functional separates.  The functionals
nonnegative on the cone are the unnormalised graph traces (Tomforde, arXiv
math/0204095), so the cone's dual is described once, by ``trace_cone`` over
the vertices in declaration order, and ``nonnegative_on_cone`` checks a
point against its rows.  Those rows are the graph's own edges, held as
their nonzero ``(index, coefficient)`` entries, and ``lp.check_point`` and
``lp.verify_farkas`` read them in one pass.  That cone is simplicial:
``trace_rays`` reads its extreme rays off the strongly connected components
and certifies that they span it, the last step by a Farkas certificate
built from walks round the cycles (``_completeness``), so finding them
solves no LP; every check reads the same sparse rows and the sparse
coefficient rows c_b, so each ray costs O(E + n).  The separating
functional is the first extreme trace negative on the query, and the cone
is the whole group exactly when there is none.

A query that no cached verdict (the one reuse path: a repeat of the same
query) or extreme trace settles goes to one search (``_cone_search``) over
the cases of ``K0Presentation._cases``.  A case fixes which families with
an uncapped target are used; its columns are the vertex classes, each
present family's full batch of capped targets and minus each uncapped
target of a used family, and its dual is the trace cone of a graph, the
one with the out-edges of every unused such emitter removed.  Read off that
graph's extreme traces, once per case, are the case's separation, its face
step and its units (the columns on which every ray vanishes), with one
relation (``_relation``) that negates them all and a Smith normal form of
their lattice.  The search runs over the rest of the face, which spans a
pointed cone, modulo that lattice, so it is bounded; ``_decode_witness``
reads the counts back as a witness.  Without extreme traces the cone is the
whole group, and the one case kept is the first without rays of its own
(``K0Presentation._cases``).  Pointedness (``order_properties``) is read off
the same units and relations.

``cone_membership`` is the one gate for certificates: it re-checks every new
witness before caching it and raises ``CertificateError`` if the check
fails, and a separating functional that fails ``functional_certifies``
raises it too, as does a ray list that fails the re-check of
``trace_rays``.  These checks are plain code, so they also run under
``python -O``.  Comparison of two presentations compares the group
invariants, the number of extreme traces and pointedness, then
enumerates group isomorphisms under a budget and checks cone preservation
through the membership machinery.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm

from .graphs import (
    Graph,
    INF,
    VertexClass,
    classify_vertex,
    desingularize_with_tails,
    emitter_edge_listing,
    structure,
)
from .intfeas import IntInfeasible, IntUnknown, integer_feasibility, relaxation
from .linalg import (
    CertificateError,
    CokerPresentation,
    Element,
    SmithForm,
    _axpy,
    _reduce_torsion,
    cokernel,
    determinant,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_diophantine,
)
from .lp import (
    EQ,
    GE,
    LE,
    Constraint,
    FarkasCertificate,
    Feasible,
    check_point,
    constraint,
    solve_lp,
    verify_farkas,
)

DEFAULT_BUDGET = 100000


def _dot(phi, vec):
    return sum(p * c for p, c in zip(phi, vec))


@dataclass(frozen=True)
class Family:
    """One infinite emitter's cone generators: all classes
    [emitter] - sum n_w [w] with 0 <= n_w <= capacity (None = no cap)."""

    emitter: str
    targets: tuple[tuple[str, int | None], ...]


@dataclass(frozen=True)
class ConeSpec:
    families: tuple[Family, ...]


class K0Presentation:
    """Cokernel presentation plus per-vertex classes, cone data and the unit.

    The classes are kept once, sparse, as ``coker.classes`` over
    ``ambient_order``; ``delta``, each vertex's class as a dense
    ``Element``, is built from them for callers on its first read."""

    def __init__(
        self,
        graph: Graph,
        coker: CokerPresentation,
        ambient_order: tuple[str, ...],
        cone: ConeSpec,
        order_unit: Element,
    ) -> None:
        self.graph = graph
        self.coker = coker
        self.ambient_order = ambient_order
        self.cone = cone
        self.order_unit = order_unit
        self._ambient_index = {v: i for i, v in enumerate(ambient_order)}
        self._membership_cache: dict[Element, tuple[object, int]] = {}

    @property
    def row_finite_orthant(self) -> bool:
        """True when no vertex is an infinite emitter: the cone is then the
        image of the nonnegative orthant."""
        return not self.cone.families

    def ambient_index(self, v: str) -> int:
        return self._ambient_index[v]

    @cached_property
    def delta(self) -> dict[str, Element]:
        """Each vertex's class as an ``Element``, in declaration order."""
        elements = self.coker.basis_classes()
        return {v: elements[self._ambient_index[v]] for v in self.graph.vertices}

    def group_invariants(self) -> tuple[int, tuple[int, ...]]:
        return self.coker.group_invariants()

    @cached_property
    def _caps(self) -> dict[str, dict[str, int | None]]:
        """Each family's capacity per target, by emitter."""
        return {fam.emitter: dict(fam.targets) for fam in self.cone.families}

    @cached_property
    def _trace_rows(self) -> list[Constraint]:
        return trace_cone(self.graph).constraints()

    @cached_property
    def _rays(self) -> list[tuple[int, ...]]:
        """The extreme graph traces (``trace_rays``) in ambient order."""
        return [_to_ambient(self, h) for h in trace_rays(self.graph)]

    @cached_property
    def _cases(self) -> list[_Case]:
        """The cases of the membership search (``_Case``), one per set of
        used split families in the order of ``_split_cases``.

        Without extreme traces the cone is the whole group, and only the
        first case without rays of its own is kept: its units are the
        vertex classes, which generate the group, so it answers every
        query.  Its relation may use every column and is at least 1 on the
        units and the used batches.  By Farkas, there is none exactly when
        some functional is >= 0 on the case's columns and > 0 on one of
        those, a nonzero trace of the case's graph; such a trace is positive
        on a nonzero vertex class, a unit.  So the relation exists exactly
        in the cases without rays, and the case that uses every split family
        is one: its graph is the graph itself."""
        vertices, families = _generators(self)
        cases = (_Case(self, vertices, families, used) for used in _split_cases(families))
        if self._rays:
            return list(cases)
        return [next(case for case in cases if not case.rays)]


def compute_k0(g: Graph) -> K0Presentation:
    """Ordered K0 presentation of an arbitrary finitely presented graph.

    The group is the cokernel of the relation matrix: one row per vertex,
    regular ones first (the ambient order), and one column per regular
    vertex v, A(v, .) - e_v, the relation [v] = sum_w A(v, w) [w].  That
    cokernel is taken on a smaller matrix.  A regular vertex on no cycle
    has the pivot -1 in its own column, and its relation only defines [v]
    (the K0 shadow of collapsing regular vertices: Bates-Pask, Ergodic
    Theory Dynam. Systems 24, 2004).  So those vertices are eliminated, downstream first (Tarjan
    numbers a component after every component it reaches).  The others,
    the kept vertices (on a cycle, or singular), are taken in declaration
    order; an eliminated v expands to E_v = sum_w A(v, w) E_w over them,
    with E_w = e_w for a kept w.  The reduced matrix has one row per kept
    vertex and one sparse column per regular vertex u on a cycle, sum_w
    A(u, w) E_w - e_u.  Its cokernel (``linalg.cokernel``) eliminates the
    +-1 pivots left among the kept vertices in a fill-reducing order and
    takes the Smith normal form of the residual only.  A kept vertex's
    sparse class is read off that cokernel, an eliminated v's class is
    sum_w A(v, w) [w], again downstream first, and the presentation over
    the ambient order holds every vertex's class and the reduced section,
    moved to the kept vertices' ambient indices.  The order unit is sum
    w(k) [k] over the kept k: each vertex weighs 1, and an eliminated v,
    upstream first, adds its weight times A(v, w) to each target w."""
    names = g.vertices
    s = structure(g)
    out, inner = s.out, s.inner
    regular = [v for v, k in enumerate(s.kinds) if k is VertexClass.REGULAR]
    singular = [v for v, k in enumerate(s.kinds) if k is not VertexClass.REGULAR]
    order = regular + singular
    kept = [v for v in range(len(names)) if inner[v] or s.kinds[v] is not VertexClass.REGULAR]
    row = {v: r for r, v in enumerate(kept)}
    eliminated = sorted((v for v in regular if not inner[v]), key=s.comp.__getitem__)

    # a regular vertex has only finite multiplicities
    expansion = {v: {r: 1} for v, r in row.items()}
    for v in eliminated:
        e: dict[int, int] = {}
        for w, m in out[v]:
            _axpy(e, expansion[w], m)
        expansion[v] = e
    columns = []
    for u in regular:
        if inner[u]:
            c = {row[u]: -1}
            for w, m in out[u]:
                _axpy(c, expansion[w], m)
            columns.append(c)
    reduced = cokernel(columns, len(kept))

    classes = dict(zip(kept, reduced.classes))
    for v in eliminated:
        acc: dict[int, int] = {}
        for w, m in out[v]:
            _axpy(acc, classes[w], m)
        classes[v] = acc
    weight = [1] * len(names)
    for v in reversed(eliminated):
        for w, m in out[v]:
            weight[w] += weight[v] * m
    unit = _combination(classes, ((v, weight[v]) for v in kept), reduced.torsion_moduli)
    pos = {v: i for i, v in enumerate(order)}
    section = [{pos[kept[r]]: x for r, x in lift.items()} for lift in reduced.section]
    coker = CokerPresentation(reduced.torsion_moduli, [classes[v] for v in order], section)
    families = tuple(
        Family(names[v], tuple((names[w], None if m is INF else m) for w, m in out[v]))
        for v in singular
        if s.kinds[v] is VertexClass.INFINITE_EMITTER
    )
    return K0Presentation(
        graph=g,
        coker=coker,
        ambient_order=tuple(names[v] for v in order),
        cone=ConeSpec(families=families),
        order_unit=coker._element(unit),
    )


def compute_k0_row_finite(g: Graph) -> K0Presentation:
    """Row-finite specialization: the cone is the image of the nonnegative
    orthant, so no generator families appear."""
    k = compute_k0(g)
    if not k.row_finite_orthant:
        raise ValueError("graph has an infinite emitter; row-finite path not applicable")
    return k


# ---------------------------------------------------------------------------
# cone membership


@dataclass(frozen=True)
class FamilyUse:
    emitter: str
    count: int
    target_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MembershipWitness:
    base_counts: tuple[tuple[str, int], ...]
    family_uses: tuple[FamilyUse, ...]


@dataclass(frozen=True)
class Member:
    witness: MembershipWitness


@dataclass(frozen=True)
class NotMember:
    functional: tuple[Fraction, ...]  # over ambient coordinates


@dataclass(frozen=True)
class UnknownMembership:
    """Undecided after ``budget_spent`` branch-and-bound nodes.  With 0
    every case of the search closed empty or was excluded by one of its
    rays, so x is outside the cone, but no extreme trace of the graph is
    negative on x, so no separating functional certifies NotMember; a
    larger budget gives the same verdict."""

    budget_spent: int


MembershipVerdict = Member | NotMember | UnknownMembership


def _combination(rows, terms, moduli: tuple[int, ...]) -> dict[int, int]:
    """sum c * rows[i] over the ``(i, c)`` in ``terms``, the rows and the
    result sparse coordinates, the result's torsion reduced mod ``moduli``."""
    acc: dict[int, int] = {}
    for i, c in terms:
        if c:
            _axpy(acc, rows[i], c)
    return _reduce_torsion(acc, moduli)


def _class_of(k: K0Presentation, terms) -> dict[int, int]:
    """The class of sum c [v] over the ``(v, c)`` in ``terms``, sparse."""
    indexed = ((k.ambient_index(v), c) for v, c in terms)
    return _combination(k.coker.classes, indexed, k.coker.torsion_moduli)


def _witness_terms(witness: MembershipWitness) -> list[tuple[str, int]]:
    """The ``(vertex, count)`` terms of the element a witness writes."""
    terms = [*witness.base_counts]
    for use in witness.family_uses:
        terms += [(use.emitter, use.count), *((w, -c) for w, c in use.target_counts)]
    return terms


def evaluate_witness(k: K0Presentation, witness: MembershipWitness) -> Element:
    return k.coker._element(_class_of(k, _witness_terms(witness)))


def witness_is_valid(k: K0Presentation, witness: MembershipWitness) -> bool:
    if any(c < 0 for _, c in witness.base_counts):
        return False
    caps = k._caps
    for use in witness.family_uses:
        if use.emitter not in caps or use.count < 0:
            return False
        fam_caps = caps[use.emitter]
        for w, c in use.target_counts:
            if w not in fam_caps or c < 0:
                return False
            cap = fam_caps[w]
            if cap is not None and c > use.count * cap:
                return False
            if c > 0 and use.count == 0:
                return False
    return True


Terms = tuple[tuple[int, int], ...]


def _plus(v: int, c: int, terms: list[tuple[int, int]]) -> Terms:
    """``terms``, nonzero entries in increasing index order, plus ``c`` at
    index ``v``."""
    i = bisect_left(terms, (v,))
    if i < len(terms) and terms[i][0] == v:
        c += terms.pop(i)[1]
    if c:
        terms.insert(i, (v, c))
    return tuple(terms)


@dataclass(frozen=True)
class TracePolytope:
    """Exact description of a set of graph traces.

    Variables are the vertices in declaration order, all nonnegative; rows
    are ``(terms, rhs)``, equalities and then <=-inequalities, with
    ``terms`` the nonzero ``(index, coefficient)`` entries in increasing
    index order.  ``forced_zero`` lists the vertices pinned to zero because
    they receive infinitely many edges from one emitter.
    """

    variables: tuple[str, ...]
    equalities: tuple[tuple[Terms, int], ...]
    inequalities: tuple[tuple[Terms, int], ...]
    forced_zero: frozenset[str]

    def constraints(self) -> list[Constraint]:
        """The rows as LP constraints, equalities first."""
        n = len(self.variables)
        return [Constraint(n, terms, EQ, rhs) for terms, rhs in self.equalities] + [
            Constraint(n, terms, LE, rhs) for terms, rhs in self.inequalities
        ]


def trace_cone(g: Graph) -> TracePolytope:
    """The cone of unnormalised graph traces: t(v) = sum A(v, w) t(w) at
    every regular vertex, then t(w) = 0 for every target an emitter reaches
    infinitely often, and t(e) >= sum m t(w) over each emitter's finite
    edges.  These are the functionals nonnegative on the positive cone.

    Each row is read off the graph's own edges: a regular vertex minus its
    targets, an emitter's finite batch minus the emitter, a forced zero as a
    unit, so the rows hold O(E + n) entries in all."""
    names = g.vertices
    s = structure(g)
    equalities: list[tuple[Terms, int]] = []
    inequalities: list[tuple[Terms, int]] = []
    forced: set[int] = set()

    # out-edges come in increasing target order
    for v, (kind, out) in enumerate(zip(s.kinds, s.out)):
        if kind is VertexClass.REGULAR:
            equalities.append((_plus(v, 1, [(w, -m) for w, m in out]), 0))
        elif kind is VertexClass.INFINITE_EMITTER:
            forced.update(w for w, m in out if m is INF)
            inequalities.append((_plus(v, -1, [(w, m) for w, m in out if m is not INF]), 0))

    for w in sorted(forced):
        equalities.append((((w, 1),), 0))

    return TracePolytope(
        variables=names,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        forced_zero=frozenset(names[w] for w in forced),
    )


def trace_rays(g: Graph) -> list[tuple[int, ...]]:
    """The integral extreme rays of ``trace_cone(g)``, over the vertices in
    declaration order, read off the strongly connected components.

    A *unit cycle* is a component that is one simple cycle of
    multiplicity-1 edges.  Every trace vanishes on the forward closure Z of
    the infinite targets, the vertices of the other components with a cycle
    (a subinvariant vector of an irreducible matrix of spectral radius
    above 1 is zero) and the exit targets of unit cycles (going round the
    cycle, the exits sum to zero).  The *boundary elements* outside Z are
    the sinks, the infinite emitters on no cycle and the unit cycles; each
    has a coefficient c_b (the value at the sink, the emitter's slack, the
    value at the cycle's first vertex), and its ray h_b counts the weighted
    paths from each vertex to b, stopping at the first vertex of b reached.
    Every trace t is the sum of c_b(t) * h_b.

    The rays are re-checked before they are returned, and a failed check
    raises ``CertificateError``: each is a point of the cone, c_b(h_b') is
    1 when b = b' and 0 otherwise, the rows of the cone as equalities, Z and
    the c_b can be solved by substitution for a zero vector, and no trace is
    positive on Z or on the slack of an emitter that is not a boundary
    element.  The last is a Farkas certificate built from walks
    (``_completeness``) and checked by ``verify_farkas``; no LP is solved.
    Then t - sum c_b(t) * h_b satisfies all of those rows for every trace
    t, so it is zero.

    The cone's rows and the c_b (a unit vector, or an emitter's slack) are
    held as their nonzero entries, so each check reads the graph's edges
    once: a ray costs O(E + n) to check, not O(n^2).
    """
    return _cone_rays(g)[1]


def _cone_rays(g: Graph) -> tuple[TracePolytope, list[tuple[int, ...]]]:
    """``trace_cone(g)`` and ``trace_rays(g)``, the cone built once."""
    cone = trace_cone(g)
    coefficients, zero, rays = _component_rays(g, cone)
    _check_rays(g, cone, coefficients, zero, rays)
    return cone, rays


def _cycle_components(s) -> tuple[set[int], set[int]]:
    """The components with a cycle, and among them the unit cycles: one
    inner edge of weight 1 at each vertex."""
    n = len(s.out)
    comp, inner = s.comp, s.inner
    cyclic = {comp[v] for v in range(n) if inner[v]}
    return cyclic, cyclic - {comp[v] for v in range(n) if len(inner[v]) != 1 or inner[v][0][1] != 1}


def _component_rays(g: Graph, cone: TracePolytope):
    """The coefficient row c_b of each boundary element as its terms, in the
    order of their first vertices, the vertex indices of Z, and the rays
    h_b."""
    s = structure(g)
    n = len(s.out)
    comp = s.comp
    cyclic, unit = _cycle_components(s)
    seeds = [g.index(w) for w in cone.forced_zero]
    seeds += [v for v in range(n) if comp[v] in cyclic - unit]
    seeds += [w for v in range(n) if comp[v] in unit for w, _ in s.out[v] if comp[w] != comp[v]]
    zero = set(seeds)
    while seeds:
        for w, _ in s.out[seeds.pop()]:
            if w not in zero:
                zero.add(w)
                seeds.append(w)

    edges = [[(w, m) for w, m in out if m is not INF] for out in s.out]
    on_cycle: dict[int, set[int]] = {c: set() for c in unit}
    for v, c in enumerate(comp):
        if c in on_cycle:
            on_cycle[c].add(v)
    coefficients: list[Terms] = []
    members: list[set[int]] = []
    for v in range(n):
        if v in zero:
            continue
        if comp[v] in on_cycle:
            members.append(on_cycle.pop(comp[v]))
            coefficients.append(((v, 1),))
        elif comp[v] not in cyclic and s.kinds[v] is not VertexClass.REGULAR:
            members.append({v})
            coefficients.append(_plus(v, 1, [(w, -m) for w, m in edges[v]]))

    # downstream components first: Tarjan numbers a component after every
    # component it reaches
    order = sorted(range(n), key=comp.__getitem__)
    rays = []
    for b in members:
        h = [0] * n
        for v in order:
            if v in b:
                h[v] = 1
            elif v not in zero and comp[v] not in cyclic:
                h[v] = sum(m * h[w] for w, m in edges[v])
        rays.append(tuple(h))
    return coefficients, sorted(zero), rays


def _solvable_by_substitution(n: int, rows) -> bool:
    """True when rows . t = 0, each row given by its terms, forces t = 0 by
    substitution alone: some row has one unknown left, which is then zero,
    until none is left."""
    left = [len(row) for row in rows]
    uses: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, _ in row:
            uses[j].append(i)
    known = [False] * n
    ready = [i for i, count in enumerate(left) if count == 1]
    solved = 0
    while ready:
        i = ready.pop()
        if left[i] != 1:
            continue
        j = next(j for j, _ in rows[i] if not known[j])
        known[j] = True
        solved += 1
        for r in uses[j]:
            left[r] -= 1
            if left[r] == 1:
                ready.append(r)
    return solved == n


def _check_rays(g: Graph, cone: TracePolytope, coefficients, zero, rays) -> None:
    """The re-check of ``trace_rays``; raises ``CertificateError``.  Every
    row is read by its terms, so each ray costs one pass over the cone's
    rows and the c_b, O(E + n)."""
    n = len(cone.variables)
    rows = cone.constraints()
    if len(rays) != len(coefficients):
        raise CertificateError("the boundary elements and the rays differ in number")
    nonneg = [True] * n
    for i, h in enumerate(rays):
        if not check_point(n, rows, nonneg, h):
            raise CertificateError("a computed ray is not a graph trace")
        for j, c in enumerate(coefficients):
            if sum([x * h[w] for w, x in c]) != int(i == j):
                raise CertificateError("the ray coefficients are not dual to the rays")
    units = [((z, 1),) for z in zero]
    slacks = [tuple((j, -c) for j, c in terms) for terms, _ in cone.inequalities]
    equalities = [terms for terms, _ in cone.equalities]
    if not _solvable_by_substitution(n, equalities + slacks + units + coefficients):
        raise CertificateError("the rays do not determine every graph trace")
    proof = _completeness(g, cone, rows, coefficients, zero)
    if proof is not None and not verify_farkas(n, *proof):
        raise CertificateError("a graph trace is positive where every ray vanishes")


def _completeness(g: Graph, cone: TracePolytope, rows, coefficients, zero):
    """The system "a trace is at least 1 on Z plus the slacks of the
    emitters that are not boundary elements" and a Farkas certificate of its
    infeasibility from ``_walks``, as the last three arguments of
    ``verify_farkas``; None when that sum is zero.  A vertex of Z demands 1,
    2 for an emitter whose slack is in the sum, and the added row gets -1."""
    s = structure(g)
    n = len(s.out)
    emitters = [v for v in range(n) if s.kinds[v] is VertexClass.INFINITE_EMITTER]
    boundary = set(coefficients)
    zset = set(zero)
    positive = [int(j in zset) for j in range(n)]
    slack = set()
    for v, (terms, _) in zip(emitters, cone.inequalities):
        if tuple((j, -c) for j, c in terms) not in boundary:
            slack.add(v)
            for j, c in terms:
                positive[j] -= c
    if not any(positive):
        return None
    lam = _walks(g, cone, zero, [(j in zset) * (1 + (j in slack)) for j in range(n)], slack)
    return [*rows, constraint(positive, GE, 1)], [True] * n, FarkasCertificate((*lam, -1))


def _walks(g: Graph, cone: TracePolytope, zero, demand, slack=()) -> list[int]:
    """Integral multipliers on the rows of ``cone`` whose combination is at
    least ``demand[v]`` at each vertex v, built from walks; ``zero`` is Z.

    A multiplier -c on the row of a regular vertex u (+c on an emitter's)
    adds -c at u and c*m at each finite target, so a walk over a set of
    rows passes c from each vertex to its successors.  A vertex outside Z
    with a demand d must be a regular vertex on no cycle: taken upstream
    first, it gets +d on its own row, which adds d*m to each target's
    demand.  Around a cycle the walk adds nothing on the cycle and is at
    least 1 at a *root*: an exit target of a unit cycle, or a second inner
    target of a vertex with inner weight 2 or more; an infinite target is a
    root through its own row.  A tree of finite edges from the roots then
    carries to each vertex of Z its demand and the demand below it, and an
    emitter of ``slack`` on a unit cycle outside Z gets 1 from the walk over
    the other vertices of the cycle, taken from the next one."""
    s = structure(g)
    n = len(s.out)
    kinds, out, comp = s.kinds, s.out, s.comp
    zset = set(zero)
    regular = [v for v in range(n) if kinds[v] is VertexClass.REGULAR]
    row_of = {v: i for i, v in enumerate(regular)}
    emitters = (v for v in range(n) if kinds[v] is VertexClass.INFINITE_EMITTER)
    row_of.update((v, len(cone.equalities) + i) for i, v in enumerate(emitters))
    forced = sorted(g.index(w) for w in cone.forced_zero)
    pinned = {w: len(regular) + i for i, w in enumerate(forced)}
    lam = [0] * (len(cone.equalities) + len(cone.inequalities))

    def walk(vertices, c):
        for u in vertices:
            lam[row_of[u]] += c if kinds[u] is VertexClass.INFINITE_EMITTER else -c

    need = list(demand)
    for u in sorted(set(range(n)) - zset, key=comp.__getitem__, reverse=True):
        if need[u]:
            walk((u,), -need[u])
            for w, m in out[u]:
                need[w] += need[u] * m

    cyclic, unit = _cycle_components(s)
    members: dict[int, list[int]] = {c: [] for c in cyclic}
    for v in range(n):
        if comp[v] in members:
            members[comp[v]].append(v)
    roots: dict[int, list[int] | None] = dict.fromkeys(pinned)
    for c in sorted(unit):
        for v in members[c]:
            for w, m in out[v]:
                if m is not INF and comp[w] != c:
                    roots.setdefault(w, members[c])
    for c in sorted(cyclic - unit):
        if not any(v in pinned for v in members[c]):
            root, cycle = _cycle_root(s, members[c])
            roots.setdefault(root, cycle)

    order = [x for x in roots if x in zset]
    parent = dict.fromkeys(order)
    for u in order:
        for w, m in out[u]:
            if m is not INF and w in zset and w not in parent:
                parent[w] = u
                order.append(w)
    for u in reversed(order):
        p = parent[u]
        if p is not None:
            need[p] += need[u]
            walk((p,), need[u])
        elif roots[u] is None:
            lam[pinned[u]] += need[u]
        else:
            walk(roots[u], need[u])
    for e in slack:
        if e not in zset and comp[e] in unit:
            walk([v for v in members[comp[e]] if v != e], 1)
    return lam


def _cycle_root(s, members) -> tuple[int, list[int]]:
    """A root of a component with a cycle, no infinite inner edge and a
    vertex v of inner weight 2 or more, and the vertices of a simple cycle
    through v's first inner edge v -> w, closed by a BFS from w."""
    v = next(v for v in members if sum(weight for _, weight in s.inner[v]) >= 2)
    (w, weight), *more = s.inner[v]
    prev = {w: None}
    queue = [w]
    for u in queue:
        if u == v:
            break
        for x, _ in s.inner[u]:
            if x not in prev:
                prev[x] = u
                queue.append(x)
    cycle = [v]
    while cycle[-1] != w:
        cycle.append(prev[cycle[-1]])
    return w if weight == 2 else more[0][0], cycle


def _to_declaration(k: K0Presentation, phi) -> list:
    """An ambient-order vector reordered to the graph's vertex order."""
    return [phi[k.ambient_index(v)] for v in k.graph.vertices]


def _to_ambient(k: K0Presentation, values) -> tuple:
    """A vertex-order vector reordered to ambient order."""
    return tuple(values[k.graph.index(v)] for v in k.ambient_order)


def nonnegative_on_cone(k: K0Presentation, phi: tuple[Fraction, ...]) -> bool:
    """Exact check that an ambient functional is well defined on the group
    and nonnegative on every cone generator: reordered to the vertices, it
    is a point of ``trace_cone``."""
    n = len(k.ambient_order)
    if len(phi) != n:
        return False
    return check_point(n, k._trace_rows, [True] * n, _to_declaration(k, phi))


def functional_certifies(
    k: K0Presentation, phi: tuple[Fraction, ...], x: Element
) -> bool:
    """Exact re-verification of a NotMember certificate."""
    if not nonnegative_on_cone(k, phi):
        return False
    return _dot(phi, k.coker.lift(x)) < 0


def _quotient_coords(e: Element) -> list[int]:
    return [*e.torsion, *e.free]


def _torsion_lattice_columns(coker: CokerPresentation) -> list[list[int]]:
    """Columns spanning the representative ambiguity of torsion residues."""
    dim = len(coker.torsion_moduli) + coker.free_rank
    return [
        [-coker.torsion_moduli[i] if r == i else 0 for r in range(dim)]
        for i in range(len(coker.torsion_moduli))
    ]


@dataclass(frozen=True)
class _Column:
    """A column of a case: ``element`` is the class of sum n [w] over the
    ``(w, n)`` in ``terms``.  A vertex column is [v] (``emitter`` None); a
    family's columns are its batch [e] - sum cap [w] over its capped
    targets, and -[u] for each uncapped target u."""

    emitter: str | None
    terms: tuple[tuple[str, int], ...]
    element: Element


def _generators(k: K0Presentation):
    """The columns every case draws on: one per nonzero vertex class, and
    for each family its batch [e] - sum cap [w] over its nonzero-class
    capped targets, with a column -[u] for each nonzero-class uncapped
    target u.  Zero-class targets, empty sparse classes, add nothing to any
    family element.  A column's element is the class of its own terms."""
    classes, at = k.coker.classes, k.ambient_index

    def column(emitter, terms):
        return _Column(emitter, tuple(terms), k.coker._element(_class_of(k, terms)))

    vertices = [column(None, ((v, 1),)) for v in k.graph.vertices if classes[at(v)]]
    families = []
    for fam in k.cone.families:
        e = fam.emitter
        terms, targets = [(e, 1)], []
        for w, cap in fam.targets:
            if not classes[at(w)]:
                continue
            if cap is None:
                targets.append(column(e, ((w, -1),)))
            else:
                terms.append((w, -cap))
        families.append((column(e, terms), targets))
    return vertices, families


def _split_cases(families):
    """The set of used families of each case: a family with an uncapped
    target (a split family) is either unused or used at least once, and
    every other family is present with any count."""
    split = [batch.emitter for batch, targets in families if targets]
    for mask in range(1 << len(split)):
        yield {e for b, e in enumerate(split) if mask >> b & 1}


class _Case:
    """The case of the cone in which the split families in ``used`` are
    used at least once.

    A use of a family with count t >= 1 and target counts m_w (at most
    cap * t on a capped target) is t batches plus sum (cap * t - m_w) [w]
    minus the uncapped targets.  So the case's cone elements are the
    ``shift``, one batch per used family (their ``offset`` among the
    columns), plus a nonnegative combination of its ``columns``: the
    nonzero vertex classes, the batch of each present family (used, or not
    split, with a nonzero class), and -[u] for each uncapped target u of a
    used family.  A functional is >= 0 on these columns exactly when it is
    a trace of the graph with the out-edges of every unused split emitter
    removed: that emitter becomes a sink, and the regular vertices, the
    group and the classes stay the same.  So the case's ``rays`` are that
    graph's extreme traces, and its ``units``, the columns on which every
    ray vanishes, are those whose negation is in the columns' rational
    cone.  The rest of the case is built on first use.

    Without extreme traces of the graph every element is in the cone, and
    no column is searched (``pointed``): the units are the vertex classes,
    and their ``relation`` is at least 1 on the used batches too, so its
    copies alone make each -[u] column valid, and the case has no shift.
    """

    def __init__(self, k: K0Presentation, vertices, families, used) -> None:
        self._k = k
        split = {batch.emitter for batch, targets in families if targets}
        self._dropped = split - used
        self.columns = list(vertices)
        self._used = []
        for batch, targets in families:
            if batch.emitter in used:
                self._used.append(len(self.columns))
                self.columns += [batch, *targets]
            elif not targets and not batch.element.is_zero():
                self.columns.append(batch)
        self.offset = self._used if k._rays else []
        shift = (t for j in self.offset for t in self.columns[j].terms)
        self.shift = k.coker._element(_class_of(k, shift))

    @cached_property
    def rays(self) -> list[tuple[int, ...]]:
        k = self._k
        if not self._dropped:
            return k._rays
        g = k.graph
        sub = Graph(g.vertices, {(v, w): m for v, w, m in g.edges() if v not in self._dropped})
        return [_to_ambient(k, h) for h in trace_rays(sub)]

    @cached_property
    def values(self) -> list[tuple[int, ...]]:
        """Each ray's values on the columns."""
        index = self._k.ambient_index
        return [
            tuple(sum(n * h[index(w)] for w, n in col.terms) for col in self.columns)
            for h in self.rays
        ]

    @cached_property
    def units(self) -> list[int]:
        if not self._k._rays:
            return [j for j, col in enumerate(self.columns) if col.emitter is None]
        return [j for j in range(len(self.columns)) if not any(row[j] for row in self.values)]

    @cached_property
    def pointed(self) -> list[int]:
        if not self._k._rays:
            return []
        units = set(self.units)
        return [j for j in range(len(self.columns)) if j not in units]

    @cached_property
    def relation(self) -> list[int]:
        """Counts per column of a relation (``_relation``) that is at least 1
        on every unit; no LP runs without units.  With extreme traces of the
        graph it lies on the units, and since every ray vanishes on each of
        them there is one.  Without, every column may enter it, it is at
        least 1 on the used batches too, and the case kept has one
        (``K0Presentation._cases``).  A failed LP raises ``CertificateError``."""
        k = self._k
        entering = self.units if k._rays else range(len(self.columns))
        forced = {*self.units, *self._used}
        relation = [0] * len(self.columns)
        if self.units:
            classes = [self.columns[j].element for j in entering]
            point = _relation(k.coker, classes, [int(j in forced) for j in entering])
            if point is None:
                raise CertificateError("no relation negates the units of a case")
            for j, r in zip(entering, point):
                relation[j] = r
        return relation

    @cached_property
    def snf(self) -> SmithForm:
        """The Smith normal form of the lattice spanned by the units and the
        torsion moduli (``_torsion_lattice_columns``)."""
        coker = self._k.coker
        lattice = [_quotient_coords(self.columns[j].element) for j in self.units]
        lattice += _torsion_lattice_columns(coker)
        dim = len(coker.torsion_moduli) + coker.free_rank
        return smith_normal_form([[col[r] for col in lattice] for r in range(dim)])

    def face(self, at) -> list[int] | None:
        """The pointed columns that a representation of y, x minus the
        shift, can use, given each ray's value ``at`` y, or None when a ray
        is negative on y.  Every column is >= 0 under every ray, so a ray
        that is zero on y is zero on each term of a representation; since
        the rays span the dual of the columns' rational cone, the columns
        kept are exactly those of y's face."""
        if any(a < 0 for a in at):
            return None
        face = [row for row, a in zip(self.values, at) if a == 0]
        return [j for j in self.pointed if not any(row[j] for row in face)]


def _cone_program(coker: CokerPresentation, x: Element, classes):
    """The integer program "x is a sum of the ``classes``", laid out as the
    arguments of ``integer_feasibility``: one row per quotient coordinate
    (torsion, then free), and one count per class, below the class's
    order."""
    cols = [_quotient_coords(e) for e in classes]
    bounds: list[tuple[int | None, int | None]] = []
    for e in classes:
        order = coker.element_order(e)
        bounds.append((0, order - 1 if order is not None else None))
    equalities = [([col[r] for col in cols], rhs) for r, rhs in enumerate(_quotient_coords(x))]
    return len(cols), equalities, bounds


def _decode_witness(k: K0Presentation, columns, counts) -> MembershipWitness:
    """The witness of the sum of ``counts[j]`` times column j: base counts
    sorted by vertex, one use per family with a positive count, its target
    counts in the order of its targets."""
    base: dict[str, int] = {}
    uses: dict[tuple[str, str | None], int] = {}
    for col, c in zip(columns, counts):
        for w, n in col.terms if c else ():
            if col.emitter is None:
                base[w] = c
            else:
                # the emitter's term counts the uses, the others the targets
                key = (col.emitter, None if n > 0 else w)
                uses[key] = uses.get(key, 0) + abs(n) * c
    family_uses = []
    for fam in k.cone.families:
        e = fam.emitter
        if uses.get((e, None)):
            targets = tuple((w, uses[e, w]) for w, _ in fam.targets if uses.get((e, w)))
            family_uses.append(FamilyUse(e, uses[e, None], targets))
    return MembershipWitness(tuple(sorted(base.items())), tuple(family_uses))


def _relation(coker: CokerPresentation, classes, lower):
    """Counts n_i >= ``lower[i]`` with sum n_i * ``classes[i]`` = 0, or None.

    The torsion coordinates hold modulo their moduli, through one free
    multiplier per ``_torsion_lattice_columns`` column.  The rational
    relaxation is solved (``solve_lp`` re-checks a Farkas certificate) and
    a feasible point is scaled by the lcm of its denominators, multipliers
    included, so the relation holds in the torsion coordinates as well.
    """
    torsion = _torsion_lattice_columns(coker)
    cols = [_quotient_coords(e) for e in classes] + torsion
    dim = len(coker.torsion_moduli) + coker.free_rank
    rows = [constraint([col[r] for col in cols], EQ, 0) for r in range(dim)]
    bounds = [(lo, None) for lo in lower] + [(None, None)] * len(torsion)
    res = solve_lp(len(cols), *relaxation(rows, bounds))
    if not isinstance(res, Feasible):
        return None
    scale = lcm(*(q.denominator for q in res.point))
    return [int(q * scale) for q in res.point[: len(classes)]]


class _ProvenEmpty:
    """Every case was excluded by one of its rays or closed empty, so x has
    no decomposition into cone generators."""


def _modulo_lattice(snf: SmithForm, program):
    """``program``, a ``_cone_program``, with its equalities asked only
    modulo the lattice spanned by the columns of the m that ``snf``
    diagonalizes (u @ m @ v == s).  A residue r lies in that lattice
    exactly when each (u @ r)_i is a multiple of s's diagonal entry d_i (0
    beyond the rank).  So the rows are combined by u; a row with d_i == 1
    holds at every integer point and is dropped, and a row with d_i > 1
    gets a free column d_i, so that no coefficient the other variables
    determine is branched on.  A lattice of rank 0 leaves ``program`` as it
    is: no row operation ran, so u is the identity."""
    if not snf.rank:
        return program
    num_vars, equalities, bounds = program
    factors = snf.invariant_factors + (0,) * (len(snf.u) - snf.rank)
    free = [i for i, d in enumerate(factors) if d > 1]
    combined = mat_mul(snf.u, [[*row, rhs] for row, rhs in equalities])
    rows = [
        (row[:-1] + [d if f == i else 0 for f in free], row[-1])
        for i, (row, d) in enumerate(zip(combined, factors))
        if d != 1
    ]
    return num_vars + len(free), rows, bounds + [(None, None)] * len(free)


def _cone_search(
    k: K0Presentation, x: Element, at, budget: int
) -> Member | _ProvenEmpty | UnknownMembership:
    """Branch-and-bound search for a decomposition of x into cone generators,
    one case of ``K0Presentation._cases`` after another.

    In a case, y = x minus its shift must be a combination of its columns.
    A case is skipped when one of its rays is negative on y, and otherwise
    only the columns of y's face are kept (``_Case.face``).  The search
    runs over the kept columns that are not units, each case with the
    whole budget, and asks the equalities only modulo the lattice that the
    units and the torsion moduli span (``_modulo_lattice``).  The rest is
    that lattice's combination of units, each coefficient of a unit of
    finite order taken mod that order; the negative ones are paid with t
    copies of the case's relation, for the least t that leaves every count
    nonnegative.  The searched columns span a pointed cone, so the search
    region is bounded and the search ends with a definite answer given
    enough budget.  Without extreme traces no column is searched, and x is
    read off the Smith normal form alone.

    ``at`` holds each of the graph's rays' values on x; a case with no
    shift and the graph's own rays reads y's ray values there, and every
    other case lifts its own y.
    """
    coker = k.coker
    for case in k._cases:
        if case.shift.is_zero() and case.rays is k._rays:
            rest, values = x, at
        else:
            rest = coker.subtract(x, case.shift)
            lift_rest = coker.lift(rest)
            values = [_dot(h, lift_rest) for h in case.rays]
        kept = case.face(values)
        if kept is None:
            continue
        classes = [case.columns[j].element for j in kept]
        program = _modulo_lattice(case.snf, _cone_program(coker, rest, classes))
        res = integer_feasibility(*program, budget=budget)
        if isinstance(res, IntUnknown):
            return UnknownMembership(budget_spent=res.nodes_explored)
        if isinstance(res, IntInfeasible):
            continue
        counts = [0] * len(case.columns)
        left = _quotient_coords(rest)
        for j, c, e in zip(kept, res.point, classes):
            counts[j] = c
            left = [a - c * b for a, b in zip(left, _quotient_coords(e))]
        # m @ (v @ w) == left for w = (u @ left) / diagonal of s
        w = [a // d for a, d in zip(mat_vec(case.snf.u, left), case.snf.invariant_factors)]
        for j, row in zip(case.units, case.snf.v):
            c, order = _dot(row, w), coker.element_order(case.columns[j].element)
            counts[j] = c if order is None else c % order
        t = max([0] + [-(counts[j] // case.relation[j]) for j in case.units])
        counts = [c + t * r for c, r in zip(counts, case.relation)]
        for j in case.offset:
            counts[j] += 1
        return Member(witness=_decode_witness(k, case.columns, counts))
    return _ProvenEmpty()


def cone_membership(k: K0Presentation, x: Element, budget: int = DEFAULT_BUDGET):
    """Decide whether x lies in the positive cone.

    Member witnesses and NotMember functionals are re-verified exactly before
    being returned (a failed witness raises CertificateError); verdicts are
    cached on the presentation, and the cache answers a repeated query.  A
    cached Unknown is recomputed when a later call offers a larger budget.
    Each torsion entry of x must lie in ``[0, d)`` for its modulus d, as
    ``CokerPresentation`` writes them; otherwise ValueError.
    """
    k.coker._check(x)
    moduli = k.coker.torsion_moduli
    if not all(0 <= r < d for r, d in zip(x.torsion, moduli)):
        raise ValueError(f"torsion entries {x.torsion} are not reduced modulo {moduli}")
    if budget < 1:
        raise ValueError("budget must be positive")
    cached = k._membership_cache.get(x)
    if cached is not None:
        verdict, decided_with = cached
        if not isinstance(verdict, UnknownMembership) or budget <= decided_with:
            return verdict
    verdict = _decide_membership(k, x, budget)
    if isinstance(verdict, Member) and not (
        witness_is_valid(k, verdict.witness) and evaluate_witness(k, verdict.witness) == x
    ):
        raise CertificateError(f"membership witness does not evaluate to {x}")
    k._membership_cache[x] = (verdict, budget)
    return verdict


def _decide_membership(k: K0Presentation, x: Element, budget: int):
    if x.is_zero():
        return Member(witness=MembershipWitness(base_counts=(), family_uses=()))
    lift = k.coker.lift(x)
    at = [_dot(ray, lift) for ray in k._rays]
    for ray, a in zip(k._rays, at):
        if a < 0:
            phi = tuple(map(Fraction, ray))
            if not functional_certifies(k, phi, x):
                raise CertificateError(f"separating functional does not certify {x}")
            return NotMember(functional=phi)
    verdict = _cone_search(k, x, at, budget)
    if isinstance(verdict, _ProvenEmpty):
        # a certified-empty search without a separating functional still
        # reports Unknown: NotMember promises a functional, and none exists
        return UnknownMembership(budget_spent=0)
    return verdict


# ---------------------------------------------------------------------------
# order properties


class ThreeValued(Enum):
    YES = "yes"
    NO = "no"


@dataclass(frozen=True)
class OrderProperties:
    cone_is_everything: ThreeValued
    cone_pointed: ThreeValued
    pointed_witness: Element | None = None


def _opposite_pair(k: K0Presentation, plus, minus) -> Element:
    """x, from a witness of x and one of -x; raises ``CertificateError``
    unless both witnesses are valid and x is nonzero."""
    x = evaluate_witness(k, plus)
    if x.is_zero() or not (
        witness_is_valid(k, plus)
        and witness_is_valid(k, minus)
        and evaluate_witness(k, minus) == k.coker.negate(x)
    ):
        raise CertificateError("the witnesses of x and -x do not check")
    return x


def order_properties(k: K0Presentation) -> OrderProperties:
    """Whether the cone is the whole group and whether it is pointed, read
    off the cases of ``K0Presentation._cases`` with no membership search.
    ``pointed_witness`` is an x != 0 with x and -x in the cone when the cone
    is not pointed.

    The cone is the whole group exactly when there is no extreme trace.  It
    is not pointed exactly when some case has every batch of its offset
    among its units, and a unit g that is a nonzero vertex class or batch.
    Then x = g, and -x is twice the case's relation minus g: the relation
    is at least 1 on g and on every used batch, so each count stays
    nonnegative and every used family is used.  Conversely,
    representations of x != 0 and -x in two cases add up to a relation in
    the case that uses the families of both, shift included; every ray of
    that case is >= 0 on each term, so each term is a unit, and a nonzero
    term of x, or [u] for a term -[u], is a g.  Without families there is
    one case, and the cone is pointed exactly when it has no unit.  The
    zero group has no ray and no unit, so it runs no LP."""
    # an extreme trace h_b is 1 on [b], so -[b] is outside the cone; with
    # none, the rays are certified complete, so the only trace is 0
    everything = ThreeValued.NO if k._rays else ThreeValued.YES
    for case in k._cases:
        if not set(case.offset) <= set(case.units):
            continue
        for g in case.units:
            col = case.columns[g]
            # a column -[u] is no cone element on its own
            if col.terms[0][1] > 0 and not col.element.is_zero():
                minus = [2 * r - (j == g) for j, r in enumerate(case.relation)]
                plus = _decode_witness(k, [col], [1])
                x = _opposite_pair(k, plus, _decode_witness(k, case.columns, minus))
                return OrderProperties(everything, ThreeValued.NO, x)
    return OrderProperties(everything, ThreeValued.YES)


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class GroupIso:
    free_map: tuple[tuple[int, ...], ...]
    torsion_map: tuple[tuple[int, ...], ...]
    mixed_map: tuple[tuple[int, ...], ...]  # free generators -> torsion parts


@dataclass(frozen=True)
class NotIsomorphic:
    reason: str


@dataclass(frozen=True)
class IsomorphicCandidate:
    iso: GroupIso
    inverse: GroupIso
    verified_bound: int


@dataclass(frozen=True)
class UnknownComparison:
    budget_spent: int


ComparisonVerdict = NotIsomorphic | IsomorphicCandidate | UnknownComparison

VERIFIED_BOUND = 2
# node budget for each membership query made while checking a candidate map;
# stalls then surface as Unknown rejections instead of multi-minute searches
COMPARE_MEMBERSHIP_BUDGET = 2000


def apply_iso(moduli: tuple[int, ...], iso: GroupIso, e: Element) -> Element:
    nfree = len(iso.free_map)
    free = tuple(
        sum(iso.free_map[i][j] * e.free[j] for j in range(nfree)) for i in range(nfree)
    )
    torsion = tuple(
        (
            sum(iso.torsion_map[i][j] * e.torsion[j] for j in range(len(moduli)))
            + sum(iso.mixed_map[i][l] * e.free[l] for l in range(nfree))
        )
        % moduli[i]
        for i in range(len(moduli))
    )
    return Element(torsion=torsion, free=free)


def _invert_iso(moduli, iso: GroupIso) -> GroupIso | None:
    """The inverse of ``iso``, or None when it is not invertible.  Over the
    (free, torsion) coordinates ``iso`` is [[F, 0], [S, T]] with torsion
    rows mod the moduli, so inverse column j solves
    [[F, 0, 0], [S, T, diag(moduli)]] x = e_j, reduced mod the moduli."""
    nfree, n = len(iso.free_map), len(moduli)
    mat = [list(row) + [0] * (2 * n) for row in iso.free_map]
    mat += [
        [*iso.mixed_map[i], *iso.torsion_map[i], *(moduli[i] if j == i else 0 for j in range(n))]
        for i in range(n)
    ]
    cols = []
    for j in range(nfree + n):
        sol = solve_diophantine(mat, [int(r == j) for r in range(nfree + n)])
        if sol is None:
            return None
        cols.append(sol[:nfree] + [sol[nfree + i] % moduli[i] for i in range(n)])
    return GroupIso(
        free_map=tuple(tuple(cols[l][i] for l in range(nfree)) for i in range(nfree)),
        torsion_map=tuple(tuple(cols[nfree + j][nfree + i] for j in range(n)) for i in range(n)),
        mixed_map=tuple(tuple(cols[l][nfree + i] for l in range(nfree)) for i in range(n)),
    )


def _free_map_options(nfree: int):
    """Unimodular matrices in shells of growing max-entry, each shell in
    lexicographic order of its entries; finite iff nfree <= 1.

    A shell is built row by row.  A row that is linearly dependent on the
    rows above it is skipped, since no choice of the rows below makes the
    matrix invertible, so no time goes to the singular matrices behind a
    dependent prefix.  The last row is kept when its dot product with the
    cofactors of the rows above, the determinant, is 1 or -1."""
    if nfree == 0:
        yield ()
        return
    if nfree == 1:
        yield ((1,),)
        yield ((-1,),)
        return
    bound = 1
    while True:
        rows = list(product(range(-bound, bound + 1), repeat=nfree))

        def extend(prefix, echelon):
            if len(prefix) == nfree - 1:
                cofactors = [
                    (-1) ** (nfree - 1 + j)
                    * determinant([list(r[:j] + r[j + 1 :]) for r in prefix])
                    for j in range(nfree)
                ]
                if gcd(*cofactors) != 1:  # then no last row makes it 1 or -1
                    return
                on_shell = any(bound in r or -bound in r for r in prefix)
                for row in rows:
                    if sum(c * x for c, x in zip(cofactors, row)) in (1, -1) and (
                        on_shell or bound in row or -bound in row
                    ):
                        yield (*prefix, row)
                return
            for row in rows:
                reduced = list(row)
                for p, b in echelon:
                    if reduced[p]:
                        reduced = [b[p] * x - reduced[p] * y for x, y in zip(reduced, b)]
                pivot = next((j for j, x in enumerate(reduced) if x), None)
                if pivot is not None:
                    yield from extend((*prefix, row), echelon + [(pivot, reduced)])

        yield from extend((), [])
        bound += 1


def _torsion_map_options(moduli):
    n = len(moduli)
    if n == 0:
        yield ()
        return
    entry_options = []
    for i in range(n):
        for j in range(n):
            step = moduli[i] // gcd(moduli[i], moduli[j])
            entry_options.append(range(0, moduli[i], step))
    for flat in product(*entry_options):
        yield tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def _mixed_map_options(moduli, nfree):
    n = len(moduli)
    if n == 0 or nfree == 0:
        yield tuple(() for _ in range(n))
        return
    entry_options = [range(moduli[i]) for i in range(n) for _ in range(nfree)]
    for flat in product(*entry_options):
        yield tuple(tuple(flat[i * nfree : (i + 1) * nfree]) for i in range(n))


def _enumerate_candidates(moduli, nfree, limit):
    """At most ``limit`` candidate block maps, plus a completeness flag.

    The space is finite exactly when nfree <= 1; even then the torsion and
    mixed blocks can explode combinatorially, so enumeration stops at the
    limit and reports the cutoff.
    """
    out: list[GroupIso] = []
    for fmap in _free_map_options(nfree):
        for tmap in _torsion_map_options(moduli):
            for smap in _mixed_map_options(moduli, nfree):
                if len(out) >= limit:
                    return out, False
                out.append(GroupIso(free_map=fmap, torsion_map=tmap, mixed_map=smap))
    # only a finite generator falls through, so the space was fully listed
    return out, True


def _cone_generator_elements(k: K0Presentation, bound: int) -> list[Element]:
    gens = [((v, 1),) for v in k.graph.vertices]
    for fam in k.cone.families:
        ranges = []
        for w, cap in fam.targets:
            top = bound if cap is None else min(cap, bound)
            ranges.append(range(top + 1))
        for counts in product(*ranges):
            total = sum(counts)
            if total == 0 or total > bound:
                continue
            gens.append(((fam.emitter, 1), *((w, -c) for (w, _), c in zip(fam.targets, counts))))
    return [k.coker._element(_class_of(k, terms)) for terms in gens]


def compare_k0(
    k1: K0Presentation,
    k2: K0Presentation,
    use_order_unit: bool = False,
    budget: int = 2000,
):
    """Search for an isomorphism of ordered groups (optionally unit-preserving).

    The stages compare the group invariants, the numbers of extreme traces
    and pointedness (``order_properties``), then enumerate group
    isomorphisms under the budget and check each for cone preservation in
    both directions on base generators and family elements with total
    parameter <= the verified bound.  NotIsomorphic is only reported on a
    certified obstruction or a complete exhaustion with every rejection
    certain.
    """
    inv1 = k1.group_invariants()
    inv2 = k2.group_invariants()
    if inv1 != inv2:
        return NotIsomorphic(
            reason=f"group invariants differ: {inv1} vs {inv2}"
        )
    if len(k1._rays) != len(k2._rays):
        # the extreme traces are the extreme rays of Hom+(K0, R), an
        # invariant of the ordered group, and trace_rays certifies them all
        return NotIsomorphic(
            reason=f"extreme trace counts differ: {len(k1._rays)} vs {len(k2._rays)}"
        )
    # the cone is the whole group exactly when there is no extreme trace, so
    # of the order flags only pointedness is left to compare
    if order_properties(k1).cone_pointed is not order_properties(k2).cone_pointed:
        return NotIsomorphic(reason="certified pointedness flags differ")

    nfree, moduli = inv1
    gens1 = _cone_generator_elements(k1, VERIFIED_BOUND)
    gens2 = _cone_generator_elements(k2, VERIFIED_BOUND)
    # the vertex classes, gens1's first entries, generate the group
    canon = gens1[: len(k1.graph.vertices)]

    candidates, complete = _enumerate_candidates(moduli, nfree, budget)
    uncertain = False
    for iso in candidates:
        inverse = _invert_iso(moduli, iso)
        if inverse is None:
            continue
        if any(
            apply_iso(moduli, inverse, apply_iso(moduli, iso, g)) != g for g in canon
        ) or any(
            apply_iso(moduli, iso, apply_iso(moduli, inverse, g)) != g for g in canon
        ):
            continue
        if use_order_unit and apply_iso(moduli, iso, k1.order_unit) != k2.order_unit:
            continue
        # the images of k1's generators in k2's cone, then back, stopping
        # at the first one that is not a Member
        verdicts = (
            cone_membership(target, apply_iso(moduli, m, e), budget=COMPARE_MEMBERSHIP_BUDGET)
            for target, m, gens in ((k2, iso, gens1), (k1, inverse, gens2))
            for e in gens
        )
        rejection = next((v for v in verdicts if not isinstance(v, Member)), None)
        if rejection is None:
            return IsomorphicCandidate(iso=iso, inverse=inverse, verified_bound=VERIFIED_BOUND)
        uncertain = uncertain or isinstance(rejection, UnknownMembership)
    if complete and not uncertain:
        kind = "unit-preserving ordered-group" if use_order_unit else "ordered-group"
        return NotIsomorphic(
            reason=f"no {kind} isomorphism exists (candidate space exhausted)"
        )
    return UnknownComparison(budget_spent=len(candidates))


# ---------------------------------------------------------------------------
# tail-extension consistency oracle


@dataclass(frozen=True)
class ConsistencyReport:
    groups_match: bool
    generator_correspondence_ok: bool
    cone_prefix_ok: bool


def verify_desingularization_consistency(g: Graph, depth: int) -> ConsistencyReport:
    """Cross-check the direct presentation against the row-finite presentation
    of the tail extension at finite depth (Drinen-Tomforde, Rocky Mountain
    J. Math. 35, 2005).

    A vertex u of the extension maps to image(u), a sparse vector of g with
    at most depth + 1 entries: e_u for a vertex of g, and e_b minus the
    first j listed targets of b for the j-th tail vertex of b.  Classes are
    summed from sparse classes and section rows; nothing n-wide is built.
    ``generator_correspondence_ok`` asks that every relation of the
    extension, read off its edges, map to 0 in K0(g), so that image induces
    a homomorphism f, and that f, read through the extension's section,
    send the class of each vertex of g to its class in K0(g).  Given the
    first, the second shows that the lift is a section, and it makes f
    onto, since the vertex classes generate K0(g).  With ``groups_match``
    (equal invariants) f is then an isomorphism: finitely generated abelian
    groups are Hopfian.  ``cone_prefix_ok`` asks that (a) each tail's image
    be a cone element of g by a family witness, and f send the tail's class
    to it, and (b) each family element supported on the first ``depth``
    listed targets be a cone element of the extension, by the witness that
    unwinds the tail relations.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    k1 = compute_k0(g)
    extended, tails = desingularize_with_tails(g, depth, sinks=True, infinite_emitters=True)
    k2 = compute_k0_row_finite(extended)
    c1, c2 = k1.coker, k2.coker
    groups_match = k1.group_invariants() == k2.group_invariants()
    listings = {f.emitter: emitter_edge_listing(g, f.emitter, depth) for f in k1.cone.families}

    image: dict[str, dict[int, int]] = {}
    for u in extended.vertices:
        base, j = tails.get(u, (u, 0))
        vec = Counter({k1.ambient_index(base): 1})
        vec.subtract(k1.ambient_index(w) for w in listings.get(base, [])[:j])
        image[u] = {i: c for i, c in vec.items() if c}

    def class1(terms) -> dict[int, int]:
        return _combination(c1.classes, terms, c1.torsion_moduli)

    # well-definedness: every relation of the extended graph maps to zero
    well_defined = True
    for u in extended.vertices:
        if classify_vertex(extended, u) is VertexClass.REGULAR:
            relation = dict(image[u])
            for w, m in extended.out_edges(u):
                _axpy(relation, image[w], -m)
            if class1(relation.items()):
                well_defined = False
                break

    # f on the extension's coordinates: the class of each section row's image
    section_images = [
        class1((i, x * y) for j, x in row.items() for i, y in image[k2.ambient_order[j]].items())
        for row in c2.section
    ]

    def induced(u: str) -> dict[int, int]:
        """f of the class of the extension's vertex u."""
        terms = c2.classes[k2.ambient_index(u)].items()
        return _combination(section_images, terms, c1.torsion_moduli)

    generator_correspondence_ok = well_defined and all(
        induced(v) == c1.classes[k1.ambient_index(v)] for v in g.vertices
    )

    cone_prefix_ok = True
    # (a) every tail class is a member of the direct cone
    for tail, (base, j) in tails.items():
        witness = MembershipWitness(base_counts=((base, 1),), family_uses=())
        if base in listings:
            counts = tuple(sorted(Counter(listings[base][:j]).items()))
            witness = MembershipWitness(base_counts=(), family_uses=(FamilyUse(base, 1, counts),))
        target = class1(image[tail].items())
        if not witness_is_valid(k1, witness) or _class_of(k1, _witness_terms(witness)) != target:
            cone_prefix_ok = False
        if generator_correspondence_ok and induced(tail) != target:
            cone_prefix_ok = False
    # (b) every family element supported on the listing prefix is a member of
    # the extended cone: unwind the tail relations into an explicit witness
    last_tails = {b: t for t, (b, j) in tails.items() if j == depth}
    for base, listing in listings.items():
        distinct = Counter(listing[:depth])
        names = sorted(distinct)
        for counts in product(*(range(distinct[w] + 1) for w in names)):
            if not any(counts):
                continue
            # the element [base] - sum of chosen targets, in the extended group
            chosen = list(zip(names, counts))
            element = _class_of(k2, [(base, 1), *((w, -c) for w, c in chosen)])
            leftover = [(last_tails[base], 1), *((w, distinct[w] - c) for w, c in chosen)]
            witness = MembershipWitness(tuple(sorted((w, c) for w, c in leftover if c)), ())
            if not witness_is_valid(k2, witness) or _class_of(k2, leftover) != element:
                cone_prefix_ok = False

    return ConsistencyReport(groups_match, generator_correspondence_ok, cone_prefix_ok)
