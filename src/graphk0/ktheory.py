"""The ordered K0 group of a graph algebra.

The group is the cokernel of the vertex relation matrix (one column per
regular vertex), presented with explicit torsion moduli and free rank.  The
positive cone is the monoid generated by the vertex classes together with,
for every infinite emitter, the family of differences "emitter class minus a
finite batch of target classes" (kept intensional via per-target capacities).

Membership in the cone is decided three-valued: Member carries a witness,
NotMember a rational separating functional on ambient coordinates, and
Unknown the spent search budget, 0 when the search closed empty but no
functional separates.  The functionals nonnegative on the cone
are the unnormalised graph traces (Tomforde, arXiv math/0204095), so the
cone's dual is described once, by ``trace_cone`` over the vertices in
declaration order, and ``nonnegative_on_cone`` checks a point against its
rows.  That cone is simplicial: ``trace_rays`` reads its extreme rays off
the strongly connected components and certifies that they span it.  Every
reader of the dual uses those rays: the separating functional is the first
one negative on the query, the face step keeps the generators on which
every ray that is zero on the query vanishes, and the cone is the whole
group exactly when there is none.  A query that no cached verdict (the one
reuse path: a repeat of the same query) or extreme trace settles goes to
the face step and then to one search (``_cone_search``): ``_cone_program``
lays out the cone's integer program over the face's vertex generators
(counts bounded by their orders), each family's emitter and target counts
with the capacity rows, then lattice columns; branch and bound solves it,
and ``_decode_witness`` reads the point back as a witness.  Without
families or without rays, the units (the generators on which every ray
vanishes) become lattice columns, once per presentation.  The same program
with x = 0, some columns forced to at least 1 and no budget gives
relations (``_relation``): its rational relaxation is either infeasible,
with a Farkas certificate, or scales to a relation.  One relation with
every unit in it pays every negative unit coefficient
(``_units_witness``), and pointedness (``order_properties``) is the
absence of units, or with families and rays forces in each generator on
which every ray vanishes.

``cone_membership`` is the one gate for certificates: it re-checks every new
witness before caching it and raises ``CertificateError`` if the check
fails, and a separating functional that fails ``functional_certifies``
raises it too, as does a ray list that fails the re-check of
``trace_rays``.  These checks are plain code, so they also run under
``python -O``.  Comparison of two presentations compares the group
invariants, the number of extreme traces and the order flags, then
enumerates group isomorphisms under a budget and checks cone preservation
through the membership machinery.
"""

from __future__ import annotations

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
    _components,
    _weighted_adjacency,
    block_decomposition,
    classify_vertex,
    desingularize_with_tails,
    emitter_edge_listing,
)
from .intfeas import IntInfeasible, IntUnknown, IntWitness, integer_feasibility, relaxation
from .linalg import (
    CertificateError,
    CokerPresentation,
    Element,
    Matrix,
    SmithForm,
    cokernel,
    determinant,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_diophantine,
)
from .lp import EQ, GE, LE, Constraint, Feasible, check_point, constraint, solve_lp

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
    """Cokernel presentation plus per-vertex classes, cone data and the unit."""

    def __init__(
        self,
        graph: Graph,
        coker: CokerPresentation,
        ambient_order: tuple[str, ...],
        delta: dict[str, Element],
        cone: ConeSpec,
        order_unit: Element,
        relation_matrix: Matrix,
    ) -> None:
        self.graph = graph
        self.coker = coker
        self.ambient_order = ambient_order
        self.delta = delta
        self.cone = cone
        self.order_unit = order_unit
        self.relation_matrix = relation_matrix
        self._ambient_index = {v: i for i, v in enumerate(ambient_order)}
        self._membership_cache: dict[Element, tuple[object, int]] = {}

    @property
    def row_finite_orthant(self) -> bool:
        """True when no vertex is an infinite emitter: the cone is then the
        image of the nonnegative orthant."""
        return not self.cone.families

    def ambient_index(self, v: str) -> int:
        return self._ambient_index[v]

    def group_invariants(self) -> tuple[int, tuple[int, ...]]:
        return self.coker.group_invariants()

    @cached_property
    def _trace_rows(self) -> list[Constraint]:
        return trace_cone(self.graph).constraints()

    @cached_property
    def _rays(self) -> list[tuple[int, ...]]:
        """The extreme graph traces (``trace_rays``) in ambient order."""
        return [_to_ambient(self, h) for h in trace_rays(self.graph)]

    @cached_property
    def _lineality(self):
        """The units of a cone without families or without extreme traces,
        one relation that negates them all, and a lattice basis for a search
        over the rest.

        Without families the cone's rational cone is dual to the extreme
        traces, and a trace's value on [v] is its value at v, so [v] is a
        unit (-[v] is in the cone) exactly when every ray vanishes at v, and
        then minus it is a combination of units alone.  Without rays every
        nonzero class is a unit.  The relation is a ``_relation`` with every
        unit column at least 1 in the first case of ``_split_cases`` that
        has one: the sum of one relation per unit is one, in the case that
        uses every family any of them uses.  Returns the units
        as ``(vertex, class)``, the relation as a witness (None, with no LP
        run, when there is no unit), and the Smith normal form of the matrix
        whose columns are the quotient coordinates of the units, then the
        torsion moduli (``_torsion_lattice_columns``).
        """
        gens, fams = _cone_columns(self)
        rays = self._rays
        units = [(v, e) for v, e in gens if not any(h[self.ambient_index(v)] for h in rays)]
        torsion = _torsion_lattice_columns(self.coker)
        relation = None
        if units:
            for case in _split_cases(fams):
                point = _relation(self.coker, units, case, torsion, range(len(units)))
                if point is not None:
                    relation = _decode_witness(units, case, point)
                    break
            else:
                raise CertificateError("no relation negates the units, yet no ray is positive")
        lattice = [_quotient_coords(e) for _, e in units] + torsion
        dim = len(self.coker.torsion_moduli) + self.coker.free_rank
        snf = smith_normal_form([[col[r] for col in lattice] for r in range(dim)])
        return units, relation, snf


def relation_matrix(g: Graph) -> tuple[Matrix, tuple[str, ...]]:
    """The (regular+singular) x regular matrix whose column for a regular
    vertex v encodes the relation [v] = sum_w A(v, w) [w]; rows are indexed
    by all vertices, regular ones first."""
    bd = block_decomposition(g)
    order = bd.regular + bd.singular
    pos = {v: i for i, v in enumerate(order)}
    mat = [[0] * len(bd.regular) for _ in order]
    for col, v in enumerate(bd.regular):
        # a regular vertex has only finite multiplicities
        for w, a in g.out_edges(v):
            mat[pos[w]][col] = a
        mat[pos[v]][col] -= 1
    return mat, order


def compute_k0(g: Graph) -> K0Presentation:
    """Ordered K0 presentation of an arbitrary finitely presented graph."""
    mat, order = relation_matrix(g)
    coker = cokernel(mat)
    pos = {v: i for i, v in enumerate(order)}
    delta = {v: coker.basis_class(pos[v]) for v in g.vertices}
    unit = coker.project([1] * len(order))
    families = []
    for v in g.vertices:
        if classify_vertex(g, v) is VertexClass.INFINITE_EMITTER:
            targets = tuple(
                (w, None if m is INF else m) for w, m in g.out_edges(v)
            )
            families.append(Family(emitter=v, targets=targets))
    cone = ConeSpec(families=tuple(families))
    return K0Presentation(
        graph=g,
        coker=coker,
        ambient_order=order,
        delta=delta,
        cone=cone,
        order_unit=unit,
        relation_matrix=mat,
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
    """Undecided after ``budget_spent`` branch-and-bound nodes.  With 0 the
    search closed empty, so x is outside the cone, but no extreme trace is
    negative on x, so no separating functional certifies NotMember; a
    larger budget gives the same verdict."""

    budget_spent: int


MembershipVerdict = Member | NotMember | UnknownMembership


def evaluate_witness(k: K0Presentation, witness: MembershipWitness) -> Element:
    total = k.coker.zero()
    for v, c in witness.base_counts:
        total = k.coker.add(total, k.coker.scale(c, k.delta[v]))
    for use in witness.family_uses:
        total = k.coker.add(total, k.coker.scale(use.count, k.delta[use.emitter]))
        for w, c in use.target_counts:
            total = k.coker.subtract(total, k.coker.scale(c, k.delta[w]))
    return total


def witness_is_valid(k: K0Presentation, witness: MembershipWitness) -> bool:
    if any(c < 0 for _, c in witness.base_counts):
        return False
    caps = {
        fam.emitter: dict(fam.targets) for fam in k.cone.families
    }
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


@dataclass(frozen=True)
class TracePolytope:
    """Exact description of a set of graph traces.

    Variables are the vertices in declaration order, all nonnegative; rows
    are ``(coefficients, rhs)``, equalities and then <=-inequalities.
    ``forced_zero`` lists the vertices pinned to zero because they receive
    infinitely many edges from one emitter.
    """

    variables: tuple[str, ...]
    equalities: tuple[tuple[tuple[int, ...], int], ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...]
    forced_zero: frozenset[str]

    def constraints(self) -> list[Constraint]:
        """The rows as LP constraints, equalities first."""
        return [constraint(row, EQ, rhs) for row, rhs in self.equalities] + [
            constraint(row, LE, rhs) for row, rhs in self.inequalities
        ]


def trace_cone(g: Graph) -> TracePolytope:
    """The cone of unnormalised graph traces: t(v) = sum A(v, w) t(w) at
    every regular vertex, then t(w) = 0 for every target an emitter reaches
    infinitely often, and t(e) >= sum m t(w) over each emitter's finite
    edges.  These are the functionals nonnegative on the positive cone."""
    names = g.vertices
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    equalities: list[tuple[tuple[int, ...], int]] = []
    inequalities: list[tuple[tuple[int, ...], int]] = []
    forced: set[str] = set()

    for v in names:
        cls = classify_vertex(g, v)
        if cls is VertexClass.REGULAR:
            row = [0] * n
            row[idx[v]] += 1
            for w, m in g.out_edges(v):
                row[idx[w]] -= m
            equalities.append((tuple(row), 0))
        elif cls is VertexClass.INFINITE_EMITTER:
            row = [0] * n
            row[idx[v]] -= 1
            for w, m in g.out_edges(v):
                if m is INF:
                    forced.add(w)
                else:
                    row[idx[w]] += m
            inequalities.append((tuple(row), 0))

    for w in sorted(forced, key=idx.get):
        row = [0] * n
        row[idx[w]] = 1
        equalities.append((tuple(row), 0))

    return TracePolytope(
        variables=names,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        forced_zero=frozenset(forced),
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
    element (an infeasible LP, whose Farkas certificate ``solve_lp``
    re-checks).  Then t - sum c_b(t) * h_b satisfies all of those rows for
    every trace t, so it is zero.
    """
    cone = trace_cone(g)
    coefficients, zero, rays = _component_rays(g, cone)
    _check_rays(cone, coefficients, zero, rays)
    return rays


def _component_rays(g: Graph, cone: TracePolytope):
    """The coefficient row c_b of each boundary element, in the order of
    their first vertices, the vertex indices of Z, and the rays h_b."""
    names = g.vertices
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    adj = _weighted_adjacency(g)
    comp = _components(adj)
    inner = [[k for w, k in out if comp[w] == comp[v]] for v, out in enumerate(adj)]
    cyclic = {comp[v] for v in range(n) if inner[v]}
    unit = cyclic - {comp[v] for v in range(n) if inner[v] != [1]}
    seeds = [idx[w] for w in cone.forced_zero]
    seeds += [v for v in range(n) if comp[v] in cyclic - unit]
    seeds += [w for v in range(n) if comp[v] in unit for w, _ in adj[v] if comp[w] != comp[v]]
    zero = set(seeds)
    while seeds:
        for w, _ in adj[seeds.pop()]:
            if w not in zero:
                zero.add(w)
                seeds.append(w)

    edges = [[(idx[w], m) for w, m in g.out_edges(v) if m is not INF] for v in names]
    coefficients: list[tuple[int, ...]] = []
    members: list[set[int]] = []
    seen: set[int] = set()
    for v in range(n):
        if v in zero or comp[v] in seen:
            continue
        row = [0] * n
        if comp[v] in cyclic:
            seen.add(comp[v])
            members.append({w for w in range(n) if comp[w] == comp[v]})
        elif classify_vertex(g, names[v]) is not VertexClass.REGULAR:
            members.append({v})
            for w, m in edges[v]:
                row[w] -= m
        else:
            continue
        row[v] += 1
        coefficients.append(tuple(row))

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
    """True when rows . t = 0 forces t = 0 by substitution alone: some row
    has one unknown left, which is then zero, until none is left."""
    left = [{j for j, c in enumerate(row) if c} for row in rows]
    uses: list[list[int]] = [[] for _ in range(n)]
    for i, unknowns in enumerate(left):
        for j in unknowns:
            uses[j].append(i)
    ready = [i for i, unknowns in enumerate(left) if len(unknowns) == 1]
    solved = 0
    while ready:
        unknowns = left[ready.pop()]
        if len(unknowns) != 1:
            continue
        j = unknowns.pop()
        solved += 1
        for i in uses[j]:
            left[i].discard(j)
            if len(left[i]) == 1:
                ready.append(i)
    return solved == n


def _check_rays(cone: TracePolytope, coefficients, zero, rays) -> None:
    """The re-check of ``trace_rays``; raises ``CertificateError``."""
    n = len(cone.variables)
    rows = cone.constraints()
    if len(rays) != len(coefficients):
        raise CertificateError("the boundary elements and the rays differ in number")
    for i, h in enumerate(rays):
        if not check_point(n, rows, [True] * n, h):
            raise CertificateError("a computed ray is not a graph trace")
        for j, c in enumerate(coefficients):
            if _dot(c, h) != int(i == j):
                raise CertificateError("the ray coefficients are not dual to the rays")
    units = [tuple(int(j == z) for j in range(n)) for z in zero]
    slacks = [tuple(-c for c in row) for row, _ in cone.inequalities]
    equalities = [row for row, _ in cone.equalities]
    if not _solvable_by_substitution(n, equalities + slacks + units + coefficients):
        raise CertificateError("the rays do not determine every graph trace")
    boundary = set(coefficients)
    positive = [
        sum(col) for col in zip(*units, *(s for s in slacks if s not in boundary), (0,) * n)
    ]
    if any(positive) and isinstance(
        solve_lp(n, [*rows, constraint(positive, GE, 1)]), Feasible
    ):
        raise CertificateError("a graph trace is positive where every ray vanishes")


def _to_declaration(k: K0Presentation, phi) -> list:
    """An ambient-order vector reordered to the graph's vertex order."""
    return [phi[k.ambient_index(v)] for v in k.graph.vertices]


def _to_ambient(k: K0Presentation, values) -> tuple:
    """A vertex-order vector reordered to ambient order."""
    pos = {v: i for i, v in enumerate(k.graph.vertices)}
    return tuple(values[pos[v]] for v in k.ambient_order)


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


def _single(v: str) -> MembershipWitness:
    """The witness of the vertex class [v]."""
    return MembershipWitness(base_counts=((v, 1),), family_uses=())


def _combine(terms) -> MembershipWitness:
    """The witness of the sum of c * w over the pairs (c, w) in ``terms``,
    whose summed counts are nonnegative: base counts sorted by vertex, one
    use per emitter."""
    base: dict[str, int] = {}
    uses: dict[str, tuple[list[int], dict[str, int]]] = {}
    for c, w in terms:
        for v, n in w.base_counts:
            base[v] = base.get(v, 0) + c * n
        for use in w.family_uses:
            count, targets = uses.setdefault(use.emitter, ([0], {}))
            count[0] += c * use.count
            for t, n in use.target_counts:
                targets[t] = targets.get(t, 0) + c * n
    return MembershipWitness(
        base_counts=tuple(sorted((v, n) for v, n in base.items() if n)),
        family_uses=tuple(
            FamilyUse(e, count, tuple((t, n) for t, n in targets.items() if n))
            for e, ([count], targets) in uses.items()
            if count
        ),
    )


def _quotient_coords(e: Element) -> list[int]:
    return [*e.torsion, *e.free]


def _torsion_lattice_columns(coker: CokerPresentation) -> list[list[int]]:
    """Columns spanning the representative ambiguity of torsion residues."""
    dim = len(coker.torsion_moduli) + coker.free_rank
    return [
        [-coker.torsion_moduli[i] if r == i else 0 for r in range(dim)]
        for i in range(len(coker.torsion_moduli))
    ]


def _cone_program(coker: CokerPresentation, x: Element, gens, fams, lattice):
    """The integer program "x is a sum of cone generators plus a lattice
    combination", laid out as the arguments of ``integer_feasibility``.

    Rows are the quotient coordinates (torsion, then free).  Columns are one
    count per ``(vertex, class)`` in ``gens``, below the class's order; then
    for each ``((emitter, class, targets), lower)`` in ``fams`` the emitter
    count t, at least ``lower``, followed by one count m per
    ``(vertex, capacity, class)`` target, with the row m - cap * t <= 0 when
    the capacity is finite; last one free coefficient per lattice column.
    """
    cols: list[list[int]] = []
    bounds: list[tuple[int | None, int | None]] = []
    caps = []
    for _, e in gens:
        order = coker.element_order(e)
        cols.append(_quotient_coords(e))
        bounds.append((0, order - 1 if order is not None else None))
    for (_, de, targets), lower in fams:
        t = len(cols)
        cols.append(_quotient_coords(de))
        bounds.append((lower, None))
        for _, cap, dw in targets:
            if cap is not None:
                caps.append((len(cols), t, cap))
            cols.append([-c for c in _quotient_coords(dw)])
            bounds.append((0, None))
    cols += lattice
    bounds += [(None, None)] * len(lattice)
    equalities = [([col[r] for col in cols], rhs) for r, rhs in enumerate(_quotient_coords(x))]
    inequalities = []
    for m, t, cap in caps:
        row = [0] * len(cols)
        row[m], row[t] = 1, -cap
        inequalities.append((row, 0))
    return len(cols), equalities, inequalities, bounds


def _decode_witness(gens, fams, point) -> MembershipWitness:
    """Read a point of ``_cone_program`` as a witness; the lattice
    coefficients at its end are not part of it."""
    uses = []
    pos = len(gens)
    for (emitter, _, targets), _ in fams:
        count = point[pos]
        target_counts = tuple(
            (w, c) for (w, _, _), c in zip(targets, point[pos + 1 :]) if c
        )
        pos += 1 + len(targets)
        if count or target_counts:
            uses.append(FamilyUse(emitter=emitter, count=count, target_counts=target_counts))
    return MembershipWitness(
        base_counts=tuple((v, c) for (v, _), c in zip(gens, point) if c),
        family_uses=tuple(uses),
    )


def _face_reduction(k: K0Presentation, gens, x: Element):
    """The vertex generators that a representation of x can use, in order:
    those on which no extreme trace that is zero on x is positive.

    In any representation of x each term, family elements included, is
    >= 0 under every trace, so a ray that is 0 on x is 0 on every term.  A
    trace vanishes on the relations, so its value on [v] is its value at v.
    Without families the converse also holds: the rational cone of ``gens``
    is dual to the traces, so the rays that are zero on x expose x's face,
    and what is kept is exactly that face's generators.
    """
    lift = k.coker.lift(x)
    face = [phi for phi in k._rays if _dot(phi, lift) == 0]
    return [(v, e) for v, e in gens if not any(phi[k.ambient_index(v)] for phi in face)]


def _relation(coker: CokerPresentation, gens, fams, lattice, cols):
    """A relation "sum of cone generators = 0" with every column in
    ``cols`` at least 1, as an integer point of ``_cone_program`` with
    x = 0, or None.

    The rational relaxation is solved (``solve_lp`` re-checks a Farkas
    certificate) and a feasible point is scaled by the lcm of its
    denominators.  The lattice coefficients scale to integers too, so the
    relation holds in the torsion coordinates as well.
    """
    num_vars, equalities, inequalities, bounds = _cone_program(
        coker, coker.zero(), gens, fams, lattice
    )
    rows = [constraint(row, EQ, rhs) for row, rhs in equalities]
    rows += [constraint(row, LE, rhs) for row, rhs in inequalities]
    for col in cols:
        bounds[col] = (1, None)
    res = solve_lp(num_vars, *relaxation(rows, bounds))
    if not isinstance(res, Feasible):
        return None
    scale = lcm(*(q.denominator for q in res.point))
    return [int(q * scale) for q in res.point]


def _units_witness(units, relation: MembershipWitness | None, coeffs) -> MembershipWitness:
    """The witness of sum c_i [u_i] over the ``units`` and ``coeffs``: the
    ``relation`` of ``K0Presentation._lineality`` t times, plus each c_i
    [u_i].  A unit's count in the relation is some r_i >= 1, so the least t
    that makes every count t * r_i + c_i nonnegative is the largest
    ceil(-c_i / r_i) over the negative c_i."""
    counts = dict(relation.base_counts) if relation else {}
    t = max((-(c // counts[v]) for (v, _), c in zip(units, coeffs) if c < 0), default=0)
    terms = [(c, _single(v)) for (v, _), c in zip(units, coeffs)]
    return _combine([(t, relation), *terms] if t else terms)


class _ProvenEmpty:
    """Every search tree closed empty, so x has no decomposition into cone
    generators."""


def _cone_columns(k: K0Presentation):
    """The generators and families of ``_cone_program``: the nonzero vertex
    classes as ``(vertex, class)``, and each family as ``(emitter, class,
    targets)`` with its nonzero-class targets as ``(vertex, capacity,
    class)``.  Families whose emitter and targets all have class zero are
    dropped: their columns would be zero, and a zero column never enters a
    basis under Bland's rule and is never branched on."""
    gens = [(v, k.delta[v]) for v in k.graph.vertices if not k.delta[v].is_zero()]
    fams = []
    for fam in k.cone.families:
        de = k.delta[fam.emitter]
        targets = [(w, cap, k.delta[w]) for w, cap in fam.targets if not k.delta[w].is_zero()]
        if targets or not de.is_zero():
            fams.append((fam.emitter, de, targets))
    return gens, fams


def _split_cases(fams):
    """The ``fams`` arguments of ``_cone_program``, one per case: a family
    with an uncapped target is either unused or used at least once (lower
    bound 1), and every other family is present with lower bound 0."""
    split = [
        i for i, (_, _, targets) in enumerate(fams) if any(cap is None for _, cap, _ in targets)
    ]
    for mask in range(1 << len(split)):
        used = {split[b] for b in range(len(split)) if mask >> b & 1}
        yield [(fam, int(i in used)) for i, fam in enumerate(fams) if i in used or i not in split]


def _modulo_lattice(snf: SmithForm, program):
    """``program``, a ``_cone_program`` without lattice columns, with its
    equalities asked only modulo the lattice spanned by the columns of the
    m that ``snf`` diagonalizes (u @ m @ v == s).  A residue r lies in that
    lattice exactly when each (u @ r)_i is a multiple of s's diagonal entry
    d_i (0 beyond the rank).  So the rows are combined by u; a row with
    d_i == 1 holds at every integer point and is dropped, and a row with
    d_i > 1 gets a free column d_i, so that no coefficient the other
    variables determine is branched on."""
    num_vars, equalities, inequalities, bounds = program
    factors = snf.invariant_factors + (0,) * (len(snf.u) - snf.rank)
    free = [i for i, d in enumerate(factors) if d > 1]
    combined = mat_mul(snf.u, [[*row, rhs] for row, rhs in equalities])
    rows = [
        (row[:-1] + [d if f == i else 0 for f in free], row[-1])
        for i, (row, d) in enumerate(zip(combined, factors))
        if d != 1
    ]
    return num_vars + len(free), rows, inequalities, bounds + [(None, None)] * len(free)


def _cone_search(
    k: K0Presentation, x: Element, budget: int
) -> Member | _ProvenEmpty | UnknownMembership:
    """Branch-and-bound search for a decomposition of x into cone generators.

    The vertex generators are first cut to those x's face can use
    (``_face_reduction``).  With families and extreme traces, each case of
    ``_split_cases`` is one ``_cone_program`` over them, searched in turn
    with the whole budget.  Otherwise the search is one program over the
    face's generators that are not units, taken modulo the lattice the
    units and the torsion moduli span (``K0Presentation._lineality``,
    ``_modulo_lattice``).  The rest is that lattice's combination of units,
    each coefficient of a unit of finite order taken mod that order, and
    ``_units_witness`` pays the negative ones with the units' relation.
    Those generators span a pointed cone, so that search region is bounded
    and the search ends with a definite answer given enough budget.  Without
    extreme traces every nonzero class is a unit, so the program is empty
    and x is read off the Smith normal form alone.
    """
    coker = k.coker
    gens, fams = _cone_columns(k)
    gens = _face_reduction(k, gens, x)
    if fams and k._rays:
        lattice = _torsion_lattice_columns(coker)
        for case in _split_cases(fams):
            program = _cone_program(coker, x, gens, case, lattice)
            res = integer_feasibility(*program, budget=budget)
            if isinstance(res, IntWitness):
                return Member(witness=_decode_witness(gens, case, res.point))
            if isinstance(res, IntUnknown):
                return UnknownMembership(budget_spent=res.nodes_explored)
        return _ProvenEmpty()

    units, relation, snf = k._lineality
    pointed = [g for g in gens if g not in units]
    program = _modulo_lattice(snf, _cone_program(coker, x, pointed, (), []))
    res = integer_feasibility(*program, budget=budget)
    if isinstance(res, IntUnknown):
        return UnknownMembership(budget_spent=res.nodes_explored)
    if isinstance(res, IntInfeasible):
        return _ProvenEmpty()
    rest = _quotient_coords(x)
    for c, (_, e) in zip(res.point, pointed):
        rest = [a - c * b for a, b in zip(rest, _quotient_coords(e))]
    # m @ (v @ w) == rest for w = (u @ rest) / diagonal of s
    w = [a // d for a, d in zip(mat_vec(snf.u, rest), snf.invariant_factors)]
    coeffs = []
    for (_, e), row in zip(units, snf.v):
        c, order = _dot(row, w), coker.element_order(e)
        coeffs.append(c if order is None else c % order)
    terms = [_decode_witness(pointed, (), res.point), _units_witness(units, relation, coeffs)]
    return Member(witness=_combine((1, t) for t in terms))


def cone_membership(k: K0Presentation, x: Element, budget: int = DEFAULT_BUDGET):
    """Decide whether x lies in the positive cone.

    Member witnesses and NotMember functionals are re-verified exactly before
    being returned (a failed witness raises CertificateError); verdicts are
    cached on the presentation, and the cache answers a repeated query.  A
    cached Unknown is recomputed when a later call offers a larger budget.
    """
    k.coker._check(x)
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
    for ray in k._rays:
        if _dot(ray, lift) < 0:
            phi = tuple(map(Fraction, ray))
            if not functional_certifies(k, phi, x):
                raise CertificateError(f"separating functional does not certify {x}")
            return NotMember(functional=phi)
    verdict = _cone_search(k, x, budget)
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


def _cone_pointed(k: K0Presentation) -> tuple[ThreeValued, Element | None]:
    """Whether a cone with families and extreme traces is pointed, and if
    not an x != 0 with x and -x in it.

    Every trace is >= 0 on every generator, so in a relation "sum of
    generators = 0" each term is 0 under every extreme ray.  The candidates
    are the nonzero vertex classes, and the full family elements
    [e] - sum cap * [w] over the capped targets, on which every ray
    vanishes; one of finite order d settles it, as -g = (d - 1) g.

    If x != 0 and -x are in the cone, some nonzero generator g of x has
    -g = (x - g) + (-x) in the cone: g plus a representation of -g is a
    point of the rational ``_cone_program`` with x = 0 and g's column at
    least 1, in one case of ``_split_cases``.  In such a point a family
    has m_w = cap * t where a ray is positive on [w].  Once the case's
    vertex programs, which run first, are infeasible, it has that on every
    target and no uncapped one, since a lower m_w or an uncapped target
    would turn into a point of the program of [w].  So the part of a
    feasible point at its candidate is nonzero, and the rest represents
    minus it.  When every program is infeasible (``solve_lp`` re-checks
    each Farkas certificate) the cone is pointed.
    """
    gens, fams = _cone_columns(k)
    full = {e: [(w, cap) for w, cap, _ in targets if cap is not None] for e, _, targets in fams}

    def single(key, c):
        """The witness of c times the candidate ``key``."""
        kind, name = key
        if kind == "vertex":
            return MembershipWitness(((name, c),), ())
        use = FamilyUse(name, c, tuple((w, c * n) for w, n in full[name]))
        return MembershipWitness((), (use,))

    candidates = []
    for key in [("vertex", v) for v, _ in gens] + [("family", e) for e in full]:
        x = evaluate_witness(k, single(key, 1))
        order = k.coker.element_order(x)
        if order is None:
            lift = k.coker.lift(x)
            if not any(_dot(h, lift) for h in k._rays):
                candidates.append(key)
        elif order > 1:
            return ThreeValued.NO, _opposite_pair(k, single(key, 1), single(key, order - 1))
    if not candidates:
        return ThreeValued.YES, None
    lattice = _torsion_lattice_columns(k.coker)
    for case in _split_cases(fams):
        spans = {("vertex", v): (i, i + 1) for i, (v, _) in enumerate(gens)}
        col = len(gens)
        for (emitter, _, targets), _ in case:
            spans[("family", emitter)] = (col, col + 1 + len(targets))
            col += 1 + len(targets)
        for lo, hi in (spans[key] for key in candidates if key in spans):
            point = _relation(k.coker, gens, case, lattice, (lo,))
            if point is None:
                continue
            part = [c if lo <= j < hi else 0 for j, c in enumerate(point)]
            rest = [0 if lo <= j < hi else c for j, c in enumerate(point)]
            plus, minus = (_decode_witness(gens, case, p) for p in (part, rest))
            return ThreeValued.NO, _opposite_pair(k, plus, minus)
    return ThreeValued.YES, None


def order_properties(k: K0Presentation) -> OrderProperties:
    """Whether the cone is the whole group and whether it is pointed, read
    off the extreme traces with no membership search.  ``pointed_witness``
    is an x != 0 with x and -x in the cone when the cone is not pointed.

    The cone is the whole group exactly when there is no extreme trace.
    With families and extreme traces ``_cone_pointed`` decides pointedness;
    otherwise the cone is pointed exactly when it has no unit
    (``K0Presentation._lineality``), and x is the first unit."""
    # the zero group has no ray, answered without the LP that certifies it
    if k.group_invariants() == (0, ()):
        return OrderProperties(ThreeValued.YES, ThreeValued.YES)
    # an extreme trace h_b is 1 on [b], so -[b] is outside the cone; with
    # none, the rays are certified complete, so the only trace is 0
    everything = ThreeValued.NO if k._rays else ThreeValued.YES
    _, fams = _cone_columns(k)
    if fams and k._rays:
        return OrderProperties(everything, *_cone_pointed(k))
    units, relation, _ = k._lineality
    if not units:
        return OrderProperties(everything, ThreeValued.YES)
    minus = _units_witness(units, relation, [-1] + [0] * (len(units) - 1))
    x = _opposite_pair(k, _single(units[0][0]), minus)
    return OrderProperties(everything, ThreeValued.NO, x)


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
    gens = [k.delta[v] for v in k.graph.vertices]
    for fam in k.cone.families:
        ranges = []
        for w, cap in fam.targets:
            top = bound if cap is None else min(cap, bound)
            ranges.append(range(top + 1))
        for counts in product(*ranges):
            total = sum(counts)
            if total == 0 or total > bound:
                continue
            e = k.delta[fam.emitter]
            for (w, _), c in zip(fam.targets, counts):
                e = k.coker.subtract(e, k.coker.scale(c, k.delta[w]))
            gens.append(e)
    return gens


def compare_k0(
    k1: K0Presentation,
    k2: K0Presentation,
    use_order_unit: bool = False,
    budget: int = 2000,
):
    """Search for an isomorphism of ordered groups (optionally unit-preserving).

    The stages compare the group invariants, the numbers of extreme traces
    and the order flags (``order_properties``), then enumerate group
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
    op1 = order_properties(k1)
    op2 = order_properties(k2)
    for name, a, b in (
        ("cone-is-everything", op1.cone_is_everything, op2.cone_is_everything),
        ("pointedness", op1.cone_pointed, op2.cone_pointed),
    ):
        if a is not b:
            return NotIsomorphic(reason=f"certified {name} flags differ")

    nfree, moduli = inv1
    gens1 = _cone_generator_elements(k1, VERIFIED_BOUND)
    gens2 = _cone_generator_elements(k2, VERIFIED_BOUND)
    # the vertex classes generate the group
    canon = list(k1.delta.values())

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
    of the tail extension at finite depth.

    Tail vertices are identified with "emitter class minus a listing prefix";
    under that identification the groups, the vertex classes, and the cone
    elements supported on listing prefixes must all agree.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    k1 = compute_k0(g)
    extended, tails = desingularize_with_tails(g, depth, sinks=True, infinite_emitters=True)
    k2 = compute_k0_row_finite(extended)

    groups_match = k1.group_invariants() == k2.group_invariants()

    listings = {
        v: emitter_edge_listing(g, v, depth)
        for v in g.vertices
        if classify_vertex(g, v) is VertexClass.INFINITE_EMITTER
    }

    m1 = len(k1.ambient_order)

    def image_vector(u: str) -> list[int]:
        """Image in the original ambient lattice of an extended-graph vertex."""
        vec = [0] * m1
        if u in tails:
            base, j = tails[u]
            vec[k1.ambient_index(base)] += 1
            for target in listings.get(base, [])[:j]:
                vec[k1.ambient_index(target)] -= 1
        else:
            vec[k1.ambient_index(u)] += 1
        return vec

    # well-definedness: every relation of the extended graph maps to zero
    well_defined = True
    mat2 = k2.relation_matrix
    cols2 = len(mat2[0]) if mat2 else 0
    for col in range(cols2):
        acc = [0] * m1
        for row, u in enumerate(k2.ambient_order):
            c = mat2[row][col]
            if c:
                vec = image_vector(u)
                acc = [a + c * b for a, b in zip(acc, vec)]
        if not k1.coker.project(acc).is_zero():
            well_defined = False
            break

    def induced(e: Element) -> Element:
        lift = [0] * m1
        amb2 = k2.coker.lift(e)
        for coeff, u in zip(amb2, k2.ambient_order):
            if coeff:
                vec = image_vector(u)
                lift = [a + coeff * b for a, b in zip(lift, vec)]
        return k1.coker.project(lift)

    generator_correspondence_ok = well_defined and all(
        induced(k2.delta[v]) == k1.delta[v] for v in g.vertices
    )

    cone_prefix_ok = True
    # (a) every tail class is a member of the direct cone
    for tail, (base, j) in tails.items():
        if base in listings:
            prefix = listings[base][:j]
            counts: dict[str, int] = {}
            for w in prefix:
                counts[w] = counts.get(w, 0) + 1
            witness = MembershipWitness(
                base_counts=(),
                family_uses=(
                    FamilyUse(
                        emitter=base, count=1, target_counts=tuple(sorted(counts.items()))
                    ),
                ),
            )
            target = k1.delta[base]
            for w, c in counts.items():
                target = k1.coker.subtract(target, k1.coker.scale(c, k1.delta[w]))
        else:
            witness = MembershipWitness(base_counts=((base, 1),), family_uses=())
            target = k1.delta[base]
        if not witness_is_valid(k1, witness) or evaluate_witness(k1, witness) != target:
            cone_prefix_ok = False
        if generator_correspondence_ok and induced(k2.delta[tail]) != target:
            cone_prefix_ok = False
    # (b) every family element supported on the listing prefix is a member of
    # the extended cone: unwind the tail relations into an explicit witness
    for base, listing in listings.items():
        prefix = listing[:depth]
        distinct: dict[str, int] = {}
        for w in prefix:
            distinct[w] = distinct.get(w, 0) + 1
        names = sorted(distinct)
        last_tail = next(
            t for t, (b, j) in tails.items() if b == base and j == depth
        )
        for counts in product(*(range(distinct[w] + 1) for w in names)):
            if not any(counts):
                continue
            chosen = dict(zip(names, counts))
            # the element [base] - sum of chosen targets, in the extended group
            vec = [0] * len(k2.ambient_order)
            vec[k2.ambient_index(base)] += 1
            for w, c in chosen.items():
                vec[k2.ambient_index(w)] -= c
            element = k2.coker.project(vec)
            leftover: dict[str, int] = {last_tail: 1}
            for w, total in distinct.items():
                leftover[w] = leftover.get(w, 0) + total - chosen[w]
            witness = MembershipWitness(
                base_counts=tuple(sorted((w, c) for w, c in leftover.items() if c)),
                family_uses=(),
            )
            if not witness_is_valid(k2, witness) or evaluate_witness(k2, witness) != element:
                cone_prefix_ok = False

    return ConsistencyReport(
        groups_match=groups_match,
        generator_correspondence_ok=generator_correspondence_ok,
        cone_prefix_ok=cone_prefix_ok,
    )
