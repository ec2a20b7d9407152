import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import islice, product

import pytest

import graphk0.intfeas
import graphk0.ktheory
import graphk0.linalg

from graphk0.graphs import INF, Graph, VertexClass, emitter_edge_listing, predicates, structure
from graphk0.ktheory import (
    CertificateError,
    ConsistencyReport,
    FamilyUse,
    IsomorphicCandidate,
    K0Presentation,
    Member,
    MembershipWitness,
    NotIsomorphic,
    NotMember,
    ThreeValued,
    UnknownMembership,
    _dot,
    apply_iso,
    compare_k0,
    compute_k0,
    compute_k0_row_finite,
    cone_membership,
    evaluate_witness,
    functional_certifies,
    order_properties,
    verify_desingularization_consistency,
    witness_is_valid,
)
from graphk0.intfeas import IntInfeasible, IntUnknown, IntWitness, integer_feasibility
from graphk0.linalg import CokerPresentation, Element, determinant, mat_mul, mat_vec
from graphk0.lp import EQ, GE, Feasible, constraint, solve_lp
from graphk0.reports import SCHEMA_VERSION, emit_json, k0_human, k0_to_json, membership_to_json
from test_linalg import dense_cokernel, multiple, relation_matrix, zero_of


def loops(n):
    return Graph(["v"], {("v", "v"): n})


def line_graph(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return Graph(names, {(names[i], names[i + 1]): 1 for i in range(n - 1)})


def toeplitz():
    return Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})


def infinite_loop():
    return Graph(["v"], {("v", "v"): INF})


def random_graph(rng, max_vertices, max_mult=3, inf_prob=0.0, edge_prob=0.4):
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    mult = {}
    for src in names:
        for dst in names:
            if rng.random() < edge_prob:
                if inf_prob and rng.random() < inf_prob:
                    mult[(src, dst)] = INF
                else:
                    mult[(src, dst)] = rng.randint(1, max_mult)
    return Graph(names, mult)


def brute_force_cone(k, max_summands=12):
    """Independent oracle: every sum of at most `max_summands` base classes."""
    gens = [k.delta[v] for v in k.graph.vertices if not k.delta[v].is_zero()]
    reachable = {zero_of(k.coker)}
    frontier = {zero_of(k.coker)}
    for _ in range(max_summands):
        nxt = set()
        for e in frontier:
            for g in gens:
                s = k.coker.add(e, g)
                if s not in reachable:
                    nxt.add(s)
        reachable |= nxt
        frontier = nxt
        if not frontier:
            break
    return reachable


def capacity_search(k, x, budget):
    """The result kind of the family search that the cases replaced: for
    each choice of the families with an uncapped target used (emitter count
    at least 1) or not, in turn, one integer program over the nonzero
    vertex classes, each present family's emitter count and target counts
    with m_w + s_w = cap * t for a slack s_w >= 0 on each capped target,
    and one free multiplier per torsion modulus; the first that is not
    infeasible decides."""
    coker = k.coker
    dim = len(coker.torsion_moduli) + coker.free_rank

    def coords(e):
        return [*e.torsion, *e.free]

    gens = [k.delta[v] for v in k.graph.vertices if not k.delta[v].is_zero()]
    fams = []
    for fam in k.cone.families:
        targets = [(w, cap) for w, cap in fam.targets if not k.delta[w].is_zero()]
        if targets or not k.delta[fam.emitter].is_zero():
            fams.append((fam.emitter, targets))
    split = [e for e, targets in fams if any(cap is None for _, cap in targets)]
    for mask in range(1 << len(split)):
        used = {e for b, e in enumerate(split) if mask >> b & 1}
        cols = [coords(e) for e in gens]
        bounds = []
        for e in gens:
            order = coker.element_order(e)
            bounds.append((0, None if order is None else order - 1))
        caps = []
        for e, targets in fams:
            if e in split and e not in used:
                continue
            t = len(cols)
            cols.append(coords(k.delta[e]))
            bounds.append((int(e in used), None))
            for w, cap in targets:
                if cap is not None:
                    caps.append((len(cols), t, cap))
                cols.append([-c for c in coords(k.delta[w])])
                bounds.append((0, None))
        for i, d in enumerate(coker.torsion_moduli):
            cols.append([-d if r == i else 0 for r in range(dim)])
            bounds.append((None, None))
        rows = [
            ([col[r] for col in cols] + [0] * len(caps), rhs) for r, rhs in enumerate(coords(x))
        ]
        for i, (m, t, cap) in enumerate(caps):
            row = [0] * (len(cols) + len(caps))
            row[m], row[t], row[len(cols) + i] = 1, -cap, 1
            rows.append((row, 0))
        bounds += [(0, None)] * len(caps)
        res = integer_feasibility(len(cols) + len(caps), rows, bounds=bounds, budget=budget)
        if not isinstance(res, IntInfeasible):
            return type(res)
    return IntInfeasible


class TestComputeK0:
    def test_loop_algebras(self):
        for n in range(2, 7):
            k = compute_k0(loops(n))
            if n == 2:
                assert k.group_invariants() == (0, ())
            else:
                assert k.group_invariants() == (0, (n - 1,))
                assert k.delta["v"] == Element(torsion=(1,), free=())
            assert not k.cone.families

    def test_toeplitz(self):
        k = compute_k0(toeplitz())
        assert k.group_invariants() == (1, ())
        assert k.delta["v"] == Element(torsion=(), free=(1,))
        assert k.delta["w"] == Element(torsion=(), free=(0,))
        assert k.order_unit == Element(torsion=(), free=(1,))

    def test_infinite_loop(self):
        k = compute_k0(infinite_loop())
        assert k.group_invariants() == (1, ())
        assert k.delta["v"] == Element(torsion=(), free=(1,))
        assert len(k.cone.families) == 1
        fam = k.cone.families[0]
        assert fam.emitter == "v"
        assert fam.targets == (("v", None),)

    def test_line_graphs(self):
        for n in range(2, 7):
            k = compute_k0(line_graph(n))
            assert k.group_invariants() == (1, ())
            assert all(d == Element(torsion=(), free=(1,)) for d in k.delta.values())
            assert k.order_unit == Element(torsion=(), free=(n,))

    def test_row_finite_requires_row_finite(self):
        with pytest.raises(ValueError):
            compute_k0_row_finite(infinite_loop())

    def test_row_finite_flag(self):
        assert compute_k0_row_finite(line_graph(3)).row_finite_orthant
        assert not compute_k0(infinite_loop()).row_finite_orthant

    def test_relation_columns_project_to_zero(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_graph(rng, 5, inf_prob=0.2)
            k = compute_k0(g)
            mat, _ = relation_matrix(g)
            for col in range(len(mat[0]) if mat else 0):
                column = [mat[row][col] for row in range(len(mat))]
                assert k.coker.project(column).is_zero()

    def test_relation_matrix_dense_reading(self):
        rng = random.Random(45)
        for inf_prob in (0.0, 0.2):
            for _ in range(30):
                g = random_graph(rng, 7, inf_prob=inf_prob)
                mat, order = relation_matrix(g)
                regular = order[: len(mat[0]) if mat else 0]
                dense = [
                    [g.multiplicity(v, u) - (1 if u == v else 0) for v in regular] for u in order
                ]
                assert mat == dense, g.edges()

    def test_classes_are_projected_basis_vectors(self):
        rng = random.Random(46)
        for inf_prob in (0.0, 0.2):
            for _ in range(30):
                g = random_graph(rng, 7, inf_prob=inf_prob)
                k = compute_k0(g)
                for v in g.vertices:
                    unit = [int(u == v) for u in k.ambient_order]
                    assert k.delta[v] == k.coker.project(unit)

    def test_no_projection_per_vertex(self, monkeypatch):
        # the classes are read off the reduced cokernel and the eliminated
        # vertices' out-edges, and the order unit off the kept classes, each
        # weighted by the eliminated vertices above it; a projection of all
        # n classes is not needed, so compute_k0 makes none
        graphs = [toeplitz(), infinite_loop(), loops(4)]
        rng = random.Random(47)
        graphs += [random_graph(rng, 8, inf_prob=0.1) for _ in range(10)]
        graphs += [random_graph(rng, 12, inf_prob=0.1, edge_prob=0.15) for _ in range(30)]
        true_project = CokerPresentation.project
        calls = []

        def counted(self, x):
            calls.append(x)
            return true_project(self, x)

        monkeypatch.setattr(CokerPresentation, "project", counted)
        presentations = [compute_k0(g) for g in graphs]
        assert calls == []
        for g, k in zip(graphs, presentations):
            assert k.order_unit == true_project(k.coker, [1] * len(g.vertices))

    def test_regular_vertex_relation(self):
        # [v] = sum_w A(v, w)[w] for every regular vertex
        rng = random.Random(43)
        for _ in range(30):
            g = random_graph(rng, 5, inf_prob=0.2)
            k = compute_k0(g)
            for v in g.vertices:
                out = g.out_edges(v)
                if not out or any(m is INF for _, m in out):
                    continue
                total = zero_of(k.coker)
                for w, m in out:
                    total = k.coker.add(total, multiple(k.coker, m, k.delta[w]))
                assert total == k.delta[v]

    def test_lemma_theorem_agreement(self):
        rng = random.Random(44)
        for _ in range(60):
            g = random_graph(rng, 6)
            assert predicates(g).row_finite
            k1 = compute_k0(g)
            k2 = compute_k0_row_finite(g)
            assert k1.group_invariants() == k2.group_invariants()
            assert k1.delta == k2.delta
            assert k1.order_unit == k2.order_unit
            assert not k2.cone.families


def reaches_itself(g, v):
    """True when a path of length at least one leads from v back to v."""
    seen, stack = set(), [w for w, _ in g.out_edges(v)]
    while stack:
        w = stack.pop()
        if w == v:
            return True
        if w not in seen:
            seen.add(w)
            stack += [x for x, _ in g.out_edges(w)]
    return False


def eliminated_and_kept(g):
    """The regular vertices on no cycle, and the other vertices, each in
    declaration order, found by plain reachability."""
    eliminated, kept = [], []
    for v in g.vertices:
        out = g.out_edges(v)
        regular = out and all(m is not INF for _, m in out)
        (eliminated if regular and not reaches_itself(g, v) else kept).append(v)
    return eliminated, kept


def baseline_draw(rng, n, deg):
    """Vertex i draws randrange(0, deg + 1) edges to uniform targets, each
    of multiplicity randrange(1, 4); repeated draws of a pair add up."""
    names = [f"v{i}" for i in range(n)]
    mult = {}
    for src in names:
        for _ in range(rng.randrange(0, deg + 1)):
            key = (src, rng.choice(names))
            mult[key] = mult.get(key, 0) + rng.randrange(1, 4)
    return Graph(names, mult)


class TestReducedCokernel:
    """``compute_k0`` eliminates the regular vertices on no cycle before the
    Smith normal form; the result must present the same group as the
    cokernel of the whole relation matrix."""

    def check_against_full(self, g, rng):
        k = compute_k0(g)
        mat, order = relation_matrix(g)
        assert order == k.ambient_order
        full = dense_cokernel(mat)
        assert k.group_invariants() == full.group_invariants()
        for col in zip(*mat):
            assert k.coker.project(list(col)).is_zero()
        for _ in range(5):
            x = [rng.randint(-5, 5) for _ in order]
            e = k.coker.project(x)
            lift = k.coker.lift(e)
            assert k.coker.project(lift) == e
            # x - lift is in the kernel of the reduced projection, so it
            # must be a combination of the full matrix's columns
            assert full.project(lift) == full.project(x)
        eliminated, _ = eliminated_and_kept(g)
        for v in eliminated:
            total = zero_of(k.coker)
            for w, m in g.out_edges(v):
                total = k.coker.add(total, multiple(k.coker, m, k.delta[w]))
            assert total == k.delta[v]
        return k

    def test_random_graphs(self):
        rng = random.Random(2101)
        for inf_prob in (0.0, 0.2):
            for _ in range(60):
                self.check_against_full(random_graph(rng, 8, inf_prob=inf_prob), rng)

    def test_baseline_draws(self):
        rng = random.Random(2102)
        for _ in range(3):
            g = baseline_draw(rng, 150, 3)
            assert eliminated_and_kept(g)[0]
            self.check_against_full(g, rng)

    def test_dag(self):
        # every regular vertex is eliminated, and K0 is Z^sinks
        rng = random.Random(2103)
        for _ in range(20):
            n = rng.randint(2, 12)
            names = [f"v{i}" for i in range(n)]
            mult = {
                (names[i], names[j]): rng.randint(1, 3)
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
            }
            g = Graph(names, mult)
            eliminated, kept = eliminated_and_kept(g)
            assert all(not g.out_edges(v) for v in kept)
            k = self.check_against_full(g, rng)
            assert k.group_invariants() == (len(kept), ())

    def test_nothing_eliminable(self):
        rng = random.Random(2104)
        cycle = Graph(["a", "b", "c", "s"], {("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 1, ("c", "s"): 3})
        for g in (loops(3), toeplitz(), infinite_loop(), cycle):
            assert not eliminated_and_kept(g)[0]
            self.check_against_full(g, rng)

    def test_emitters_downstream_of_eliminated_vertices(self):
        rng = random.Random(2105)
        g = Graph(
            ["a", "b", "e", "x", "y"],
            {("a", "b"): 2, ("a", "x"): 1, ("b", "e"): 3, ("b", "y"): 1,
             ("e", "x"): INF, ("e", "y"): 2, ("x", "x"): 2, ("y", "e"): 1},
        )
        assert eliminated_and_kept(g)[0] == ["a", "b"]
        k = self.check_against_full(g, rng)
        assert isinstance(cone_membership(k, k.delta["a"]), Member)
        report = verify_desingularization_consistency(g, 3)
        assert report.groups_match and report.generator_correspondence_ok and report.cone_prefix_ok

    def test_deep_chain_growth(self):
        # 300 regular vertices on a path of multiplicity-3 edges into a sink:
        # the head's expansion is 3^300 [sink], a 476-bit coefficient
        names = [f"c{i}" for i in range(300)] + ["sink"]
        g = Graph(names, {(a, b): 3 for a, b in zip(names, names[1:])})
        start = time.perf_counter()
        k = compute_k0(g)
        elapsed = time.perf_counter() - start
        assert k.group_invariants() == (1, ())
        assert k.delta["sink"] == Element(torsion=(), free=(1,))
        assert k.delta["c0"] == Element(torsion=(), free=(3**300,))
        assert elapsed < 1.0

    def test_snf_sees_the_reduced_matrix(self, monkeypatch):
        # counts, not timings: one cokernel, of a matrix with a row per kept
        # vertex and a column per regular vertex on a cycle; inside it one
        # Smith normal form, of a residual with no unit entry and no zero row
        true_cokernel = graphk0.linalg.cokernel
        true_snf = graphk0.linalg.smith_normal_form
        shapes = []
        residuals = []

        def cokernel_spy(columns, rows):
            shapes.append((rows, len(columns)))
            return true_cokernel(columns, rows)

        def snf_spy(a):
            residuals.append(a)
            return true_snf(a)

        monkeypatch.setattr(graphk0.ktheory, "cokernel", cokernel_spy)
        monkeypatch.setattr(graphk0.linalg, "smith_normal_form", snf_spy)
        rng = random.Random(2106)
        graphs = [baseline_draw(rng, 150, 3) for _ in range(2)]
        graphs += [random_graph(rng, 8, inf_prob=p) for p in (0.0, 0.2) for _ in range(20)]
        for g in graphs:
            shapes.clear()
            residuals.clear()
            compute_k0(g)
            _, kept = eliminated_and_kept(g)
            cycle_regular = [
                v for v in kept if g.out_edges(v) and all(m is not INF for _, m in g.out_edges(v))
            ]
            assert shapes == [(len(kept), len(cycle_regular))]
            assert len(residuals) == 1
            (residual,) = residuals
            assert sum(x in (1, -1) for row in residual for x in row) == 0
            assert sum(not any(row) for row in residual) == 0


def dense_k0(g):
    """The dense assembly around the cokernel that ``compute_k0`` used before
    its classes were kept sparse, as the reference: the reduced matrix
    dense, the cokernel's classes written into a dense (t+f) x kept
    projection and its section into a dense kept x (t+f) matrix, the kept
    classes read off the projection's transpose, each eliminated class
    summed as a dense list, downstream first, and the presentation over the
    ambient order with the transpose of all classes as its projection and
    the section's rows placed on the kept vertices.  Returns delta, the
    order unit, and ``project`` and ``lift`` of that presentation."""
    names = g.vertices
    s = structure(g)
    out, inner = s.out, s.inner
    regular = [v for v, k in enumerate(s.kinds) if k is VertexClass.REGULAR]
    singular = [v for v, k in enumerate(s.kinds) if k is not VertexClass.REGULAR]
    order = regular + singular
    kept = [v for v in range(len(names)) if inner[v] or s.kinds[v] is not VertexClass.REGULAR]
    row = {v: r for r, v in enumerate(kept)}
    eliminated = sorted((v for v in regular if not inner[v]), key=s.comp.__getitem__)
    expansion = {v: {r: 1} for v, r in row.items()}
    for v in eliminated:
        e = {}
        for w, m in out[v]:
            for r, c in expansion[w].items():
                e[r] = e.get(r, 0) + m * c
        expansion[v] = e
    columns = [u for u in regular if inner[u]]
    mat = [[0] * len(columns) for _ in kept]
    for c, u in enumerate(columns):
        for w, m in out[u]:
            for r, x in expansion[w].items():
                mat[r][c] += m * x
        mat[row[u]][c] -= 1
    reduced = dense_cokernel(mat)
    moduli = reduced.torsion_moduli
    t = len(moduli)
    width = t + reduced.free_rank
    projection = [[col.get(q, 0) for col in reduced.classes] for q in range(width)]
    section = [[unit.get(r, 0) for unit in reduced.section] for r in range(len(kept))]

    coords = {}
    for v, col in zip(kept, zip(*projection) if projection else [()] * len(kept)):
        coords[v] = [*(x % d for x, d in zip(col, moduli)), *col[t:]]
    for v in eliminated:
        (w, m), *rest = out[v]
        acc = [m * b for b in coords[w]]
        for w, m in rest:
            acc = [a + m * b for a, b in zip(acc, coords[w])]
        coords[v] = acc
    classes = [
        Element(torsion=tuple(a % d for a, d in zip(coords[v], moduli)), free=tuple(coords[v][t:]))
        for v in order
    ]
    full_projection = [list(r) for r in zip(*((*c.torsion, *c.free) for c in classes))]
    full_section = [[0] * width for _ in order]
    pos = {v: i for i, v in enumerate(order)}
    for r, v in enumerate(kept):
        full_section[pos[v]] = section[r]

    def project(x):
        dots = [sum(a * b for a, b in zip(r, x)) for r in full_projection]
        return Element(torsion=tuple(a % d for a, d in zip(dots, moduli)), free=tuple(dots[t:]))

    def lift(e):
        return mat_vec(full_section, [*e.torsion, *e.free])

    delta = {names[v]: classes[pos[v]] for v in range(len(names))}
    return delta, project([1] * len(order)), project, lift


def element_to_json(e):
    """An element as the k0 report wrote it from its dense tuples."""
    safe = 2**53 - 1
    return {
        "torsion": [x if -safe <= x <= safe else str(x) for x in e.torsion],
        "free": [x if -safe <= x <= safe else str(x) for x in e.free],
    }


def dense_k0_json(k, delta, order_unit):
    """The k0 report as ``k0_to_json`` wrote it before it read the sparse
    classes: ``element_to_json`` over the dense ``delta`` and order unit
    (``dense_k0``), and the rest of ``k`` as it was written then."""
    safe = 2**53 - 1
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "k0",
        "free_rank": k.coker.free_rank,
        "torsion": [d if d <= safe else str(d) for d in k.coker.torsion_moduli],
        "delta": {v: element_to_json(delta[v]) for v in k.graph.vertices},
        "order_unit": element_to_json(order_unit),
        "cone": {
            "families": [
                {
                    "emitter": fam.emitter,
                    "targets": [
                        {"vertex": w, "capacity": "inf" if cap is None else cap}
                        for w, cap in fam.targets
                    ],
                }
                for fam in k.cone.families
            ],
        },
        "row_finite_orthant": k.row_finite_orthant,
    }


class TestSparsePresentation:
    """``compute_k0`` keeps every class and the section sparse; the result
    must equal the dense assembly it replaced (``dense_k0``), and the k0
    report written from the sparse classes the one written from it."""

    def check_report(self, g):
        k = compute_k0(g)
        delta, order_unit, _, _ = dense_k0(g)
        payload, reference = k0_to_json(k), dense_k0_json(k, delta, order_unit)
        assert payload == reference
        assert emit_json(payload) == emit_json(reference)
        return payload

    def test_against_dense_assembly(self):
        rng = random.Random(2601)
        graphs = [random_graph(rng, 8, inf_prob=p) for p in (0.0, 0.2) for _ in range(60)]
        graphs += [baseline_draw(rng, 150, 3) for _ in range(3)]
        torsion = emitters = 0
        for g in graphs:
            self.check_report(g)
            k = compute_k0(g)
            delta, order_unit, project, lift = dense_k0(g)
            assert k.delta == delta
            assert list(k.delta) == list(delta)
            assert k.order_unit == order_unit
            moduli = k.coker.torsion_moduli
            t, width = len(moduli), len(moduli) + k.coker.free_rank
            for q in range(width):
                unit = [int(c == q) for c in range(width)]
                e = Element(torsion=tuple(unit[:t]), free=tuple(unit[t:]))
                assert k.coker.lift(e) == lift(e)
            for _ in range(3):
                x = [rng.randint(-5, 5) for _ in k.ambient_order]
                assert k.coker.project(x) == project(x)
            torsion += bool(moduli)
            emitters += not k.row_finite_orthant
        assert torsion >= 10 and emitters >= 10, (torsion, emitters)

    def test_report_extremes(self):
        # classes past 2^53 in the free part and in the torsion part, a
        # modulus past 2^53, a group of sinks only and the zero group
        names = [f"c{i}" for i in range(300)] + ["sink"]
        chain = Graph(names, {(a, b): 3 for a, b in zip(names, names[1:])})
        payload = self.check_report(chain)
        assert payload["delta"]["c0"] == {"torsion": [], "free": [str(3**300)]}
        big = Graph(["v", "w"], {("v", "v"): 2**60 + 1, ("w", "v"): 2**55})
        payload = self.check_report(big)
        assert payload["torsion"] == [str(2**60)]
        assert payload["delta"]["w"] == {"torsion": [str(2**55)], "free": []}
        assert payload["order_unit"] == {"torsion": [str(2**55 + 1)], "free": []}
        sinks = Graph(["a", "b", "c"], {})
        payload = self.check_report(sinks)
        assert payload["delta"]["b"] == {"torsion": [], "free": [0, 1, 0]}
        assert payload["order_unit"] == {"torsion": [], "free": [1, 1, 1]}
        payload = self.check_report(Graph(["v"], {("v", "v"): 2}))
        assert payload["delta"]["v"] == payload["order_unit"] == {"torsion": [], "free": []}

    def test_report_builds_only_the_order_unit(self, monkeypatch):
        # counts, not timings: compute_k0 and the k0 report build one dense
        # Element, the order unit; delta builds one per vertex on its first
        # read and none after
        built = []
        true_element = CokerPresentation._element

        def element_spy(self, col):
            built.append(col)
            return true_element(self, col)

        monkeypatch.setattr(CokerPresentation, "_element", element_spy)
        g = baseline_draw(random.Random(2602), 150, 3)
        k = compute_k0(g)
        k0_to_json(k)
        assert len(built) == 1
        delta = k.delta
        assert len(built) == 1 + len(g.vertices)
        assert k.delta is delta
        assert len(built) == 1 + len(g.vertices)
        assert list(k.delta) == list(g.vertices)

    def test_library_reads_no_delta(self, monkeypatch):
        # the membership columns, the order properties, the comparison and
        # the human report read the sparse classes: with delta refusing,
        # each still runs on fresh presentations and gives the same answers
        rng = random.Random(2603)
        graphs = []
        while len(graphs) < 12:
            g = random_graph(rng, 6, inf_prob=0.3)
            if compute_k0(g).cone.families:
                graphs.append(g)
        graphs += [toeplitz(), loops(4), line_graph(3)]

        def answers():
            found = []
            for g, h in zip(graphs, graphs[1:] + graphs[:1]):
                k = compute_k0(g)
                queries = [k.coker._element(col) for col in k.coker.classes]
                queries += [k.coker.negate(x) for x in queries] + [k.order_unit]
                found.append([cone_membership(k, x, budget=400) for x in queries])
                found.append(order_properties(k))
                found.append(compare_k0(k, compute_k0(g), use_order_unit=True, budget=40))
                found.append(compare_k0(k, compute_k0(h), budget=40))
                found.append(k0_human(k))
            return found

        expected = answers()

        def refuse(self):
            raise RuntimeError("delta read by the library")

        monkeypatch.setattr(K0Presentation, "delta", property(refuse))
        assert answers() == expected
        assert any(isinstance(v, Member) for v in expected[0])

    def test_sparse_storage(self):
        # no stored zero, torsion entries reduced, and about a fifth of the
        # dense (t+f) x n entries on the n=640 draw (deg 3, seed 2)
        n = 640
        coker = compute_k0(baseline_draw(random.Random(2), n, 3)).coker
        moduli = coker.torsion_moduli
        width = len(moduli) + coker.free_rank
        assert moduli and len(coker.classes) == n and len(coker.section) == width
        entries = [x for col in coker.classes for x in col.values()]
        entries += [x for unit in coker.section for x in unit.values()]
        assert 0 not in entries
        assert len(entries) < width * n / 4
        torsion = [(x, moduli[q]) for col in coker.classes for q, x in col.items() if q < len(moduli)]
        assert torsion and all(0 < x < d for x, d in torsion)


class TestConeMembership:
    def test_zero_is_member(self):
        k = compute_k0(toeplitz())
        verdict = cone_membership(k, zero_of(k.coker))
        assert isinstance(verdict, Member)
        assert verdict.witness == MembershipWitness(base_counts=(), family_uses=())

    def test_toeplitz_negative(self):
        k = compute_k0(toeplitz())
        verdict = cone_membership(k, Element(torsion=(), free=(-1,)))
        assert isinstance(verdict, NotMember)
        assert verdict.functional == (1, 0)
        assert functional_certifies(k, verdict.functional, Element(torsion=(), free=(-1,)))
        # each case breaks one condition and keeps the rest, query included
        cases = [
            # not zero on the relation [v] = [v] + [w]
            (toeplitz(), (1, 1), [-1, 0]),
            # negative on a vertex class
            (Graph(["a", "b"], {}), (1, -1), [-1, 0]),
            # nonzero on a target the emitter reaches infinitely often
            (Graph(["e", "w"], {("e", "w"): INF}), (1, 1), [-1, 0]),
            # the emitter fails to dominate its capped batch 3 [w]
            (
                Graph(["e", "w", "z"], {("e", "w"): 3, ("e", "z"): INF}),
                (1, 1, 0),
                [-1, 0, 0],
            ),
            # nonnegative on the cone but not negative on the query
            (toeplitz(), (1, 0), [1, 0]),
        ]
        for graph, phi, ambient in cases:
            k = compute_k0(graph)
            x = k.coker.project(ambient)
            phi = tuple(Fraction(p) for p in phi)
            assert not functional_certifies(k, phi, x), (graph.edges(), phi)

    def test_infinite_loop_negative_member(self):
        k = compute_k0(infinite_loop())
        verdict = cone_membership(k, Element(torsion=(), free=(-5,)))
        assert isinstance(verdict, Member)
        assert witness_is_valid(k, verdict.witness)
        assert evaluate_witness(k, verdict.witness) == Element(torsion=(), free=(-5,))

    def test_m2_member(self):
        k = compute_k0(line_graph(2))
        verdict = cone_membership(k, Element(torsion=(), free=(1,)))
        assert isinstance(verdict, Member)

    def test_corrupted_member_raises(self, monkeypatch):
        k = compute_k0(toeplitz())
        x = Element(torsion=(), free=(1,))
        wrong = Member(witness=MembershipWitness(base_counts=(("v", 2),), family_uses=()))
        monkeypatch.setattr(graphk0.ktheory, "_decide_membership", lambda k, x, budget: wrong)
        with pytest.raises(CertificateError):
            cone_membership(k, x)
        assert x not in k._membership_cache

    def test_corrupted_member_raises_without_asserts(self):
        # the same corruption in a `python -O` interpreter, where no assert runs
        script = textwrap.dedent(
            """
            import graphk0.ktheory as kt
            from graphk0 import CertificateError, Element, Graph

            k = kt.compute_k0(Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1}))
            witness = kt.MembershipWitness(base_counts=(("v", 2),), family_uses=())
            kt._decide_membership = lambda k, x, budget: kt.Member(witness=witness)
            try:
                kt.cone_membership(k, Element(torsion=(), free=(1,)))
            except CertificateError:
                print("debug", __debug__, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.ktheory.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "debug False raised\n"

    def test_corrupted_functional_raises_without_asserts(self):
        # a separating functional or an order property read off a corrupted
        # extreme trace raises, under `python -O` too: a ray corrupted in
        # the construction fails the re-check of trace_rays, and one
        # corrupted after it fails the functional_certifies gate
        script = textwrap.dedent(
            """
            import graphk0.ktheory as kt
            from graphk0 import CertificateError, Element, Graph

            toeplitz = Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})
            build = kt._component_rays

            def corrupted(coefficients, zero, rays):
                return coefficients, zero, [tuple(c + 1 for c in h) for h in rays]

            kt._component_rays = lambda g, cone: corrupted(*build(g, cone))
            k = kt.compute_k0(toeplitz)
            gated = kt.compute_k0(toeplitz)
            gated._rays = [(2, 1)]
            for name, call in (
                ("separating", lambda: kt.cone_membership(k, Element(torsion=(), free=(-1,)))),
                ("positive", lambda: kt.order_properties(k)),
                ("gate", lambda: kt.cone_membership(gated, Element(torsion=(), free=(-1,)))),
            ):
                try:
                    call()
                except CertificateError:
                    print("debug", __debug__, name, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.ktheory.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "debug False separating raised\ndebug False positive raised\ndebug False gate raised\n"
        )

    def test_corrupted_units_raise_without_asserts(self):
        # rays that vanish at a vertex they are positive at make [v] look
        # like a unit; an empty ray list makes every class look like one.
        # Then no relation negates the units, and a search with rays, one
        # without and the whole-group pointedness witness raise, under
        # `python -O` too
        script = textwrap.dedent(
            """
            import graphk0.ktheory as kt
            from graphk0 import CertificateError, Element, Graph

            toeplitz = Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})
            cases = []
            for name, rays, query in (
                ("units", [(0, 0)], Element(torsion=(), free=(2,))),
                ("whole-group", [], Element(torsion=(), free=(-1,))),
            ):
                k = kt.compute_k0(toeplitz)
                k._rays = rays
                cases.append((name, lambda k=k, x=query: kt.cone_membership(k, x)))
            k = kt.compute_k0(toeplitz)
            k._rays = []
            cases.append(("pointed", lambda: kt.order_properties(k)))
            for name, call in cases:
                try:
                    call()
                except CertificateError:
                    print("debug", __debug__, name, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.ktheory.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "debug False units raised\ndebug False whole-group raised\n"
            "debug False pointed raised\n"
        )

    def test_pointedness_needs_strict_emitter_rows(self):
        # a and b each dominate the other with one edge and reach u (class 0)
        # infinitely often: [a] - [b] and [b] - [a] are both in the cone, so
        # it is not pointed, though the trace 1, 1, 0 is positive on every
        # nonzero vertex class.  It is zero on [a] - [b], and no -[v] is in
        # the cone, so the witness is a family element.
        g = Graph(
            ["a", "b", "u"],
            {("a", "b"): 1, ("a", "u"): INF, ("b", "a"): 1, ("b", "u"): INF, ("u", "u"): 2},
        )
        props = order_properties(compute_k0(g))
        assert props.cone_pointed is ThreeValued.NO
        k = compute_k0(g)
        x = props.pointed_witness
        assert not x.is_zero()
        assert isinstance(cone_membership(k, x), Member)
        assert isinstance(cone_membership(k, k.coker.negate(x)), Member)

    def test_face_reduction_one_pass(self, monkeypatch):
        # the restart loop it replaced: after each deletion, test the
        # remaining generators again against the shrunken set
        def restart_loop(k, gens, x):
            nfree = k.coker.free_rank
            active = list(gens)
            changed = True
            while changed and active:
                changed = False
                for idx, (_, e) in enumerate(active):
                    cons = [constraint(list(g.free), GE, 0) for _, g in active]
                    cons.append(constraint(list(x.free), EQ, 0))
                    cons.append(constraint(list(e.free), GE, 1))
                    if isinstance(solve_lp(nfree, cons, nonneg=[False] * nfree), Feasible):
                        del active[idx]
                        changed = True
                        break
            return active

        calls = []
        monkeypatch.setattr(
            graphk0.ktheory,
            "solve_lp",
            lambda *args, **kwargs: calls.append(1) or solve_lp(*args, **kwargs),
        )
        rng = random.Random(5)
        proper = 0
        for _ in range(60):
            k = compute_k0(random_graph(rng, 8, edge_prob=0.15))
            gens = [(v, k.delta[v]) for v in k.graph.vertices if not k.delta[v].is_zero()]
            if k.coker.free_rank == 0:
                continue
            # without families there is one case, the graph's own, whose
            # extreme traces are found, and certified, once per presentation
            (case,) = k._cases
            for _ in range(4):
                # x in the cone, so in the relative interior of some face
                x = zero_of(k.coker)
                for _, e in gens:
                    if rng.random() < 0.4:
                        x = k.coker.add(x, multiple(k.coker, rng.randint(1, 3), e))
                calls.clear()
                lift = k.coker.lift(x)
                kept = case.face([_dot(h, lift) for h in case.rays])
                assert not calls
                face = [
                    (col.terms[0][0], col.element)
                    for j, col in enumerate(case.columns)
                    if j in kept or j in case.units
                ]
                assert face == restart_loop(k, gens, x)
                proper += 0 < len(face) < len(gens)
        assert proper >= 50

    def test_units_read_off_the_rays(self, monkeypatch):
        # the per-generator LP screen the read-off replaced: g is a unit
        # when -g is a nonnegative rational combination of the generators
        def screen(k, gens):
            units = []
            for v, e in gens:
                cons = [
                    constraint([g.free[j] for _, g in gens], EQ, -e.free[j])
                    for j in range(k.coker.free_rank)
                ]
                if isinstance(solve_lp(len(gens), cons), Feasible):
                    units.append((v, e))
            return units

        lp_calls, searches = [], []
        monkeypatch.setattr(
            graphk0.ktheory,
            "solve_lp",
            lambda *args, **kwargs: lp_calls.append(1) or solve_lp(*args, **kwargs),
        )
        true_search = graphk0.ktheory.integer_feasibility
        monkeypatch.setattr(
            graphk0.ktheory,
            "integer_feasibility",
            lambda *args, **kwargs: searches.append(1) or true_search(*args, **kwargs),
        )
        rng = random.Random(8)
        with_units = infinite_units = 0
        for _ in range(80):
            k = compute_k0(random_graph(rng, 7, edge_prob=0.2))
            gens = [(v, k.delta[v]) for v in k.graph.vertices if not k.delta[v].is_zero()]
            if not k._rays:
                continue
            # one LP per presentation with units gives the relation, none
            # without; there is one case, the graph's own
            lp_calls.clear()
            (case,) = k._cases
            case.relation  # built on first use
            units = [(case.columns[j].terms[0][0], case.columns[j].element) for j in case.units]
            assert len(lp_calls) == bool(units)
            assert units == screen(k, gens), k.graph.edges()
            with_units += bool(units)
            infinite_units += any(k.coker.element_order(e) is None for _, e in units)
            decode = graphk0.ktheory._decode_witness
            if units:
                # every unit at least once, nothing else, and the sum is 0
                relation = decode(k, case.columns, case.relation)
                assert witness_is_valid(k, relation) and not relation.family_uses
                assert {u for u, _ in relation.base_counts} == {u for u, _ in units}
                assert all(c >= 1 for _, c in relation.base_counts)
                assert evaluate_witness(k, relation).is_zero()
            for j, (v, e) in zip(case.units, units):
                minus = decode(k, case.columns, [r - (i == j) for i, r in enumerate(case.relation)])
                assert witness_is_valid(k, minus)
                assert evaluate_witness(k, minus) == k.coker.negate(e)
            for cold in range(2):
                # a sum of generators, asked with nothing cached that settles it
                x = zero_of(k.coker)
                while x.is_zero():
                    for _, e in gens:
                        if rng.random() < 0.4:
                            x = k.coker.add(x, multiple(k.coker, rng.randint(1, 3), e))
                k._membership_cache.clear()
                lp_calls.clear()
                searches.clear()
                assert isinstance(cone_membership(k, x), Member)
                assert len(searches) == 1
                assert not lp_calls
        assert with_units >= 15 and infinite_units >= 5

    def test_face_step_before_family_search(self, monkeypatch):
        # every column of a case is >= 0 under every ray of the case, so a
        # ray that is zero on x minus the case's shift is zero on each term
        # of a representation: no searched program may carry a column on
        # which such a ray is positive.  Against the family search the
        # cases replaced, whose capacity rows m_w <= cap * t leave its
        # region unbounded, only its Unknown(budget) may turn into Member
        true_face = graphk0.ktheory._Case.face
        true_program = graphk0.ktheory._cone_program
        faces, searched = [], []

        def face(case, at):
            kept = true_face(case, at)
            faces.append((case, at, kept))
            return kept

        def program(coker, x, classes):
            searched.append((*faces[-1], x, classes))
            return true_program(coker, x, classes)

        monkeypatch.setattr(graphk0.ktheory._Case, "face", face)
        monkeypatch.setattr(graphk0.ktheory, "_cone_program", program)
        rng = random.Random(31)
        checked = programs = cut = 0
        for _ in range(120):
            k = compute_k0(random_graph(rng, 5, inf_prob=0.3, edge_prob=0.35))
            if not k.cone.families or not k._rays:
                continue
            moves = [[int(u == v) for u in k.ambient_order] for v in k.graph.vertices]
            for fam in k.cone.families:
                for w, _ in fam.targets:
                    moves.append(
                        [int(u == fam.emitter) - int(u == w) for u in k.ambient_order]
                    )
            for _ in range(6):
                vec = [0] * len(k.ambient_order)
                for mv in moves:
                    if rng.random() < 0.3:
                        vec = [a + rng.randint(1, 3) * b for a, b in zip(vec, mv)]
                x = k.coker.project(vec)
                lift = k.coker.lift(x)
                if x.is_zero() or any(_dot(h, lift) < 0 for h in k._rays):
                    continue
                k._membership_cache.clear()
                searched.clear()
                verdict = cone_membership(k, x, budget=2000)
                for case, at, kept, y, classes in searched:
                    assert y == k.coker.subtract(x, case.shift)
                    assert at == [_dot(h, k.coker.lift(y)) for h in case.rays]
                    assert classes == [case.columns[j].element for j in kept]
                    zero = [h for h, a in zip(case.rays, at) if a == 0]
                    for j in kept:
                        terms = case.columns[j].terms
                        assert not any(
                            sum(n * h[k.ambient_index(w)] for w, n in terms) for h in zero
                        ), (k.graph.edges(), x)
                    programs += 1
                    cut += len(kept) < len(case.pointed)
                expected = capacity_search(k, x, 2000)
                if isinstance(verdict, Member):
                    assert expected in (IntWitness, IntUnknown), (k.graph.edges(), x)
                elif verdict.budget_spent:
                    assert expected is IntUnknown, (k.graph.edges(), x)
                else:
                    assert expected is IntInfeasible, (k.graph.edges(), x)
                checked += 1
        assert checked >= 120 and programs >= 100 and cut >= 50, (checked, programs, cut)

    def test_family_member_beyond_capacity_rows(self):
        # the capacity-row search dived without end on this member: it
        # returned Unknown(2000) after 0.65 s and Unknown(20000) after 6.8 s.
        # Each case's search runs over a pointed cone, so it is bounded
        g = Graph(
            [f"v{i}" for i in range(5)],
            {
                ("v0", "v3"): 5, ("v0", "v4"): 3, ("v1", "v0"): 4, ("v2", "v3"): 5,
                ("v2", "v4"): INF, ("v4", "v1"): 2, ("v4", "v4"): 2,
            },
        )
        k = compute_k0(g)
        x = k.coker.project([{"v2": 2, "v4": 2, "v3": -3}.get(v, 0) for v in k.ambient_order])
        verdict = cone_membership(k, x, budget=2000)
        assert isinstance(verdict, Member)
        assert evaluate_witness(k, verdict.witness) == x

    def test_unseparable_query_excluded_case_by_case(self, monkeypatch):
        # outside the cone, but no extreme trace of the graph is negative on
        # it: each case has a ray that excludes it, so no search runs and
        # the verdict is Unknown(0)
        searches = []
        true_search = graphk0.ktheory.integer_feasibility
        monkeypatch.setattr(
            graphk0.ktheory,
            "integer_feasibility",
            lambda *args, **kwargs: searches.append(1) or true_search(*args, **kwargs),
        )
        g = Graph(
            [f"v{i}" for i in range(6)],
            {
                ("v1", "v0"): INF, ("v1", "v5"): 2, ("v2", "v4"): 3, ("v3", "v5"): 3,
                ("v5", "v2"): 2, ("v5", "v3"): 2,
            },
        )
        k = compute_k0(g)
        assert k.group_invariants() == (3, ())
        # -[v0] + [v4] + [v5], the benchmark's named fault query
        x = k.coker.project([{"v0": -1, "v4": 1, "v5": 1}.get(v, 0) for v in k.ambient_order])
        verdict = cone_membership(k, x, budget=2000)
        assert verdict == UnknownMembership(budget_spent=0)
        assert not searches

    def test_verdict_cache_is_the_only_reuse(self, monkeypatch):
        searches = []
        true_search = graphk0.ktheory.integer_feasibility
        monkeypatch.setattr(
            graphk0.ktheory,
            "integer_feasibility",
            lambda *args, **kwargs: searches.append(1) or true_search(*args, **kwargs),
        )
        rng = random.Random(47)
        repeats = unknowns = 0
        for _ in range(400):
            k = compute_k0(random_graph(rng, 6, inf_prob=0.3, edge_prob=0.35))
            gens = [(v, k.delta[v]) for v in k.graph.vertices if not k.delta[v].is_zero()]
            if not k.cone.families or not k._rays:
                continue
            x = zero_of(k.coker)
            for v, e in gens:
                if rng.random() < 0.5:
                    x = k.coker.add(x, multiple(k.coker, rng.randint(1, 3), e))
            if x.is_zero():
                continue
            searches.clear()
            first = cone_membership(k, x, budget=1)
            if not searches:
                continue
            # a repeated query is answered by the cache, with no new search;
            # an Unknown stands for budgets up to the one it was found with
            calls = len(searches)
            assert cone_membership(k, x, budget=1) is first
            assert len(searches) == calls
            repeats += 1
            if isinstance(first, Member):
                # a cached member settles no other query: x + [v] is searched
                y = k.coker.add(x, gens[0][1])
                if not y.is_zero():
                    cone_membership(k, y, budget=1)
                    assert len(searches) > calls
                continue
            assert first.budget_spent == 1, (k.graph.edges(), x)
            # an Unknown is decided afresh with a larger budget
            later = cone_membership(k, x, budget=4000)
            assert len(searches) > calls
            assert isinstance(later, Member), (k.graph.edges(), x)
            assert cone_membership(k, x, budget=1) is later
            unknowns += 1
        assert repeats >= 60 and unknowns >= 5, (repeats, unknowns)

    def test_whole_group_membership(self):
        # seed-11 draws 97 and 375 have free rank 3 and 2 and no extreme
        # trace, so the cone is the whole group; the branch and bound that
        # answered -[v] before stalled there for about 40 s at the default
        # budget and reported Unknown.  Minus a class is t copies of the one
        # unit relation plus coefficients read off the Smith normal form; a
        # witness read off a preimage, each negative entry paid with a
        # relation of its own, took 649 summands for -[v0] of draw 97 and
        # 11,070 over both draws
        def summands(w):
            uses = sum(u.count + sum(c for _, c in u.target_counts) for u in w.family_uses)
            return sum(c for _, c in w.base_counts) + uses

        rng = random.Random(11)
        draws = [random_graph(rng, 6, inf_prob=0.3 if i % 2 else 0.0) for i in range(400)]
        sizes = {}
        for i in (97, 375):
            k = compute_k0(draws[i])
            assert not k._rays and k.coker.free_rank
            for v in k.graph.vertices:
                x = k.coker.negate(k.delta[v])
                verdict = cone_membership(k, x)
                assert isinstance(verdict, Member), (i, v)
                assert evaluate_witness(k, verdict.witness) == x
                sizes[i, v] = summands(verdict.witness)
        assert sizes[97, "v0"] <= 60, sizes
        assert sum(sizes.values()) <= 2000, sizes

    def test_budget_validation(self):
        k = compute_k0(toeplitz())
        with pytest.raises(ValueError):
            cone_membership(k, zero_of(k.coker), budget=0)

    def test_element_shape_validation(self):
        k = compute_k0(toeplitz())
        with pytest.raises(ValueError):
            cone_membership(k, Element(torsion=(1,), free=(0,)))

    def test_unreduced_torsion_is_value_error(self):
        # Z/4: an entry outside [0, 4) is refused before any search or
        # witness re-check, and nothing is cached
        k = compute_k0(loops(5))
        for r in (-1, 4, -4, 7):
            with pytest.raises(ValueError, match="not reduced"):
                cone_membership(k, Element(torsion=(r,), free=()))
        assert not k._membership_cache

    def test_finite_group_everything_member(self):
        k = compute_k0(loops(5))
        for r in range(4):
            verdict = cone_membership(k, Element(torsion=(r,), free=()))
            assert isinstance(verdict, Member)
            assert evaluate_witness(k, verdict.witness) == Element(torsion=(r,), free=())

    def test_family_membership_soundness(self):
        # graphs with infinite emitters: every verdict must re-verify, and a
        # NotMember may never hit an element reachable with small families
        rng = random.Random(909)
        checked = 0
        for _ in range(10):
            g = random_graph(rng, 3, max_mult=2, inf_prob=0.4)
            k = compute_k0(g)
            if not k.cone.families:
                continue
            # one-sided oracle: sums of <= 4 generators with family
            # parameters <= 2, tracked as reachable elements
            moves = [k.delta[v] for v in g.vertices]
            for fam in k.cone.families:
                for w, cap in fam.targets:
                    top = 2 if cap is None else min(cap, 2)
                    for n in range(1, top + 1):
                        e = k.delta[fam.emitter]
                        for _ in range(n):
                            e = k.coker.subtract(e, k.delta[w])
                        moves.append(e)
            reachable = {zero_of(k.coker)}
            frontier = {zero_of(k.coker)}
            for _ in range(4):
                nxt = set()
                for e in frontier:
                    for mv in moves:
                        s = k.coker.add(e, mv)
                        if s not in reachable:
                            nxt.add(s)
                reachable |= nxt
                frontier = nxt
            for x in sorted(reachable, key=lambda e: (e.torsion, e.free))[:40]:
                verdict = cone_membership(k, x, budget=4000)
                assert not isinstance(verdict, NotMember), (g.edges(), x)
                if isinstance(verdict, Member):
                    assert witness_is_valid(k, verdict.witness)
                    assert evaluate_witness(k, verdict.witness) == x
                    checked += 1
        assert checked > 20

    def test_capped_family_target(self):
        # the family at e may take up to 3 [w] per use and any multiple of [z]
        g = Graph(["e", "w", "z"], {("e", "w"): 3, ("e", "z"): INF})
        k = compute_k0(g)
        verdict = cone_membership(k, k.coker.project([1, -3, -5]))
        assert verdict == Member(
            witness=MembershipWitness(
                base_counts=(),
                family_uses=(FamilyUse(emitter="e", count=1, target_counts=(("w", 3), ("z", 5))),),
            )
        )
        beyond = k.coker.project([1, -4, 0])
        verdict = cone_membership(k, beyond)
        assert isinstance(verdict, NotMember)
        assert functional_certifies(k, verdict.functional, beyond)

    def test_zero_class_families(self):
        # [e] = [w] = 0, so the family at e has only zero-class generators
        # and the cone is generated by [r] and [u] alone
        g = Graph(
            ["r", "e", "w", "u"],
            {("r", "r"): 1, ("r", "e"): 1, ("e", "w"): INF, ("w", "w"): 2},
        )
        k = compute_k0(g)
        assert k.cone.families
        assert k.delta["e"].is_zero() and k.delta["w"].is_zero()
        cone = brute_force_cone(k)
        queries = {k.coker.project(list(p)) for p in product(range(-2, 3), repeat=4)}
        assert len(queries) == 25
        for x in queries:
            fresh = compute_k0(g)  # nothing cached can answer
            verdict = cone_membership(fresh, x)
            if isinstance(verdict, Member):
                assert witness_is_valid(fresh, verdict.witness)
                assert evaluate_witness(fresh, verdict.witness) == x
                assert x in cone
            else:
                assert isinstance(verdict, NotMember), (x, verdict)
                assert functional_certifies(fresh, verdict.functional, x)
                assert x not in cone

    def test_against_brute_force(self):
        rng = random.Random(777)
        disagreements = 0
        unknowns = 0
        total = 0
        for _ in range(12):
            g = random_graph(rng, 3, max_mult=3)
            k = compute_k0(g)
            cone = brute_force_cone(k)
            seen = set()
            m = len(k.ambient_order)
            for point in product(range(-3, 4), repeat=m):
                x = k.coker.project(list(point))
                if x in seen:
                    continue
                seen.add(x)
                verdict = cone_membership(k, x, budget=20000)
                total += 1
                if isinstance(verdict, Member):
                    assert witness_is_valid(k, verdict.witness)
                    assert evaluate_witness(k, verdict.witness) == x
                elif isinstance(verdict, NotMember):
                    assert functional_certifies(k, verdict.functional, x)
                    if x in cone:
                        disagreements += 1
                else:
                    unknowns += 1
        assert disagreements == 0
        assert unknowns <= total * 0.05


class TestSearchReuse:
    """A case with no shift and the graph's own rays reads the ray values
    that the separation step computed on x; every other case lifts its own
    x minus shift.  A lattice of rank 0 leaves the program as it is."""

    @pytest.fixture
    def lifted(self, monkeypatch):
        lifted = []
        lift = CokerPresentation.lift
        monkeypatch.setattr(
            CokerPresentation, "lift", lambda p, e: lifted.append(e) or lift(p, e)
        )
        return lifted

    def test_row_finite_member_lifts_once(self, lifted):
        k = compute_k0(toeplitz())
        x = k.coker.project([2, 1])
        assert k._cases and not lifted
        assert isinstance(cone_membership(k, x), Member)
        assert lifted == [x]

    def test_rank_zero_lattice_multiplies_no_matrix(self, monkeypatch):
        k = compute_k0(line_graph(3))
        (case,) = k._cases
        assert not case.units and case.snf.rank == 0
        calls = []
        monkeypatch.setattr(
            graphk0.ktheory, "mat_mul", lambda *args: calls.append(1) or mat_mul(*args)
        )
        assert isinstance(cone_membership(k, k.coker.project([1, 2, 0])), Member)
        assert not calls

    def test_used_family_lifts_its_rest(self, lifted):
        # [e] - [w] needs the family of e: the case without it has other
        # rays and excludes x, and the case that uses it lifts x - [e]
        k = compute_k0(Graph(["e", "w"], {("e", "w"): INF}))
        unused, used = k._cases
        assert unused.rays is not k._rays and not used.shift.is_zero()
        x = k.coker.project([1, -1])
        verdict = cone_membership(k, x)
        assert isinstance(verdict, Member) and verdict.witness.family_uses
        assert lifted == [x, x, k.coker.subtract(x, used.shift)]


class TestOrderProperties:
    def test_infinite_loop(self):
        props = order_properties(compute_k0(infinite_loop()))
        assert props.cone_is_everything is ThreeValued.YES
        assert props.cone_pointed is ThreeValued.NO

    def test_toeplitz(self):
        props = order_properties(compute_k0(toeplitz()))
        assert props.cone_is_everything is ThreeValued.NO
        assert props.cone_pointed is ThreeValued.YES

    def test_trivial_group(self):
        props = order_properties(compute_k0(loops(2)))
        assert props.cone_is_everything is ThreeValued.YES
        assert props.cone_pointed is ThreeValued.YES

    def test_torsion_group_not_pointed(self):
        props = order_properties(compute_k0(loops(4)))
        assert props.cone_is_everything is ThreeValued.YES
        assert props.cone_pointed is ThreeValued.NO
        assert props.pointed_witness is not None

    def test_zero_group_runs_no_lp(self, monkeypatch):
        # the zero group has no ray and no unit, so order_properties needs no
        # relation, and finding the rays runs no LP either: their
        # completeness check is a Farkas certificate built from walks
        calls = []
        monkeypatch.setattr(
            graphk0.ktheory,
            "solve_lp",
            lambda *args, **kwargs: calls.append(1) or solve_lp(*args, **kwargs),
        )
        zero_groups = [loops(2), Graph(["a", "b"], {("a", "a"): 2, ("a", "b"): 1, ("b", "b"): 2})]
        for g in zero_groups:
            k = compute_k0(g)
            assert k.group_invariants() == (0, ())
            props = order_properties(k)
            assert (props.cone_is_everything, props.cone_pointed) == (ThreeValued.YES,) * 2
        assert not calls
        k = compute_k0(zero_groups[0])
        assert k._rays == [] and not calls

    @pytest.mark.parametrize(
        "edges",
        [
            {
                ("v0", "v0"): INF, ("v0", "v3"): INF, ("v0", "v4"): 1, ("v1", "v1"): 3,
                ("v1", "v3"): 1, ("v2", "v4"): INF, ("v3", "v2"): 3, ("v3", "v3"): 2,
                ("v4", "v0"): INF, ("v4", "v1"): 1, ("v4", "v4"): 2,
            },
            {
                ("v0", "v3"): 3, ("v1", "v1"): 3, ("v1", "v2"): 3, ("v1", "v3"): 2,
                ("v2", "v0"): 1, ("v2", "v2"): 3, ("v2", "v3"): 3, ("v3", "v0"): INF,
                ("v3", "v1"): 2, ("v4", "v1"): 2,
            },
        ],
    )
    def test_everything_without_traces(self, edges):
        # no nonzero graph trace, so the cone is the whole group; the
        # membership searches behind the former flag stall on one generator
        # even with a budget of 20,000 nodes, and the flag read UNKNOWN
        g = Graph([f"v{i}" for i in range(5)], edges)
        assert graphk0.ktheory.trace_rays(g) == []
        props = order_properties(compute_k0(g))
        assert props.cone_is_everything is ThreeValued.YES
        assert props.cone_pointed is ThreeValued.NO


    def test_seed_11_draw(self):
        # no flag is UNKNOWN; every NO comes with x and -x in the cone, and
        # no YES is contradicted by the sums of at most four generators,
        # family elements with up to two targets taken included
        rng = random.Random(11)
        decided = {ThreeValued.NO: 0, ThreeValued.YES: 0}
        for i in range(400):
            g = random_graph(rng, 6, inf_prob=0.3 if i % 2 else 0.0)
            k = compute_k0(g)
            props = order_properties(k)
            decided[props.cone_pointed] += 1
            if props.cone_pointed is ThreeValued.NO:
                x = props.pointed_witness
                assert not x.is_zero()
                assert isinstance(cone_membership(k, x), Member), g.edges()
                assert isinstance(cone_membership(k, k.coker.negate(x)), Member), g.edges()
                continue
            moves = set(k.delta.values())
            for fam in k.cone.families:
                tops = [2 if cap is None else min(cap, 2) for _, cap in fam.targets]
                for counts in product(*(range(top + 1) for top in tops)):
                    if sum(counts) <= 2:
                        e = k.delta[fam.emitter]
                        for (w, _), c in zip(fam.targets, counts):
                            e = k.coker.subtract(e, multiple(k.coker, c, k.delta[w]))
                        moves.add(e)
            reachable = frontier = {zero_of(k.coker)}
            for _ in range(4):
                frontier = {k.coker.add(e, m) for e in frontier for m in moves} - reachable
                reachable = reachable | frontier
            assert all(
                x.is_zero() or k.coker.negate(x) not in reachable for x in reachable
            ), g.edges()
        assert sum(decided.values()) == 400
        assert decided == {ThreeValued.NO: 280, ThreeValued.YES: 120}

    def test_no_membership_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("order_properties ran a membership search")

        monkeypatch.setattr(graphk0.ktheory, "cone_membership", forbidden)
        monkeypatch.setattr(graphk0.ktheory, "integer_feasibility", forbidden)
        rng = random.Random(12)
        graphs = [toeplitz(), infinite_loop(), loops(4)]
        graphs += [random_graph(rng, 6, inf_prob=0.3) for _ in range(40)]
        for g in graphs:
            k = compute_k0(g)
            order_properties(k)
            assert not k._membership_cache


def lp_trial_order_properties(k):
    """``order_properties`` of a presentation without extreme traces as it
    was before the case kept was chosen by its rays: the zero group
    answered first, and otherwise the first case in mask order whose LP
    finds a relation over all of its columns, at least 1 on its units (the
    nonzero vertex classes) and its used batches."""
    kt = graphk0.ktheory
    if k.group_invariants() == (0, ()):
        return kt.OrderProperties(ThreeValued.YES, ThreeValued.YES)
    vertices, families = kt._generators(k)
    for used in kt._split_cases(families):
        case = kt._Case(k, vertices, families, used)
        forced = {*case.units, *case._used}
        classes = [col.element for col in case.columns]
        point = kt._relation(k.coker, classes, [int(j in forced) for j in range(len(classes))])
        if point is not None:
            case.relation = point
            k._cases = [case]
            return order_properties(k)
    raise CertificateError("no relation negates the units of any case")


class TestWholeGroupCase:
    """Without extreme traces the one case kept is the first without rays
    of its own, which is the first whose LP relation exists."""

    def test_ray_choice_matches_lp_trials(self):
        rng = random.Random(7)
        whole = zero = 0
        for _ in range(3000):
            g = random_graph(rng, 7, inf_prob=0.3, edge_prob=0.35)
            k = compute_k0(g)
            is_zero = k.group_invariants() == (0, ())
            if k._rays or not (k.cone.families or is_zero):
                continue
            whole += bool(k.cone.families)
            zero += is_zero
            ref = compute_k0(g)
            assert order_properties(k) == lp_trial_order_properties(ref), g.edges()
            if is_zero:
                assert not k._cases[0].units
                continue
            ((case,), (expected,)) = k._cases, ref._cases
            assert [c.terms for c in case.columns] == [c.terms for c in expected.columns]
            assert (case._used, case.relation) == (expected._used, expected.relation)
            for v in g.vertices:
                for x in (k.delta[v], k.coker.negate(k.delta[v])):
                    verdicts = (cone_membership(k, x), cone_membership(ref, x))
                    texts = [emit_json(membership_to_json(verdict)) for verdict in verdicts]
                    assert texts[0] == texts[1], (g.edges(), v)
        assert (whole, zero) == (1288, 49)

    def test_lp_counts(self, monkeypatch):
        # building the cases runs no LP; order_properties then runs the one
        # relation of the case kept, and none on a zero group
        calls = []
        monkeypatch.setattr(
            graphk0.ktheory,
            "solve_lp",
            lambda *args, **kwargs: calls.append(1) or solve_lp(*args, **kwargs),
        )
        rng = random.Random(7)
        graphs = [infinite_loop(), loops(4), loops(2)]
        graphs += [random_graph(rng, 7, inf_prob=0.3, edge_prob=0.35) for _ in range(300)]
        zero = past_first = 0
        for g in graphs:
            k = compute_k0(g)
            if k._rays:
                continue
            (case,) = k._cases
            assert not calls, g.edges()
            is_zero = k.group_invariants() == (0, ())
            zero += is_zero
            # a used split family: the first case in mask order had rays
            past_first += bool(case._used)
            order_properties(k)
            assert len(calls) == (not is_zero), g.edges()
            calls.clear()
        assert zero >= 2 and past_first >= 10, (zero, past_first)

    def test_searches_solve_no_lp(self, monkeypatch):
        # the case kept searches no column, and its units, the vertex
        # classes, span the whole group, so the program of +-[v] has no
        # variable: integer_feasibility runs, and solves no LP
        calls, searches = [], []
        true_search = graphk0.ktheory.integer_feasibility
        monkeypatch.setattr(
            graphk0.intfeas,
            "solve_lp",
            lambda *args, **kwargs: calls.append(1) or solve_lp(*args, **kwargs),
        )
        monkeypatch.setattr(
            graphk0.ktheory,
            "integer_feasibility",
            lambda *args, **kwargs: searches.append(args[0]) or true_search(*args, **kwargs),
        )
        rng = random.Random(7)
        for _ in range(300):
            k = compute_k0(random_graph(rng, 7, inf_prob=0.3, edge_prob=0.35))
            if k._rays or not k.cone.families:
                continue
            for x in map(k.coker._element, k.coker.classes):
                for y in (x, k.coker.negate(x)):
                    assert isinstance(cone_membership(k, y), Member)
        assert not calls
        assert len(searches) >= 200 and not any(searches), len(searches)


class TestCompare:
    def test_o2_vs_o3(self):
        verdict = compare_k0(compute_k0(loops(2)), compute_k0(loops(3)))
        assert isinstance(verdict, NotIsomorphic)

    def test_m2_vs_m3_with_unit(self):
        verdict = compare_k0(
            compute_k0(line_graph(2)), compute_k0(line_graph(3)), use_order_unit=True
        )
        assert isinstance(verdict, NotIsomorphic)

    def test_m2_vs_m3_without_unit(self):
        k1 = compute_k0(line_graph(2))
        k2 = compute_k0(line_graph(3))
        verdict = compare_k0(k1, k2, use_order_unit=False)
        assert isinstance(verdict, IsomorphicCandidate)
        moduli = k1.coker.torsion_moduli
        # the found map preserves membership of every vertex class
        for v in k1.graph.vertices:
            image = apply_iso(moduli, verdict.iso, k1.delta[v])
            assert isinstance(cone_membership(k2, image), Member)

    def test_same_graph_isomorphic(self):
        k1 = compute_k0(toeplitz())
        k2 = compute_k0(toeplitz())
        verdict = compare_k0(k1, k2, use_order_unit=True)
        assert isinstance(verdict, IsomorphicCandidate)

    def test_symmetry_of_verdict_class(self):
        cases = [
            (loops(2), loops(3)),
            (line_graph(2), line_graph(3)),
            (toeplitz(), line_graph(2)),
            (loops(4), loops(4)),
        ]
        for ga, gb in cases:
            for unit in (False, True):
                ka, kb = compute_k0(ga), compute_k0(gb)
                ab = compare_k0(ka, kb, use_order_unit=unit)
                ba = compare_k0(kb, ka, use_order_unit=unit)
                assert isinstance(ab, NotIsomorphic) == isinstance(ba, NotIsomorphic)
                assert isinstance(ab, IsomorphicCandidate) == isinstance(
                    ba, IsomorphicCandidate
                )

    def test_free_map_options_match_plain_enumeration(self):
        # the shell walk it replaced: every matrix of the shell, in
        # lexicographic order, kept when its determinant is 1 or -1
        def plain(nfree):
            bound = 1
            while True:
                for flat in product(range(-bound, bound + 1), repeat=nfree * nfree):
                    if max(abs(x) for x in flat) != bound:
                        continue
                    mat = [list(flat[i * nfree : (i + 1) * nfree]) for i in range(nfree)]
                    if determinant(mat) in (1, -1):
                        yield tuple(map(tuple, mat))
                bound += 1

        # the 2x2 run crosses six shell boundaries; the 3x3 run stays in shell 1
        for nfree, count, shell in ((2, 1000, 7), (3, 3000, 1)):
            want = list(islice(plain(nfree), count))
            assert max(abs(x) for row in want[-1] for x in row) == shell
            assert list(islice(graphk0.ktheory._free_map_options(nfree), count)) == want

    def test_high_free_rank_budget_bounds_compare(self):
        # free rank 6: the first unimodular candidate comes at once, so
        # budget 1 returns after one candidate
        script = textwrap.dedent(
            """
            from graphk0 import Graph, compare_k0, compute_k0

            names = [f"v{i}" for i in range(6)]
            loops = {(v, v): 1 for v in names}
            k1 = compute_k0(Graph(names, loops))
            k2 = compute_k0(Graph(names[::-1], loops))
            print(compare_k0(k1, k2, budget=1))
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.ktheory.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "UnknownComparison(budget_spent=1)\n"

    def test_extreme_trace_counts_differ(self):
        # two sinks, and an emitter reaching a sink infinitely often: both
        # groups are Z^2, both cones are pointed and not everything, but
        # the first has two extreme traces and the second one
        k1 = compute_k0(Graph(["a", "b"], {}))
        k2 = compute_k0(Graph(["e", "w"], {("e", "w"): INF}))
        assert k1.group_invariants() == k2.group_invariants() == (2, ())
        assert order_properties(k1) == order_properties(k2)
        for ka, kb in ((k1, k2), (k2, k1)):
            verdict = compare_k0(ka, kb)
            assert isinstance(verdict, NotIsomorphic)
            assert "extreme trace counts differ" in verdict.reason

    def test_torsion_automorphism_search(self):
        # Z/4 with generator 1 vs Z/4 with generator 3: iso via x -> 3x
        k1 = compute_k0(loops(5))
        k2 = compute_k0(loops(5))
        verdict = compare_k0(k1, k2, use_order_unit=True)
        assert isinstance(verdict, IsomorphicCandidate)


class TestConsistency:
    def test_mixed_emitter(self):
        g = Graph(["v", "a", "b"], {("v", "a"): 1, ("v", "b"): INF})
        assert compute_k0(g).group_invariants() == (3, ())
        report = verify_desingularization_consistency(g, 2)
        assert report == ConsistencyReport(True, True, True)

    def test_infinite_loop_depths(self):
        for depth in range(1, 5):
            report = verify_desingularization_consistency(infinite_loop(), depth)
            assert report == ConsistencyReport(True, True, True)

    def test_row_finite_identity(self):
        report = verify_desingularization_consistency(loops(2), 3)
        assert report == ConsistencyReport(True, True, True)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            verify_desingularization_consistency(infinite_loop(), 0)

    def test_random_graphs_all_depths(self):
        rng = random.Random(4321)
        done = 0
        while done < 15:
            g = random_graph(rng, 4, inf_prob=0.35)
            if predicates(g).row_finite:
                continue
            done += 1
            for depth in (1, 3):
                report = verify_desingularization_consistency(g, depth)
                assert report == ConsistencyReport(True, True, True), (g.edges(), depth)

    def test_permutation_invariance(self):
        rng = random.Random(888)
        done = 0
        while done < 10:
            g = random_graph(rng, 4, inf_prob=0.3)
            if predicates(g).row_finite:
                continue
            done += 1
            names = list(g.vertices)
            rng.shuffle(names)
            permuted = Graph(
                names, {e: g.multiplicity(*e) for e in [(s, d) for s, d, _ in g.edges()]}
            )
            k1, k2 = compute_k0(g), compute_k0(permuted)
            assert k1.group_invariants() == k2.group_invariants()
            r1 = verify_desingularization_consistency(g, 2)
            r2 = verify_desingularization_consistency(permuted, 2)
            assert r1 == r2 == ConsistencyReport(True, True, True)

    def test_tail_class_membership_cross_check(self):
        # dual route: the constructed tail witnesses agree with the full
        # membership decision procedure on a small instance
        g = Graph(["v", "a"], {("v", "a"): INF, ("v", "v"): 1})
        k1 = compute_k0(g)
        from graphk0.graphs import emitter_edge_listing

        listing = emitter_edge_listing(g, "v", 3)
        e = k1.delta["v"]
        for target in listing[:2]:
            e = k1.coker.subtract(e, k1.delta[target])
        verdict = cone_membership(k1, e)
        assert isinstance(verdict, Member)


def dense_evaluate_witness(k, witness):
    """``evaluate_witness`` as it chained dense element sums through
    ``k.delta``, the reference for the sparse sum."""
    total = zero_of(k.coker)
    for v, c in witness.base_counts:
        total = k.coker.add(total, multiple(k.coker, c, k.delta[v]))
    for use in witness.family_uses:
        total = k.coker.add(total, multiple(k.coker, use.count, k.delta[use.emitter]))
        for w, c in use.target_counts:
            total = k.coker.subtract(total, multiple(k.coker, c, k.delta[w]))
    return total


def dense_consistency(g, depth):
    """``verify_desingularization_consistency`` as it was written on dense
    vectors, the reference for the sparse pass: n-wide image vectors, the
    dense relation matrix of the extension read column by column, n-wide
    lifts and projections, the dense classes ``delta``, and a scan of all
    tails for each emitter's last one.  It reads the extension through
    ``graphk0.ktheory.desingularize_with_tails`` and presents it through
    ``graphk0.ktheory.compute_k0_row_finite``, so a patched one reaches
    both."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    k1 = compute_k0(g)
    extended, tails = graphk0.ktheory.desingularize_with_tails(
        g, depth, sinks=True, infinite_emitters=True
    )
    k2 = graphk0.ktheory.compute_k0_row_finite(extended)

    groups_match = k1.group_invariants() == k2.group_invariants()

    listings = {f.emitter: emitter_edge_listing(g, f.emitter, depth) for f in k1.cone.families}

    m1 = len(k1.ambient_order)

    def image_vector(u):
        vec = [0] * m1
        if u in tails:
            base, j = tails[u]
            vec[k1.ambient_index(base)] += 1
            for target in listings.get(base, [])[:j]:
                vec[k1.ambient_index(target)] -= 1
        else:
            vec[k1.ambient_index(u)] += 1
        return vec

    well_defined = True
    mat2, _ = relation_matrix(k2.graph)
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

    def induced(e):
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
    for tail, (base, j) in tails.items():
        if base in listings:
            prefix = listings[base][:j]
            counts = {}
            for w in prefix:
                counts[w] = counts.get(w, 0) + 1
            witness = MembershipWitness(
                base_counts=(),
                family_uses=(
                    FamilyUse(emitter=base, count=1, target_counts=tuple(sorted(counts.items()))),
                ),
            )
            target = k1.delta[base]
            for w, c in counts.items():
                target = k1.coker.subtract(target, multiple(k1.coker, c, k1.delta[w]))
        else:
            witness = MembershipWitness(base_counts=((base, 1),), family_uses=())
            target = k1.delta[base]
        if not witness_is_valid(k1, witness) or dense_evaluate_witness(k1, witness) != target:
            cone_prefix_ok = False
        if generator_correspondence_ok and induced(k2.delta[tail]) != target:
            cone_prefix_ok = False
    for base, listing in listings.items():
        prefix = listing[:depth]
        distinct = {}
        for w in prefix:
            distinct[w] = distinct.get(w, 0) + 1
        names = sorted(distinct)
        last_tail = next(t for t, (b, j) in tails.items() if b == base and j == depth)
        for counts in product(*(range(distinct[w] + 1) for w in names)):
            if not any(counts):
                continue
            chosen = dict(zip(names, counts))
            vec = [0] * len(k2.ambient_order)
            vec[k2.ambient_index(base)] += 1
            for w, c in chosen.items():
                vec[k2.ambient_index(w)] -= c
            element = k2.coker.project(vec)
            leftover = {last_tail: 1}
            for w, total in distinct.items():
                leftover[w] = leftover.get(w, 0) + total - chosen[w]
            witness = MembershipWitness(
                base_counts=tuple(sorted((w, c) for w, c in leftover.items() if c)),
                family_uses=(),
            )
            if not witness_is_valid(k2, witness) or dense_evaluate_witness(k2, witness) != element:
                cone_prefix_ok = False

    return ConsistencyReport(groups_match, generator_correspondence_ok, cone_prefix_ok)


TRUE_DESINGULARIZE = graphk0.ktheory.desingularize_with_tails
TRUE_ROW_FINITE = graphk0.ktheory.compute_k0_row_finite


def _emitters(g):
    return [v for v in g.vertices if any(m is INF for _, m in g.out_edges(v))]


def _with_edges(extended, change):
    """``extended`` with its edge table passed through ``change``."""
    mult = {(s, d): m for s, d, m in extended.edges()}
    change(mult)
    return Graph(extended.vertices, {e: m for e, m in mult.items() if m})


def raised_tail_edge(g, depth, **selection):
    """The tail extension with the edge into its first tail vertex doubled."""
    extended, tails = TRUE_DESINGULARIZE(g, depth, **selection)
    tail, (base, _) = next(iter(tails.items()))
    return _with_edges(extended, lambda mult: mult.update({(base, tail): 2})), tails


def swapped_tail_positions(g, depth, **selection):
    """The tail extension with tails 1 and 2 of the first emitter swapped in
    the tail map."""
    extended, tails = TRUE_DESINGULARIZE(g, depth, **selection)
    emitters = _emitters(g)
    if emitters and depth >= 2:
        first, second = (t for t, (b, j) in tails.items() if b == emitters[0] and j <= 2)
        tails[first], tails[second] = tails[second], tails[first]
    return extended, tails


def dropped_listing_edge(g, depth, **selection):
    """The tail extension without the first listing edge of the first
    emitter whose first listed target is reached by finitely many edges."""
    extended, tails = TRUE_DESINGULARIZE(g, depth, **selection)
    for e in _emitters(g):
        target = emitter_edge_listing(g, e, 1)[0]
        if g.multiplicity(e, target) is not INF:
            return _with_edges(extended, lambda mult: mult.pop((e, target))), tails
    return extended, tails


def doubled_section_row(g):
    """The row-finite presentation with its last section row doubled, so
    that its lift is no longer a section."""
    k = TRUE_ROW_FINITE(g)
    k.coker.section[-1] = {i: 2 * x for i, x in k.coker.section[-1].items()}
    return k


def consistency_draws(seed, count):
    """``count`` seeded graphs of at most 5 vertices with an infinite emitter."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, 5, inf_prob=0.35)
        if not predicates(g).row_finite:
            graphs.append(g)
    return graphs


# each fault (the function it replaces, and its replacement) and the number
# of the 40 draws of ``consistency_draws(3201, 40)`` whose report it turns
# from all-True at depth 2.  The first three change the extension of 40, 40
# and 26 draws (14 have no emitter whose first listed target is finite);
# the 2 + 1 left unseen move a tail's image by the class of a target that is
# zero in K0.  Only the generator check sees the last
FAULTS = {
    "raised_tail_edge": ("desingularize_with_tails", raised_tail_edge, 40),
    "swapped_tail_positions": ("desingularize_with_tails", swapped_tail_positions, 38),
    "dropped_listing_edge": ("desingularize_with_tails", dropped_listing_edge, 25),
    "doubled_section_row": ("compute_k0_row_finite", doubled_section_row, 40),
}


class TestSparseConsistency:
    """``verify_desingularization_consistency`` reads sparse image vectors,
    relations off the extension's edges and sparse classes; its reports must
    equal the dense function it replaced (``dense_consistency``), also on
    faulted extensions, which it must catch."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_is_caught(self, fault, monkeypatch):
        name, faulted, expected = FAULTS[fault]
        monkeypatch.setattr(graphk0.ktheory, name, faulted)
        reports = [verify_desingularization_consistency(g, 2) for g in consistency_draws(3201, 40)]
        caught = sum(r != ConsistencyReport(True, True, True) for r in reports)
        assert caught == expected, caught

    def test_against_dense_reference(self, monkeypatch):
        rng = random.Random(3202)
        graphs = consistency_draws(3203, 40)
        graphs += [random_graph(rng, 5, inf_prob=0.0) for _ in range(5)]
        graphs += [random_graph(rng, 12, inf_prob=0.15, edge_prob=0.25) for _ in range(10)]
        for g in graphs:
            for depth in (1, 2, 3, 4):
                report = verify_desingularization_consistency(g, depth)
                assert report == dense_consistency(g, depth), (g.edges(), depth)
        for name, faulted, _ in FAULTS.values():
            monkeypatch.undo()
            monkeypatch.setattr(graphk0.ktheory, name, faulted)
            for g in consistency_draws(3201, 40):
                for depth in (2, 3):
                    report = verify_desingularization_consistency(g, depth)
                    assert report == dense_consistency(g, depth), (g.edges(), depth)

    def test_no_lift_projection_or_dense_classes(self, monkeypatch):
        # counts, not timings: each dense read costs O(n) or builds n dense
        # elements.  Neither the check nor compute_k0, which reads the
        # order unit off the kept classes, may lift, project or read delta
        graphs = consistency_draws(3204, 10)
        graphs.append(Graph(["v", "a", "b"], {("v", "a"): 1, ("v", "b"): INF}))
        runs = [(g, depth) for g in graphs for depth in (1, 2, 3)]
        expected = [verify_desingularization_consistency(*run) for run in runs]

        def refuse(*args):
            raise RuntimeError("lift, project or delta read by the consistency check")

        monkeypatch.setattr(CokerPresentation, "project", refuse)
        monkeypatch.setattr(CokerPresentation, "lift", refuse)
        monkeypatch.setattr(K0Presentation, "delta", property(refuse))
        assert [verify_desingularization_consistency(*run) for run in runs] == expected

    def test_evaluate_witness_against_dense_chain(self):
        # the witnesses of membership verdicts, and arbitrary counts, some
        # negative and some on torsion classes
        rng = random.Random(3205)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, 6, inf_prob=0.25)
            k = compute_k0(g)
            names = g.vertices
            for _ in range(4):
                x = zero_of(k.coker)
                for v in rng.sample(names, min(2, len(names))):
                    x = k.coker.add(x, multiple(k.coker, rng.randint(-2, 2), k.delta[v]))
                verdict = cone_membership(k, x, budget=400)
                witnesses = [verdict.witness] if isinstance(verdict, Member) else []
                checked += len(witnesses)
                uses = []
                for fam in k.cone.families:
                    targets = tuple((w, rng.randint(0, 3)) for w, _ in fam.targets)
                    uses.append(FamilyUse(fam.emitter, rng.randint(0, 3), targets))
                base = tuple((v, rng.randint(-3, 3)) for v in rng.sample(names, len(names)))
                witnesses.append(MembershipWitness(base, tuple(uses)))
                for witness in witnesses:
                    assert evaluate_witness(k, witness) == dense_evaluate_witness(k, witness)
        assert checked >= 40, checked
