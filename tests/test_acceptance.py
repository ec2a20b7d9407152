"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
from fractions import Fraction
from itertools import product

from graphk0.graphs import (
    INF,
    Graph,
    predicates,
    satisfies_condition_k,
)
from graphk0.ktheory import (
    IsomorphicCandidate,
    Member,
    NotIsomorphic,
    NotMember,
    ThreeValued,
    UnknownMembership,
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
from graphk0.linalg import (
    Element,
    determinant,
    mat_mul,
    smith_normal_form,
)
from graphk0.textio import ParseError, parse_graph, serialize_graph
from graphk0.traces import (
    NoTrace,
    extreme_traces,
    find_graph_trace,
    state_to_trace,
    trace_to_state,
)
from test_linalg import diagonal, zero_of


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


GENERATOR_ONE = Element(torsion=(), free=(1,))


def test_criterion_1_known_algebra_table():
    # one-vertex n-loop graphs: Z/(n-1), cone = whole group
    for n in range(2, 7):
        k = compute_k0(loops(n))
        expected = (0, ()) if n == 2 else (0, (n - 1,))
        assert k.group_invariants() == expected
        props = order_properties(k)
        assert props.cone_is_everything is ThreeValued.YES
    # n-vertex line graphs: (Z, N) with order unit n
    for n in range(2, 7):
        k = compute_k0(line_graph(n))
        assert k.group_invariants() == (1, ())
        assert all(k.delta[v] == GENERATOR_ONE for v in k.graph.vertices)
        assert k.order_unit == Element(torsion=(), free=(n,))
        assert isinstance(cone_membership(k, GENERATOR_ONE), Member)
        assert isinstance(
            cone_membership(k, Element(torsion=(), free=(-1,))), NotMember
        )
        props = order_properties(k)
        assert props.cone_is_everything is ThreeValued.NO
        assert props.cone_pointed is ThreeValued.YES
    # Toeplitz: (Z, N) with [w] = 0
    k = compute_k0(toeplitz())
    assert k.group_invariants() == (1, ())
    assert k.delta["v"] == GENERATOR_ONE
    assert k.delta["w"] == Element(torsion=(), free=(0,))
    assert isinstance(cone_membership(k, Element(torsion=(), free=(-1,))), NotMember)
    assert order_properties(k).cone_pointed is ThreeValued.YES
    # one-vertex infinite-loop graph: (Z, Z)
    k = compute_k0(infinite_loop())
    assert k.group_invariants() == (1, ())
    assert order_properties(k).cone_is_everything is ThreeValued.YES
    print("criterion 1 (known-algebra oracle table): PASS")


def test_criterion_2_lemma_theorem_agreement():
    rng = random.Random(20002)
    for _ in range(200):
        g = random_graph(rng, 6, max_mult=3)
        assert predicates(g).row_finite
        k1 = compute_k0(g)
        k2 = compute_k0_row_finite(g)
        assert k1.coker.free_rank == k2.coker.free_rank
        assert k1.coker.torsion_moduli == k2.coker.torsion_moduli
        assert k1.delta == k2.delta
        assert k1.order_unit == k2.order_unit
    print("criterion 2 (general/row-finite agreement on 200 graphs): PASS")


def test_criterion_3_desingularization_consistency():
    rng = random.Random(30003)
    done = 0
    while done < 100:
        g = random_graph(rng, 5, max_mult=3, inf_prob=0.35)
        if predicates(g).row_finite:
            continue
        done += 1
        reports = []
        for depth in (1, 2, 3, 4):
            r = verify_desingularization_consistency(g, depth)
            assert r.groups_match, (g.edges(), depth)
            assert r.generator_correspondence_ok, (g.edges(), depth)
            assert r.cone_prefix_ok, (g.edges(), depth)
            reports.append(r)
        # invariance under vertex-order permutation
        names = list(g.vertices)
        rng.shuffle(names)
        permuted = Graph(
            names, {(s, d): m for s, d, m in g.edges()}
        )
        assert compute_k0(permuted).group_invariants() == compute_k0(g).group_invariants()
        for depth, r in zip((1, 2, 3, 4), reports):
            assert verify_desingularization_consistency(permuted, depth) == r
    print("criterion 3 (tail-extension consistency, 100 graphs x depths 1-4): PASS")


def test_criterion_4_membership_vs_brute_force():
    rng = random.Random(40004)
    disagreements = 0
    unknowns = 0
    total = 0
    for _ in range(50):
        g = random_graph(rng, 4, max_mult=3)
        k = compute_k0(g)
        # independent oracle: all sums of at most 12 vertex classes
        gens = [k.delta[v] for v in g.vertices if not k.delta[v].is_zero()]
        reachable = {zero_of(k.coker)}
        frontier = {zero_of(k.coker)}
        for _ in range(12):
            nxt = set()
            for e in frontier:
                for gen in gens:
                    s = k.coker.add(e, gen)
                    if s not in reachable:
                        nxt.add(s)
            reachable |= nxt
            frontier = nxt
            if not frontier:
                break
        seen = set()
        m = len(k.ambient_order)
        for point in product(range(-5, 6), repeat=m):
            x = k.coker.project(list(point))
            if x in seen:
                continue
            seen.add(x)
            total += 1
            verdict = cone_membership(k, x, budget=10**6)
            if isinstance(verdict, Member):
                assert witness_is_valid(k, verdict.witness)
                assert evaluate_witness(k, verdict.witness) == x
            elif isinstance(verdict, NotMember):
                assert functional_certifies(k, verdict.functional, x)
                if x in reachable:
                    disagreements += 1
            else:
                assert isinstance(verdict, UnknownMembership)
                unknowns += 1
    assert disagreements == 0
    assert unknowns < total * 0.05, f"{unknowns}/{total} unknowns"
    print(
        f"criterion 4 (membership vs brute force, {total} queries, "
        f"{unknowns} unknown): PASS"
    )


def test_criterion_5_trace_suite():
    assert isinstance(find_graph_trace(loops(2)), NoTrace)
    assert find_graph_trace(line_graph(2)).as_dict() == {
        "v1": Fraction(1, 2),
        "v2": Fraction(1, 2),
    }
    assert find_graph_trace(toeplitz()).as_dict() == {
        "v": Fraction(1),
        "w": Fraction(0),
    }
    assert [t.as_dict() for t in extreme_traces(Graph(["a", "b"], {}))] == [
        {"a": Fraction(0), "b": Fraction(1)},
        {"a": Fraction(1), "b": Fraction(0)},
    ]
    rng = random.Random(50005)
    round_trips = 0
    for _ in range(100):
        g = random_graph(rng, 5, inf_prob=0.2)
        extremes = extreme_traces(g)
        if not extremes:
            continue
        k = compute_k0(g)
        for t in extremes:
            state = trace_to_state(g, k, t)
            assert state_to_trace(g, k, state) == t
            round_trips += 1
    assert round_trips > 0
    print(f"criterion 5 (trace suite, {round_trips} round-trips): PASS")


def test_criterion_6_smith_normal_form_properties():
    rng = random.Random(60006)
    from itertools import combinations
    from math import gcd as _gcd

    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(a)
        assert mat_mul(mat_mul(snf.u, a), snf.v) == diagonal(snf, rows, cols)
        assert determinant(snf.u) in (1, -1)
        assert determinant(snf.v) in (1, -1)
        d = snf.invariant_factors
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        for k in range(1, min(3, rows, cols) + 1):
            g = 0
            for ri in combinations(range(rows), k):
                for ci in combinations(range(cols), k):
                    g = _gcd(g, determinant([[a[i][j] for j in ci] for i in ri]))
            prod = 1
            for x in d[:k]:
                prod *= x
            if k <= len(d):
                assert prod == abs(g)
            else:
                assert g == 0
    print("criterion 6 (Smith normal form properties, 500 matrices): PASS")


def test_criterion_7_predicate_corpus():
    # ten curated graphs with hand labels (condition K, AF)
    corpus = [
        ("toeplitz", toeplitz(), False, False),
        ("two-loop", loops(2), True, False),
        (
            "two-cycle-plus-loop",
            Graph(["v", "w"], {("v", "w"): 1, ("w", "v"): 1, ("v", "v"): 1}),
            False,
            False,
        ),
        ("line-3", line_graph(3), True, True),
        ("infinite-loop", infinite_loop(), True, False),
        ("isolated", Graph(["v"], {}), True, True),
        ("single-loop", Graph(["v"], {("v", "v"): 1}), False, False),
        ("plain-2-cycle", Graph(["a", "b"], {("a", "b"): 1, ("b", "a"): 1}), False, False),
        (
            "weighted-2-cycle",
            Graph(["a", "b"], {("a", "b"): 2, ("b", "a"): 1}),
            True,
            False,
        ),
        (
            "diamond",
            Graph(
                ["a", "b", "c", "d"],
                {("a", "b"): 1, ("a", "c"): 1, ("b", "d"): 1, ("c", "d"): 1},
            ),
            True,
            True,
        ),
    ]
    assert len(corpus) == 10
    for name, g, want_k, want_af in corpus:
        assert satisfies_condition_k(g) == want_k, name
        assert predicates(g).is_af == want_af, name
    print("criterion 7 (predicates on 10 curated graphs): PASS")


def test_criterion_8_parser_round_trip_and_fuzz():
    corpus = [
        loops(2),
        loops(3),
        toeplitz(),
        infinite_loop(),
        line_graph(4),
        Graph(["a", "b"], {}),
        Graph(["x", "y"], {("x", "y"): INF, ("y", "x"): 7}),
    ]
    for g in corpus:
        text = serialize_graph(g)
        assert parse_graph(text).graph == g
        assert serialize_graph(parse_graph(text).graph) == text
    rng = random.Random(80008)
    parsed = 0
    rejected = 0
    for _ in range(10**4):
        size = rng.randrange(0, 1024)
        blob = bytes(rng.randrange(256) for _ in range(size))
        try:
            parse_graph(blob)
            parsed += 1
        except ParseError:
            rejected += 1
    assert parsed + rejected == 10**4
    print(f"criterion 8 (parser round-trip + fuzz, {rejected} rejected): PASS")


def test_criterion_9_comparisons():
    o2, o3 = compute_k0(loops(2)), compute_k0(loops(3))
    assert isinstance(compare_k0(o2, o3), NotIsomorphic)

    m2, m3 = compute_k0(line_graph(2)), compute_k0(line_graph(3))
    assert isinstance(compare_k0(m2, m3, use_order_unit=True), NotIsomorphic)

    verdict = compare_k0(m2, m3, use_order_unit=False)
    assert isinstance(verdict, IsomorphicCandidate)
    moduli = m2.coker.torsion_moduli
    # the returned map re-verifies: group iso both ways, cone preserved on classes
    for v in m2.graph.vertices:
        image = apply_iso(moduli, verdict.iso, m2.delta[v])
        assert isinstance(cone_membership(m3, image), Member)
    for v in m3.graph.vertices:
        image = apply_iso(moduli, verdict.inverse, m3.delta[v])
        assert isinstance(cone_membership(m2, image), Member)
    assert apply_iso(moduli, verdict.inverse, apply_iso(moduli, verdict.iso, GENERATOR_ONE)) == GENERATOR_ONE
    print("criterion 9 (comparison verdicts): PASS")
