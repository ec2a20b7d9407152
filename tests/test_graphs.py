import random
from fractions import Fraction
from itertools import permutations

import pytest

from graphk0 import graphs
from graphk0.graphs import (
    INF,
    Graph,
    VertexClass,
    block_decomposition,
    classify_vertex,
    desingularize,
    desingularize_with_tails,
    emitter_edge_listing,
    predicates,
    satisfies_condition_k,
    simple_loop_census,
    structure,
)
from graphk0.ktheory import compute_k0, trace_cone, trace_rays


def two_loop():
    return Graph(["v"], {("v", "v"): 2})


def infinite_loop():
    return Graph(["v"], {("v", "v"): INF})


def toeplitz():
    return Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})


def brute_census(g, base):
    """Independent oracle: enumerate vertex subsets and cyclic orders."""
    names = list(g.vertices)
    count = 0
    for size in range(1, len(names) + 1):
        for cycle in permutations(names, size):
            if base not in cycle:
                continue
            # count each cycle once: fix the rotation starting at base
            if cycle[0] != base:
                continue
            weight = 1
            ok = True
            for i, src in enumerate(cycle):
                dst = cycle[(i + 1) % size]
                m = g.multiplicity(src, dst)
                if m == 0:
                    ok = False
                    break
                weight *= 2 if (m is INF or m >= 2) else 1
            if ok:
                count += weight
            if count >= 2:
                return 2
    return min(count, 2)


def walk_census(g):
    """Reference oracle: for each vertex, walk every simple path out of it
    inside its strongly connected component and count, with weights
    saturated at 2, the ones that close back at it.  Exponential in the
    worst case; the census proper replaced it."""
    inner = structure(g).inner
    census = {}
    for base, v in enumerate(g.vertices):
        total = 0
        visited = [False] * len(inner)
        visited[base] = True
        stack = [(base, 1, iter(inner[base]))]
        while stack and total < 2:
            u, acc, it = stack[-1]
            for w, k in it:
                weight = min(2, acc * k)
                if w == base:
                    total += weight
                    if total >= 2:
                        break
                elif not visited[w]:
                    visited[w] = True
                    stack.append((w, weight, iter(inner[w])))
                    break
            else:
                stack.pop()
                visited[u] = False
        census[v] = min(total, 2)
    return census


def layered_graph(rng, sizes):
    """Random graph whose edges run inside a block or to a later block, so
    every strongly connected component lies in one block and the edges
    between blocks lead away from every cycle."""
    names = iter(f"v{i}" for i in range(sum(sizes)))
    blocks = [[next(names) for _ in range(size)] for size in sizes]
    mult = {}
    for b, block in enumerate(blocks):
        later = [w for other in blocks[b + 1 :] for w in other]
        for src in block:
            for dst in block:
                if rng.random() < 0.5:
                    mult[(src, dst)] = rng.randint(1, 3)
            for dst in later:
                if rng.random() < 0.3:
                    mult[(src, dst)] = rng.randint(1, 3)
    return Graph([v for block in blocks for v in block], mult)


def has_cycle_by_peeling(g):
    """Independent oracle: repeatedly delete vertices with no out-edge left;
    a cycle exists iff some vertex survives."""
    alive = set(g.vertices)
    while True:
        dead = {v for v in alive if not any(w in alive for w, _ in g.out_edges(v))}
        if not dead:
            return bool(alive)
        alive -= dead


def random_graph(rng, max_vertices=6, max_mult=3, inf_prob=0.0, edge_prob=0.35):
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


class TestGraphModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"], {})
        with pytest.raises(ValueError):
            Graph(["a"], {("a", "b"): 1})
        with pytest.raises(ValueError):
            Graph(["a"], {("a", "a"): -1})
        with pytest.raises(ValueError):
            Graph(["bad name"], {})
        # only the int 0 is "no edge"; other zeros and non-int ones raise
        for m in (False, True, 0.0, 1.0, Fraction(0), Fraction(1), "1", None):
            with pytest.raises(ValueError):
                Graph(["a"], {("a", "a"): m})
        assert Graph(["a"], {("a", "a"): 0}).edges() == []

    def test_zero_multiplicity_dropped(self):
        g = Graph(["a", "b"], {("a", "b"): 0})
        assert g.edges() == []

    def test_classify(self):
        g = Graph(["v"], {})
        assert classify_vertex(g, "v") is VertexClass.SINK
        assert classify_vertex(infinite_loop(), "v") is VertexClass.INFINITE_EMITTER
        g = Graph(["v", "w"], {("v", "w"): 3})
        assert classify_vertex(g, "v") is VertexClass.REGULAR
        assert classify_vertex(g, "w") is VertexClass.SINK
        with pytest.raises(ValueError):
            classify_vertex(g, "nope")

    def test_out_edges_dense_reading(self):
        # out-edges follow declaration order, whatever order the table is in
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng, inf_prob=0.2)
            items = list({(s, d): m for s, d, m in g.edges()}.items())
            rng.shuffle(items)
            shuffled = Graph(g.vertices, dict(items))
            for v in g.vertices:
                dense = [(w, g.multiplicity(v, w)) for w in g.vertices if g.multiplicity(v, w)]
                assert shuffled.out_edges(v) == dense

    def test_classes_partition(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, inf_prob=0.2)
            for v in g.vertices:
                cls = classify_vertex(g, v)
                out = g.out_edges(v)
                if cls is VertexClass.SINK:
                    assert not out
                elif cls is VertexClass.INFINITE_EMITTER:
                    assert any(m is INF for _, m in out)
                else:
                    assert out and all(m is not INF for _, m in out)


def reachable(g):
    """Independent oracle: the vertices each vertex reaches along one or
    more edges."""
    result = {}
    for v in g.vertices:
        seen, stack = set(), [w for w, _ in g.out_edges(v)]
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack += [x for x, _ in g.out_edges(w)]
        result[v] = seen
    return result


class TestGraphStructure:
    @staticmethod
    def check_edges(g):
        """Kinds and out-edges against their definitions; every edge v->w
        runs downstream or inside one component.  Returns the structure."""
        s = structure(g)
        index = {v: i for i, v in enumerate(g.vertices)}
        for v in g.vertices:
            i, out = index[v], g.out_edges(v)
            assert s.out[i] == tuple((index[w], m) for w, m in out)
            if not out:
                assert s.kinds[i] is VertexClass.SINK
            elif any(m is INF for _, m in out):
                assert s.kinds[i] is VertexClass.INFINITE_EMITTER
            else:
                assert s.kinds[i] is VertexClass.REGULAR
            for j, _ in s.out[i]:
                assert s.comp[j] <= s.comp[i]
        return s

    def test_against_reachability(self):
        rng = random.Random(2206)
        for inf_prob in (0.0, 0.3):
            for _ in range(150):
                edge_prob = rng.random() * 0.5
                g = random_graph(rng, max_vertices=7, inf_prob=inf_prob, edge_prob=edge_prob)
                s = self.check_edges(g)
                reach = reachable(g)
                index = {v: i for i, v in enumerate(g.vertices)}
                for v in g.vertices:
                    for u in g.vertices:
                        same = u == v or (u in reach[v] and v in reach[u])
                        assert (s.comp[index[u]] == s.comp[index[v]]) == same, g.edges()
                    # an edge v->w stays in v's component exactly when w reaches v
                    inner = [
                        (index[w], 2 if m is INF or m >= 2 else 1)
                        for w, m in g.out_edges(v)
                        if v in reach[w]
                    ]
                    assert s.inner[index[v]] == tuple(inner), g.edges()

    def test_long_chain_and_cycle(self):
        n = 20000
        names = [f"v{i}" for i in range(n)]
        chain = Graph(names, {(names[i], names[i + 1]): 1 for i in range(n - 1)})
        s = self.check_edges(chain)
        assert all(s.comp[i + 1] < s.comp[i] for i in range(n - 1))
        assert not any(s.inner)
        assert s.kinds[-1] is VertexClass.SINK
        cycle = Graph(names, {(v, names[(i + 1) % n]): 1 for i, v in enumerate(names)})
        s = self.check_edges(cycle)
        assert len(set(s.comp)) == 1
        assert s.inner == tuple((((i + 1) % n, 1),) for i in range(n))

    def test_built_once_per_graph(self, monkeypatch):
        calls = []
        components = graphs._components

        def spy(adj):
            calls.append(len(adj))
            return components(adj)

        monkeypatch.setattr(graphs, "_components", spy)
        g = Graph(
            ["a", "b", "c", "e", "s"],
            {
                ("a", "b"): 1,
                ("b", "a"): 1,
                ("b", "c"): 2,
                ("c", "c"): 1,
                ("e", "a"): INF,
                ("e", "s"): 1,
            },
        )
        compute_k0(g)
        trace_rays(g)
        trace_cone(g)
        predicates(g)
        simple_loop_census(g)
        satisfies_condition_k(g)
        block_decomposition(g)
        classify_vertex(g, "e")
        assert calls == [5]


def reference_out(vertices, multiplicities):
    """The out-edge lists as the constructor built them before it took one
    pass over the edges: every nonzero edge kept, then every list sorted."""
    index = {v: i for i, v in enumerate(vertices)}
    mult = {e: m for e, m in multiplicities.items() if m is INF or m}
    out = {v: [] for v in vertices}
    for (src, dst), m in mult.items():
        out[src].append((dst, m))
    for v in vertices:
        out[v].sort(key=lambda pair: index[pair[0]])
    return out


def reference_structure(g):
    """``structure(g)`` as the comprehensions before the one loop built it."""
    index = {v: i for i, v in enumerate(g.vertices)}
    out = tuple(tuple((index[w], m) for w, m in g.out_edges(v)) for v in g.vertices)
    comp = tuple(graphs._components(out))

    def kind(edges):
        if not edges:
            return VertexClass.SINK
        if any(m is INF for _, m in edges):
            return VertexClass.INFINITE_EMITTER
        return VertexClass.REGULAR

    return graphs.GraphStructure(
        kinds=tuple(map(kind, out)),
        out=out,
        comp=comp,
        inner=tuple(
            tuple((w, 2 if m is INF or m >= 2 else 1) for w, m in edges if comp[w] == comp[v])
            for v, edges in enumerate(out)
        ),
    )


class TestAgainstReference:
    def test_seeded_graphs(self):
        rng = random.Random(2805)
        for _ in range(300):
            n = rng.randint(0, 9)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            mult = {}
            for _ in range(rng.randrange(3 * n + 1)):
                pick = rng.random()
                m = INF if pick < 0.15 else 0 if pick < 0.25 else rng.randint(1, 3)
                mult[(rng.choice(names), rng.choice(names))] = m
            for table in (mult, dict(reversed(list(mult.items())))):
                g = Graph(names, table)
                want = reference_out(names, table)
                assert {v: g.out_edges(v) for v in names} == want
                assert g.edges() == [(v, w, m) for v in names for w, m in want[v]]
                assert structure(g) == reference_structure(g)

    @pytest.mark.parametrize(
        "vertices, table, message",
        [
            ([3], {}, "invalid vertex name 3"),
            ([None], {}, "invalid vertex name None"),
            (["bad name"], {}, "invalid vertex name 'bad name'"),
            ([""], {}, "invalid vertex name ''"),
            (["a\n"], {}, "invalid vertex name 'a\\n'"),
            (["a", "b", "a"], {}, "duplicate vertex 'a'"),
            (["a"], {("a", "b"): 1}, "edge endpoint not declared: 'a' -> 'b'"),
            (["a"], {("c", "a"): 1}, "edge endpoint not declared: 'c' -> 'a'"),
            (["a"], {("a", "a"): True}, "invalid multiplicity True for 'a' -> 'a'"),
            (["a"], {("a", "a"): False}, "invalid multiplicity False for 'a' -> 'a'"),
            (["a"], {("a", "a"): 1.0}, "invalid multiplicity 1.0 for 'a' -> 'a'"),
            (["a"], {("a", "a"): -1}, "invalid multiplicity -1 for 'a' -> 'a'"),
            # the first bad edge in the table's order is the one reported
            (
                ["a", "b"],
                {("a", "b"): 1, ("b", "a"): -2, ("a", "c"): 1},
                "invalid multiplicity -2 for 'b' -> 'a'",
            ),
        ],
    )
    def test_constructor_messages(self, vertices, table, message):
        with pytest.raises(ValueError) as exc:
            Graph(vertices, table)
        assert str(exc.value) == message


class TestBlockDecomposition:
    def test_toeplitz(self):
        bd = block_decomposition(toeplitz())
        assert bd.regular == ("v",)
        assert bd.singular == ("w",)

    def test_two_loop(self):
        bd = block_decomposition(two_loop())
        assert bd.regular == ("v",)
        assert bd.singular == ()

    def test_infinite_loop(self):
        bd = block_decomposition(infinite_loop())
        assert bd.regular == ()
        assert bd.singular == ("v",)


class TestPredicates:
    def test_two_loop(self):
        p = predicates(two_loop())
        assert (p.row_finite, p.has_loop, p.is_af, p.unital) == (True, True, False, True)

    def test_path(self):
        p = predicates(Graph(["v", "w"], {("v", "w"): 1}))
        assert (p.row_finite, p.has_loop, p.is_af, p.unital) == (True, False, True, True)

    def test_infinite_loop(self):
        p = predicates(infinite_loop())
        assert (p.row_finite, p.has_loop, p.is_af, p.unital) == (False, True, False, True)
        assert p.singular_vertices == ("v",)

    def test_has_loop_against_peeling(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng, max_vertices=7, inf_prob=0.1, edge_prob=rng.random() * 0.4)
            p = predicates(g)
            assert p.has_loop == has_cycle_by_peeling(g), g.edges()
            assert p.is_af == (not p.has_loop)


class TestSimpleLoopCensus:
    def test_two_loop(self):
        assert simple_loop_census(two_loop()) == {"v": 2}

    def test_toeplitz(self):
        assert simple_loop_census(toeplitz()) == {"v": 1, "w": 0}

    def test_two_cycle_plus_loop(self):
        g = Graph(["v", "w"], {("v", "w"): 1, ("w", "v"): 1, ("v", "v"): 1})
        assert simple_loop_census(g) == {"v": 2, "w": 1}

    def test_condition_k(self):
        assert not satisfies_condition_k(toeplitz())
        assert satisfies_condition_k(two_loop())
        assert satisfies_condition_k(Graph(["v", "w"], {("v", "w"): 1}))

    def test_against_brute_force(self):
        rng = random.Random(555)
        for _ in range(60):
            g = random_graph(rng, max_vertices=6, inf_prob=0.15)
            census = simple_loop_census(g)
            for v in g.vertices:
                assert census[v] == brute_census(g, v), (g.edges(), v)
            assert satisfies_condition_k(g) == all(c != 1 for c in census.values())

    def test_acyclic_vertices_have_zero(self):
        rng = random.Random(808)
        for _ in range(30):
            g = random_graph(rng, max_vertices=5)
            census = simple_loop_census(g)
            if not predicates(g).has_loop:
                assert all(c == 0 for c in census.values())

    def test_against_brute_force_several_components(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(7, 8)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
            g = layered_graph(rng, [b - a for a, b in zip([0] + cuts, cuts + [n])])
            census = simple_loop_census(g)
            for v in g.vertices:
                assert census[v] == brute_census(g, v), (g.edges(), v)

    def test_long_cycle_needs_no_recursion(self):
        # a recursive walk overflowed the interpreter stack here
        names = [f"c{i}" for i in range(1200)]
        g = Graph(names, {(v, names[(i + 1) % len(names)]): 1 for i, v in enumerate(names)})
        assert simple_loop_census(g) == {v: 1 for v in names}
        assert predicates(g).has_loop

    def test_one_search_per_chain(self, monkeypatch):
        # counts, not timings: the vertices of a chain of weight-1 edges lie
        # on the same cycles, so a unit cycle of 10,000 vertices with one
        # exit is searched once; behind a vertex with a loop, the chain is
        # entered in its middle and shared forwards and backwards
        calls = []
        search = graphs._cycles_through

        def counted(inner, base):
            calls.append(base)
            return search(inner, base)

        monkeypatch.setattr(graphs, "_cycles_through", counted)
        n = 10_000
        names = [f"c{i}" for i in range(n)]
        mult = {(v, names[(i + 1) % n]): 1 for i, v in enumerate(names)}
        g = Graph([*names, "exit"], {**mult, ("c0", "exit"): 1})
        assert simple_loop_census(g) == {**{v: 1 for v in names}, "exit": 0}
        assert len(calls) == 1
        calls.clear()
        mult = {(v, w): 1 for v, w in zip(names, names[1:])}
        mult.update({(names[-1], "x"): 1, ("x", "c0"): 1, ("x", "x"): 1})
        g = Graph([*names[n // 2 :], "x", *names[: n // 2]], mult)
        assert simple_loop_census(g) == {**{v: 1 for v in names}, "x": 2}
        assert calls == [g.index(names[n // 2])]

    def test_dead_end_branches_are_not_walked(self):
        # v has a loop and an edge into 40 diamond layers that never lead
        # back: 2**40 simple paths, none of them on a cycle
        layers = 40
        names = ["v"] + [f"d{i}" for i in range(layers + 1)]
        mult = {("v", "v"): 1, ("v", "d0"): 1}
        for i in range(layers):
            for side in ("a", "b"):
                names.append(f"{side}{i}")
                mult[(f"d{i}", f"{side}{i}")] = 1
                mult[(f"{side}{i}", f"d{i + 1}")] = 1
        census = simple_loop_census(Graph(names, mult))
        assert census == {v: int(v == "v") for v in names}

    def test_dead_end_branches_inside_the_component(self):
        # base <-> c, and c -> u0 -> ... -> u40 -> c where each u_i reaches
        # u_{i+1} through both a_i and b_i: 2**40 simple paths from c back
        # to c, all inside base's component, none of them through base
        layers = 40
        names = ["base", "c"] + [f"u{i}" for i in range(layers + 1)]
        mult = {("base", "c"): 1, ("c", "base"): 1, ("c", "u0"): 1, (f"u{layers}", "c"): 1}
        for i in range(layers):
            for side in ("a", "b"):
                names.append(f"{side}{i}")
                mult[(f"u{i}", f"{side}{i}")] = 1
                mult[(f"{side}{i}", f"u{i + 1}")] = 1
        census = simple_loop_census(Graph(names, mult))
        assert census == {v: 1 if v == "base" else 2 for v in names}

    def test_against_exhaustive_walk(self):
        # dense draws with loops, multiplicities 2 and 3 and infinite edges;
        # every way the census reads a vertex must be taken, and the search
        # must give both 1 and 2
        rng = random.Random(2025)
        seen = {}
        for _ in range(2000):
            g = random_graph(
                rng,
                max_vertices=9,
                max_mult=rng.choice([1, 1, 1, 3]),
                inf_prob=0.05,
                edge_prob=rng.choice([0.25, 0.3, 0.6]),
            )
            census = simple_loop_census(g)
            assert census == walk_census(g), g.edges()
            inner = structure(g).inner
            in_weight = [0] * len(inner)
            for edges in inner:
                for w, k in edges:
                    in_weight[w] += k
            for u, v in enumerate(g.vertices):
                out_weight = sum(k for _, k in inner[u])
                if out_weight >= 2:
                    branch = "out"
                elif in_weight[u] >= 2:
                    branch = "in"
                else:
                    branch = "search" if out_weight else "none"
                seen.setdefault(branch, set()).add(census[v])
        assert seen == {"none": {0}, "out": {2}, "in": {2}, "search": {1, 2}}

    def test_search_unblocks_after_a_cycle(self):
        # from v1 the search closes v1 v2 v0 first; v3 failed on the way (v0
        # was on the path) and must be freed again to close v1 v2 v3 v0
        edges = [("v0", "v1"), ("v0", "v3"), ("v1", "v2"), ("v2", "v0"), ("v2", "v3"), ("v3", "v0")]
        census = simple_loop_census(Graph(["v0", "v1", "v2", "v3"], dict.fromkeys(edges, 1)))
        assert census == {"v0": 2, "v1": 2, "v2": 2, "v3": 2}

    def test_exhaustive_walk_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, max_vertices=6, inf_prob=0.1, edge_prob=0.5)
            assert walk_census(g) == {v: brute_census(g, v) for v in g.vertices}, g.edges()


class TestDesingularize:
    def test_infinite_loop_depth3(self):
        out = desingularize(infinite_loop(), 3)
        assert out.vertices == ("v", "v__t1", "v__t2", "v__t3")
        edges = set((s, d) for s, d, _ in out.edges())
        assert edges == {
            ("v", "v__t1"),
            ("v", "v"),
            ("v__t1", "v__t2"),
            ("v__t1", "v"),
            ("v__t2", "v__t3"),
            ("v__t2", "v"),
        }
        assert classify_vertex(out, "v__t3") is VertexClass.SINK

    def test_sink_tail(self):
        g = Graph(["w"], {})
        out = desingularize(g, 2, sinks=True, infinite_emitters=False)
        assert out.vertices == ("w", "w__t1", "w__t2")
        assert [(s, d) for s, d, _ in out.edges()] == [
            ("w", "w__t1"),
            ("w__t1", "w__t2"),
        ]

    def test_mixed_finite_and_infinite(self):
        g = Graph(
            ["v", "a", "b"],
            {("v", "a"): 1, ("v", "b"): INF},
        )
        out = desingularize(g, 2, sinks=False, infinite_emitters=True)
        edges = set((s, d) for s, d, _ in out.edges())
        assert ("v", "v__t1") in edges
        assert ("v", "a") in edges
        assert ("v__t1", "v__t2") in edges
        assert ("v__t1", "b") in edges
        assert predicates(out).row_finite

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            desingularize(infinite_loop(), 0)

    def test_row_finite_after(self):
        rng = random.Random(91)
        for _ in range(40):
            g = random_graph(rng, max_vertices=4, inf_prob=0.4)
            out = desingularize(g, rng.randint(1, 3), sinks=rng.random() < 0.5)
            assert predicates(out).row_finite

    def test_deterministic(self):
        from graphk0.textio import serialize_graph

        g = Graph(["v", "a"], {("v", "v"): INF, ("v", "a"): 2})
        one = desingularize(g, 3)
        two = desingularize(g, 3)
        assert one == two
        assert serialize_graph(one) == serialize_graph(two)

    def test_name_collision(self):
        g = Graph(["v", "v__t1"], {("v", "v"): INF})
        out, tails = desingularize_with_tails(g, 1)
        assert len(set(out.vertices)) == len(out.vertices)
        assert all(t not in g.vertices for t in tails)

    def test_no_singular_identity(self):
        g = two_loop()
        assert desingularize(g, 5) == g


class TestEdgeListing:
    def test_finite_first_then_round_robin(self):
        g = Graph(
            ["v", "a", "b", "c"],
            {("v", "a"): 2, ("v", "b"): INF, ("v", "c"): INF},
        )
        assert emitter_edge_listing(g, "v", 6) == ["a", "a", "b", "c", "b", "c"]

    def test_too_short(self):
        g = Graph(["v", "a"], {("v", "a"): 2})
        with pytest.raises(ValueError):
            emitter_edge_listing(g, "v", 3)
