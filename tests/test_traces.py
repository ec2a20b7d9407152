import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import pytest
from test_graphs import random_graph as shared_random_graph
from test_linalg import relation_matrix

import graphk0
import graphk0.ktheory as kt
from graphk0 import CertificateError, polytope_vertices
from graphk0.graphs import INF, Graph, VertexClass, classify_vertex, structure
from graphk0.ktheory import compute_k0, nonnegative_on_cone, trace_rays
from graphk0.lp import EQ, GE, LE, FarkasCertificate, Feasible, Infeasible, solve_lp, verify_farkas
from graphk0.traces import (
    GraphTrace,
    NoTrace,
    StateOnK0,
    extreme_traces,
    find_graph_trace,
    no_trace,
    state_to_trace,
    trace_constraints,
    trace_to_state,
    tracial_state_report,
    verify_graph_trace,
    verify_state,
)


def two_loop():
    return Graph(["v"], {("v", "v"): 2})


def m2():
    return Graph(["v", "w"], {("v", "w"): 1})


def toeplitz():
    return Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})


def random_graph(rng, max_vertices=5, inf_prob=0.2, edge_prob=0.4):
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    mult = {}
    for src in names:
        for dst in names:
            if rng.random() < edge_prob:
                mult[(src, dst)] = INF if rng.random() < inf_prob else rng.randint(1, 3)
    return Graph(names, mult)


class TestTraceConstraints:
    def test_m2(self):
        poly = trace_constraints(m2())
        # one regular-vertex equality plus the norm row, each as its
        # nonzero (index, coefficient) entries
        assert len(poly.equalities) == 2
        assert (((0, 1), (1, -1)), 0) in poly.equalities
        assert (((0, 1), (1, 1)), 1) in poly.equalities
        assert poly.forced_zero == frozenset()

    def test_infinite_self_loop_forces_zero(self):
        poly = trace_constraints(Graph(["v"], {("v", "v"): INF}))
        assert poly.forced_zero == {"v"}
        assert (((0, 1),), 0) in poly.equalities

    def test_single_sink(self):
        poly = trace_constraints(Graph(["w"], {}))
        assert poly.equalities == ((((0, 1),), 1),)
        assert poly.inequalities == ()

    def test_emitter_inequality(self):
        g = Graph(["v", "a", "b"], {("v", "a"): 2, ("v", "b"): INF})
        poly = trace_constraints(g)
        assert poly.forced_zero == {"b"}
        assert (((0, -1), (1, 2)), 0) in poly.inequalities


class TestFindGraphTrace:
    def test_two_loop_has_none(self):
        res = find_graph_trace(two_loop())
        assert isinstance(res, NoTrace)

    def test_no_trace_certificate_verifies(self):
        res = find_graph_trace(two_loop())
        poly = trace_constraints(two_loop())
        n = len(poly.variables)
        assert verify_farkas(n, poly.constraints(), [True] * n, res.certificate)

    def test_m2(self):
        res = find_graph_trace(m2())
        assert isinstance(res, GraphTrace)
        assert res.as_dict() == {"v": Fraction(1, 2), "w": Fraction(1, 2)}

    def test_toeplitz(self):
        res = find_graph_trace(toeplitz())
        assert isinstance(res, GraphTrace)
        assert res.as_dict() == {"v": Fraction(1), "w": Fraction(0)}

    def test_infinite_loop_has_none(self):
        res = find_graph_trace(Graph(["v"], {("v", "v"): INF}))
        assert isinstance(res, NoTrace)


class TestExtremeTraces:
    def test_two_isolated_vertices(self):
        res = extreme_traces(Graph(["a", "b"], {}))
        assert [t.as_dict() for t in res] == [
            {"a": Fraction(0), "b": Fraction(1)},
            {"a": Fraction(1), "b": Fraction(0)},
        ]

    def test_m2_point(self):
        res = extreme_traces(m2())
        assert len(res) == 1
        assert res[0].as_dict() == {"v": Fraction(1, 2), "w": Fraction(1, 2)}

    def test_single_self_loop(self):
        res = extreme_traces(Graph(["v"], {("v", "v"): 1}))
        assert [t.as_dict() for t in res] == [{"v": Fraction(1)}]

    def test_empty_iff_no_trace(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng)
            extremes = extreme_traces(g)
            found = find_graph_trace(g)
            assert bool(extremes) == isinstance(found, GraphTrace)
            for t in extremes:
                assert verify_graph_trace(g, t)
                assert t.norm == 1


def dense_row(n, terms):
    row = [0] * n
    for j, c in terms:
        row[j] = c
    return tuple(row)


def dense(n, rows):
    """``(terms, rhs)`` rows as ``(coefficients, rhs)`` over ``n`` variables."""
    return [(dense_row(n, terms), rhs) for terms, rhs in rows]


def sparse(rows):
    """``(coefficients, rhs)`` rows as ``(terms, rhs)``."""
    return tuple((tuple((j, c) for j, c in enumerate(row) if c), rhs) for row, rhs in rows)


def reference_extremes(g):
    """The vertices of the norm-one trace polytope from the double
    description enumerator."""
    poly = trace_constraints(g)
    n = len(poly.variables)
    return polytope_vertices(n, dense(n, poly.equalities), dense(n, poly.inequalities))


def sparse_random_graph(rng, size, inf_prob=0.0):
    """Each vertex draws 0-3 edges to uniform targets, of multiplicity 1-3
    or infinite, so about a quarter of the vertices are sinks."""
    edges = {}
    for v in range(size):
        for _ in range(rng.randrange(4)):
            key = (f"v{v}", f"v{rng.randrange(size)}")
            m = INF if rng.random() < inf_prob else rng.randrange(1, 4)
            edges[key] = INF if INF in (m, edges.get(key)) else edges.get(key, 0) + m
    return Graph([f"v{v}" for v in range(size)], edges)


def fraction_order(g):
    """The extreme points sorted as tuples of ``Fraction``s, the order of
    ``extreme_traces`` before it sorted integer keys."""
    return sorted(tuple(Fraction(c, sum(h)) for c in h) for h in trace_rays(g))


class TestTraceRays:
    HAND_CASES = {
        # t(e) = t(a) = 0, though the equality rows allow t(a) = 2 t(e)
        "emitter-two-cycle": (
            Graph(["e", "a", "u"], {("e", "a"): 1, ("a", "e"): 2, ("e", "u"): INF}),
            [],
        ),
        "unit-cycle-with-exit": (
            Graph(["a", "b", "c", "s"], {("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("c", "s"): 1}),
            [(1, 1, 0, 0)],
        ),
        "emitter-on-unit-cycle": (
            Graph(
                ["a", "e", "u", "p"],
                {("a", "e"): 1, ("e", "a"): 1, ("e", "u"): INF, ("p", "a"): 2},
            ),
            [(1, 1, 0, 2)],
        ),
        "loops-of-multiplicity-1-and-2": (
            Graph(
                ["x", "y", "p", "s"],
                {("x", "x"): 1, ("y", "y"): 2, ("p", "x"): 1, ("p", "y"): 1, ("p", "s"): 3},
            ),
            [(1, 0, 1, 0), (0, 0, 3, 1)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(HAND_CASES))
    def test_hand_cases(self, name):
        g, rays = self.HAND_CASES[name]
        assert trace_rays(g) == rays
        got = [tuple(v for _, v in t.values) for t in extreme_traces(g)]
        assert got == reference_extremes(g)

    def test_against_reference_on_random_graphs(self):
        rng = random.Random(17)
        extremes = emitters = 0
        for i in range(400):
            g = shared_random_graph(rng, 7, inf_prob=(0.0, 0.2, 0.5)[i % 3])
            got = [tuple(v for _, v in t.values) for t in extreme_traces(g)]
            assert got == reference_extremes(g), g.edges()
            assert got == fraction_order(g), g.edges()
            extremes += len(got)
            emitters += any(classify_vertex(g, v) is VertexClass.INFINITE_EMITTER for v in g.vertices)
        assert extremes > 200 and emitters > 150

    def test_order_on_larger_draws(self):
        # extreme_traces sorts the rays scaled to a common norm as integer
        # tuples; on draws with many rays of different norms that is the
        # order of the points as Fraction tuples
        rng = random.Random(41)
        mixed = 0
        for i in range(60):
            g = sparse_random_graph(rng, rng.randint(10, 60), inf_prob=(0.0, 0.05)[i % 2])
            got = [tuple(v for _, v in t.values) for t in extreme_traces(g)]
            assert got == fraction_order(g), g.edges()
            mixed += len({sum(h) for h in trace_rays(g)}) >= 3
        assert mixed >= 30

    def test_bad_rays_raise_without_asserts(self):
        # a truncated or corrupted construction, a corrupted sparse c_b
        # among them, fails the re-check of trace_rays under `python -O`
        # too, and extreme_traces, which does not check its points again,
        # raises through it
        script = textwrap.dedent(
            """
            import graphk0.ktheory as kt
            from graphk0 import CertificateError, Graph, INF
            from graphk0.traces import extreme_traces

            g = Graph(["v", "a", "b", "c"], {("v", "a"): 1, ("v", "b"): 1, ("c", "c"): 2})
            build = kt._component_rays

            def ray_dropped(coefficients, zero, rays):
                return coefficients, zero, rays[:-1]

            def element_dropped(coefficients, zero, rays):
                return coefficients[:-1], zero, rays[:-1]

            def ray_corrupted(coefficients, zero, rays):
                return coefficients, zero, [(2, *rays[0][1:]), *rays[1:]]

            def zero_enlarged(coefficients, zero, rays):
                return coefficients, [1, *zero], rays

            def coefficient_corrupted(coefficients, zero, rays):
                (j, c), *rest = coefficients[0]
                return [((j, c + 1), *rest), *coefficients[1:]], zero, rays

            bad_kinds = (ray_dropped, element_dropped, ray_corrupted, zero_enlarged, coefficient_corrupted)
            print(len(build(g, kt.trace_cone(g))[2]), "rays")
            for bad in bad_kinds:
                kt._component_rays = lambda g, cone: bad(*build(g, cone))
                for entry in (kt.trace_rays, extreme_traces):
                    try:
                        entry(g)
                    except CertificateError:
                        print("debug", __debug__, bad.__name__, entry.__name__, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "2 rays\n"
            + "".join(
                f"debug False {bad} {entry} raised\n"
                for bad in (
                    "ray_dropped",
                    "element_dropped",
                    "ray_corrupted",
                    "zero_enlarged",
                    "coefficient_corrupted",
                )
                for entry in ("trace_rays", "extreme_traces")
            )
        )


def completeness_proof(g, zero=()):
    """``trace_rays``' completeness system and its walk certificate, as the
    last three arguments of ``verify_farkas``, with Z enlarged by ``zero``."""
    cone = kt.trace_cone(g)
    coefficients, z, _ = kt._component_rays(g, cone)
    zero = sorted({*z, *(g.index(v) for v in zero)})
    return kt._completeness(g, cone, cone.constraints(), coefficients, zero)


class TestCompletenessCertificate:
    # trace_rays proves that no trace is positive on Z or on the slack of an
    # emitter that is not a boundary element with a Farkas certificate built
    # from walks; solve_lp on the same system must find it infeasible too
    HAND_CASES = {
        # a non-boundary slack outside Z, paid for by the walk round a-b
        "emitter-on-unit-cycle": Graph(
            ["a", "e", "b", "u", "s"],
            {("a", "e"): 1, ("e", "b"): 1, ("b", "a"): 1, ("e", "u"): INF, ("a", "s"): 1},
        ),
        # {e, w} is one component only through e -> w inf
        "held-by-inf-edge": Graph(
            ["p", "e", "w", "s"],
            {("p", "e"): 1, ("e", "w"): INF, ("e", "s"): 1, ("w", "e"): 1, ("w", "s"): 2},
        ),
        "loop-of-multiplicity-2": Graph(
            ["p", "v", "s"], {("p", "v"): 1, ("p", "s"): 1, ("v", "v"): 2, ("v", "s"): 1}
        ),
        "long-exit-chain": Graph(
            ["a", "b", *(f"c{i}" for i in range(12))],
            {
                ("a", "b"): 1,
                ("b", "a"): 1,
                ("b", "c0"): 1,
                **{(f"c{i}", f"c{i + 1}"): 1 for i in range(11)},
            },
        ),
        # emitters on a unit cycle inside Z, below a cycle of inner weight 3
        "unit-cycle-in-z": Graph(
            ["x", "y", "e", "f", "u"],
            {
                ("x", "y"): 1, ("y", "x"): 2, ("x", "e"): 1, ("e", "f"): 1,
                ("f", "e"): 1, ("e", "u"): INF, ("f", "u"): INF,
            },
        ),
    }

    def check(self, g):
        n = len(g.vertices)
        proof = completeness_proof(g)
        assert proof is not None
        assert verify_farkas(n, *proof)
        assert all(isinstance(m, int) for m in proof[2].multipliers)
        assert isinstance(solve_lp(n, proof[0]), Infeasible)

    @pytest.mark.parametrize("name", sorted(HAND_CASES))
    def test_hand_cases(self, name):
        self.check(self.HAND_CASES[name])

    def test_against_lp_on_random_graphs(self):
        rng = random.Random(23)
        proved = unit_exits = unit_emitters = 0
        for i in range(900):
            max_mult = 1 if i % 2 else 3
            g = shared_random_graph(rng, 9, max_mult=max_mult, inf_prob=(0.0, 0.2, 0.3)[i % 3])
            if completeness_proof(g) is None:
                continue
            self.check(g)
            proved += 1
            s = structure(g)
            _, unit = kt._cycle_components(s)
            on_unit = [v for v in range(len(s.out)) if s.comp[v] in unit]
            unit_exits += any(s.comp[w] != s.comp[v] for v in on_unit for w, _ in s.out[v])
            unit_emitters += any(s.kinds[v] is VertexClass.INFINITE_EMITTER for v in on_unit)
        assert proved > 500 and unit_exits > 50 and unit_emitters > 20

    def test_runs_no_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kt, "solve_lp", lambda *args: calls.append(args))
        rng = random.Random(29)
        for i in range(300):
            g = shared_random_graph(rng, 9, max_mult=1 + i % 3, inf_prob=(0.0, 0.2, 0.3)[i % 3])
            trace_rays(g)
        assert not calls

    def test_altered_multiplier_rejected(self, monkeypatch):
        # the chain's certificate is tight: moving any nonzero multiplier
        # one step towards zero leaves some coordinate short
        g = self.HAND_CASES["long-exit-chain"]
        system, nonneg, certificate = completeness_proof(g)
        n = len(g.vertices)
        multipliers = list(certificate.multipliers)
        altered = 0
        for i, m in enumerate(multipliers):
            if m:
                step = -1 if m > 0 else 1
                bad = FarkasCertificate(tuple(multipliers[:i] + [m + step] + multipliers[i + 1 :]))
                assert not verify_farkas(n, system, nonneg, bad), i
                altered += 1
        assert altered == 14
        build = kt._completeness

        def altered_first(*args):
            system, nonneg, certificate = build(*args)
            first = next(i for i, m in enumerate(certificate.multipliers) if m)
            m = list(certificate.multipliers)
            m[first] -= 1 if m[first] > 0 else -1
            return system, nonneg, FarkasCertificate(tuple(m))

        monkeypatch.setattr(kt, "_completeness", altered_first)
        with pytest.raises(CertificateError, match="positive where every ray vanishes"):
            trace_rays(g)

    def test_enlarged_zero_raises(self):
        # p -> s and p -> x with x -> x of multiplicity 2: the sink s carries
        # a ray, so a trace is positive there and no certificate can exist
        g = Graph(["p", "s", "x"], {("p", "s"): 1, ("p", "x"): 1, ("x", "x"): 2})
        cone = kt.trace_cone(g)
        coefficients, zero, rays = kt._component_rays(g, cone)
        assert zero == [2] and rays == [(1, 1, 0)]
        kt._check_rays(g, cone, coefficients, zero, rays)
        system, _, _ = completeness_proof(g, zero=["s"])
        assert isinstance(solve_lp(3, system), Feasible)
        with pytest.raises(CertificateError, match="positive where every ray vanishes"):
            kt._check_rays(g, cone, coefficients, [1, 2], rays)


def dense_farkas_holds(g, multipliers):
    """``bench/oracle.py::check_farkas``'s rules on the dense rows of
    ``reference_trace_constraints``: one multiplier per row, nonnegative on
    the <= rows, a combination nonnegative on every vertex and a negative
    right-hand side."""
    names, equalities, inequalities, _ = reference_trace_constraints(g)
    rows = [*equalities, *inequalities]
    if len(multipliers) != len(rows) or any(y < 0 for y in multipliers[len(equalities) :]):
        return False
    for j in range(len(names)):
        if sum(y * row[j] for y, (row, _) in zip(multipliers, rows)) < 0:
            return False
    return sum(y * rhs for y, (_, rhs) in zip(multipliers, rows)) < 0


class TestNoTraceCertificate:
    # no_trace builds its Farkas certificate from walks: the rows of the
    # regular vertices upstream of Z, the walks over Z and -1 on the norm
    # row; the LP it replaced must find the same system infeasible
    HAND_CASES = {
        # u and v are regular rows upstream of Z = {x}
        "chain-into-two-loop": Graph(
            ["u", "v", "x"], {("u", "v"): 1, ("v", "x"): 1, ("x", "x"): 2}
        ),
        # {e, w} is one component through e -> w inf, below the regular u
        "emitter-with-infinite-edge": Graph(
            ["u", "e", "w", "x"],
            {("u", "e"): 1, ("e", "w"): INF, ("e", "x"): 2, ("w", "e"): 1, ("x", "x"): 2},
        ),
        "two-loop": two_loop(),
    }

    def check(self, g):
        certificate = no_trace(g).certificate
        poly = trace_constraints(g)
        n = len(poly.variables)
        assert verify_farkas(n, poly.constraints(), [True] * n, certificate)
        assert dense_farkas_holds(g, certificate.multipliers)
        assert isinstance(solve_lp(n, poly.constraints()), Infeasible)
        return certificate

    @pytest.mark.parametrize("name", sorted(HAND_CASES))
    def test_hand_cases(self, name):
        certificate = self.check(self.HAND_CASES[name])
        assert all(y.denominator == 1 for y in certificate.multipliers)

    def test_chain_multipliers(self):
        # u nets 1 on its own row, v pays u's debt as well, and the walk
        # round x's loop covers 1 + 2
        certificate = self.check(self.HAND_CASES["chain-into-two-loop"])
        assert certificate.multipliers == (1, 2, -3, -1)

    def test_against_lp_on_random_graphs(self):
        rng = random.Random(31)
        proved = upstream = emitters = 0
        for i in range(2400):
            g = shared_random_graph(
                rng, (5, 7, 9)[i % 3], max_mult=1 + i % 3, inf_prob=(0.1, 0.2, 0.3)[i % 3]
            )
            if trace_rays(g):
                continue
            self.check(g)
            proved += 1
            _, zero, _ = kt._component_rays(g, kt.trace_cone(g))
            upstream += len(zero) < len(g.vertices)
            emitters += any(k is VertexClass.INFINITE_EMITTER for k in structure(g).kinds)
        assert proved >= 1000 and upstream >= 150 and emitters >= 800

    def test_refuses_a_graph_with_traces(self, monkeypatch):
        calls = []
        for module in (graphk0.traces, kt):
            monkeypatch.setattr(module, "solve_lp", lambda *args: calls.append(args), raising=False)
        with pytest.raises(CertificateError, match="a norm-one graph trace exists"):
            no_trace(m2())
        assert not calls


class TestStates:
    def test_m2_state(self):
        g = m2()
        k = compute_k0(g)
        t = find_graph_trace(g)
        state = trace_to_state(g, k, t)
        assert state.evaluate(k.delta["v"]) == Fraction(1, 2)
        assert state.evaluate(k.order_unit) == 1

    def test_toeplitz_state(self):
        g = toeplitz()
        k = compute_k0(g)
        state = trace_to_state(g, k, find_graph_trace(g))
        assert state.evaluate(k.delta["v"]) == 1
        assert state.evaluate(k.delta["w"]) == 0

    def test_round_trip(self):
        rng = random.Random(2025)
        checked = 0
        for _ in range(60):
            g = random_graph(rng)
            extremes = extreme_traces(g)
            if not extremes:
                continue
            k = compute_k0(g)
            for t in extremes:
                state = trace_to_state(g, k, t)
                back = state_to_trace(g, k, state)
                assert back == t
                checked += 1
        assert checked > 10

    def test_rejects_bad_norm(self):
        g = m2()
        k = compute_k0(g)
        bad = GraphTrace(values=(("v", Fraction(1)), ("w", Fraction(1))))
        with pytest.raises(ValueError):
            trace_to_state(g, k, bad)

    def test_rejects_non_trace(self):
        g = m2()
        k = compute_k0(g)
        bad = GraphTrace(values=(("v", Fraction(1)), ("w", Fraction(0))))
        with pytest.raises(ValueError):
            trace_to_state(g, k, bad)

    def test_rejects_bad_state(self):
        g = m2()
        k = compute_k0(g)
        bad = StateOnK0(
            values_on_delta=(("v", Fraction(1)), ("w", Fraction(0))), presentation=k
        )
        assert not verify_state(bad)
        with pytest.raises(ValueError):
            state_to_trace(g, k, bad)
        # each case breaks one condition of nonnegativity on the cone and
        # keeps the value one on the unit
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        cases = [
            # not zero on the relation [v] = [w]
            (m2(), {"v": Fraction(0), "w": half}),
            # negative on a vertex class
            (Graph(["a", "b"], {}), {"a": Fraction(2), "b": Fraction(-1)}),
            # nonzero on a target the emitter reaches infinitely often
            (Graph(["e", "w"], {("e", "w"): INF}), {"e": half, "w": half}),
            # the emitter fails to dominate its capped batch 3 [w]
            (
                Graph(["e", "w", "z"], {("e", "w"): 3, ("e", "z"): INF}),
                {"e": quarter, "w": 3 * quarter, "z": Fraction(0)},
            ),
        ]
        for graph, values in cases:
            k = compute_k0(graph)
            bad = StateOnK0(
                values_on_delta=tuple((v, values[v]) for v in graph.vertices),
                presentation=k,
            )
            assert bad.evaluate(k.order_unit) == 1
            assert not verify_state(bad)
            with pytest.raises(ValueError):
                state_to_trace(graph, k, bad)

    def test_positivity_on_cone(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng)
            extremes = extreme_traces(g)
            if not extremes:
                continue
            k = compute_k0(g)
            for t in extremes:
                state = trace_to_state(g, k, t)
                for v in g.vertices:
                    assert state.evaluate(k.delta[v]) >= 0


class TestTracialStateReport:
    def test_two_loop(self):
        rep = tracial_state_report(two_loop())
        assert rep.condition_k
        assert rep.trace_state_identification == "canonical"
        assert rep.trace_count is None

    def test_toeplitz(self):
        rep = tracial_state_report(toeplitz())
        assert not rep.condition_k
        assert rep.trace_state_identification == "states-only"
        assert rep.trace_count == 1

    def test_two_isolated(self):
        from graphk0.graphs import INF as inf_marker

        rep = tracial_state_report(Graph(["a", "b"], {}))
        assert rep.condition_k
        assert rep.trace_state_identification == "canonical"
        assert rep.trace_count is inf_marker


# ---------------------------------------------------------------------------
# The trace conditions are described once, by ``ktheory.trace_cone``.  The
# hand-written builder and checks it replaced are kept here as references.


def reference_trace_constraints(g):
    names = g.vertices
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    equalities, inequalities, forced = [], [], set()
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
    equalities.append((tuple([1] * n), 1))
    return names, tuple(equalities), tuple(inequalities), frozenset(forced)


def reference_broken_conditions(g, values):
    """The trace conditions ``values`` breaks, each named by its kind."""
    broken = [("nonnegative", v) for v in g.vertices if values[v] < 0]
    for v in g.vertices:
        cls = classify_vertex(g, v)
        if cls is VertexClass.REGULAR:
            if values[v] != sum((m * values[w] for w, m in g.out_edges(v)), Fraction(0)):
                broken.append(("regular", v))
        elif cls is VertexClass.INFINITE_EMITTER:
            finite_sum = Fraction(0)
            for w, m in g.out_edges(v):
                if m is INF:
                    if values[w] != 0:
                        broken.append(("forced zero", w))
                else:
                    finite_sum += m * values[w]
            if values[v] < finite_sum:
                broken.append(("emitter", v))
    return broken


def reference_nonnegative_on_cone(k, phi):
    m = len(k.ambient_order)
    if len(phi) != m:
        return False
    mat, _ = relation_matrix(k.graph)
    for col in range(len(mat[0]) if mat else 0):
        if sum((phi[i] * mat[i][col] for i in range(m)), Fraction(0)) != 0:
            return False
    if any(p < 0 for p in phi):
        return False
    for fam in k.cone.families:
        value = phi[k.ambient_index(fam.emitter)]
        for w, cap in fam.targets:
            pw = phi[k.ambient_index(w)]
            if cap is None:
                if pw != 0:
                    return False
            else:
                value -= cap * pw
        if value < 0:
            return False
    return True


def reference_draws(count=240):
    """Seeded graphs from the graph tests' generator, every other one with
    infinite edges."""
    rng = random.Random(9090)
    return [
        shared_random_graph(rng, inf_prob=0.4 if i % 2 else 0.0) for i in range(count)
    ]


class TestOneDescription:
    def test_trace_constraints_match_reference(self):
        for g in reference_draws():
            poly = trace_constraints(g)
            got = (poly.variables, poly.equalities, poly.inequalities, poly.forced_zero)
            names, equalities, inequalities, forced = reference_trace_constraints(g)
            want = (names, sparse(equalities), sparse(inequalities), forced)
            assert got == want, g.edges()

    def test_checks_match_references(self):
        rng = random.Random(4242)
        kinds = {}
        counts = {"valid": 0, "random": 0, "perturbed": 0}
        for g in reference_draws():
            k = compute_k0(g)
            names = g.vertices
            valid = [{v: Fraction(0) for v in names}]
            for t in extreme_traces(g):
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                valid.append({v: scale * x for v, x in t.values})
            points = [("valid", p) for p in valid]
            for _ in range(3):
                points.append(
                    ("random", {v: Fraction(rng.randint(0, 5), rng.randint(1, 3)) for v in names})
                )
            for p in valid:
                for v in names:
                    for eps in (Fraction(1, 3), Fraction(-1, 3)):
                        points.append(("perturbed", {**p, v: p[v] + eps}))
            for label, values in points:
                broken = reference_broken_conditions(g, values)
                if label == "valid":
                    assert not broken
                if label == "perturbed" and len(broken) == 1:
                    kinds[broken[0][0]] = kinds.get(broken[0][0], 0) + 1
                counts[label] += 1
                t = GraphTrace(values=tuple((v, values[v]) for v in names))
                assert verify_graph_trace(g, t) == (not broken), (g.edges(), values)
                phi = tuple(values[v] for v in k.ambient_order)
                assert nonnegative_on_cone(k, phi) == reference_nonnegative_on_cone(k, phi)
                assert nonnegative_on_cone(k, phi) == (not broken)
            # the vertex set and the length are checked first
            zero = tuple((v, Fraction(0)) for v in names)
            assert not verify_graph_trace(g, GraphTrace(values=zero[1:]))
            assert not verify_graph_trace(g, GraphTrace(values=zero + (("extra", Fraction(0)),)))
            assert not nonnegative_on_cone(k, (Fraction(0),) * (len(names) + 1))
        # every kind of condition is broken alone many times
        assert set(kinds) == {"nonnegative", "regular", "forced zero", "emitter"}, kinds
        assert min(kinds.values()) >= 20, kinds
        assert counts["valid"] >= 300 and counts["random"] == 720, counts


# ---------------------------------------------------------------------------
# ``trace_rays`` re-checks its rays on the cone's sparse rows.  The dense
# re-check it replaced is kept here as the reference: every check runs over
# n-wide rows, so each ray costs O(n^2).


def reference_check_point(rows, point):
    """``point`` is nonnegative and satisfies every dense ``(row, relation,
    rhs)``."""
    if any(x < 0 for x in point):
        return False
    for row, relation, rhs in rows:
        assert len(row) == len(point)
        value = sum(c * x for c, x in zip(row, point))
        if relation == EQ and value != rhs or relation == LE and value > rhs:
            return False
    return True


def reference_substitution(n, rows):
    """The dense ``_solvable_by_substitution``."""
    left = [{j for j, c in enumerate(row) if c} for row in rows]
    uses = [[] for _ in range(n)]
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


def reference_verify_farkas(n, system, nonneg, certificate):
    """``verify_farkas`` over the dense rows."""
    mult = certificate.multipliers
    if len(mult) != len(system):
        return False
    for lam, con in zip(mult, system):
        if con.relation == LE and lam < 0 or con.relation == GE and lam > 0:
            return False
    for j in range(n):
        combined = sum(m * con.coeffs[j] for m, con in zip(mult, system))
        if combined < 0 if nonneg[j] else combined != 0:
            return False
    return sum(m * con.rhs for m, con in zip(mult, system)) < 0


def reference_check_rays(g, coefficients, zero, rays):
    """The message of the first check of ``_check_rays`` that fails, in its
    order, or None; the rows come from ``reference_trace_constraints``."""
    names, equalities, inequalities, _ = reference_trace_constraints(g)
    equalities = equalities[:-1]  # without the norm row
    n = len(names)
    rows = [(row, EQ, rhs) for row, rhs in equalities] + [(row, LE, rhs) for row, rhs in inequalities]
    coefficient_rows = [dense_row(n, c) for c in coefficients]
    if len(rays) != len(coefficients):
        return "the boundary elements and the rays differ in number"
    for i, h in enumerate(rays):
        if len(h) != n or not reference_check_point(rows, h):
            return "a computed ray is not a graph trace"
        for j, c in enumerate(coefficient_rows):
            if sum(a * x for a, x in zip(c, h)) != int(i == j):
                return "the ray coefficients are not dual to the rays"
    units = [dense_row(n, [(z, 1)]) for z in zero]
    slacks = [tuple(-c for c in row) for row, _ in inequalities]
    system = [row for row, _ in equalities] + slacks + units + coefficient_rows
    if not reference_substitution(n, system):
        return "the rays do not determine every graph trace"
    cone = kt.trace_cone(g)
    proof = kt._completeness(g, cone, cone.constraints(), coefficients, zero)
    if proof is not None and not reference_verify_farkas(n, *proof):
        return "a graph trace is positive where every ray vanishes"
    return None


def sparse_check_rays(g, coefficients, zero, rays):
    """``_check_rays``' verdict in the form of ``reference_check_rays``."""
    try:
        kt._check_rays(g, kt.trace_cone(g), coefficients, zero, rays)
    except CertificateError as err:
        return str(err)
    return None


def corruptions(rng, g, coefficients, zero, rays):
    """Named corruptions of a correct construction, each drawn by ``rng``."""
    n = len(g.vertices)
    out = [("none", (coefficients, zero, rays))]
    if rays:
        i, v = rng.randrange(len(rays)), rng.randrange(n)
        h = list(rays[i])
        h[v] += rng.choice((1, -1))
        out.append(("ray corrupted", (coefficients, zero, [*rays[:i], tuple(h), *rays[i + 1 :]])))
        out.append(("ray dropped", (coefficients, zero, rays[:-1])))
        out.append(("element dropped", (coefficients[:-1], zero, rays[:-1])))
        j = rng.randrange(len(coefficients))
        terms = list(coefficients[j])
        k = rng.randrange(len(terms))
        terms[k] = (terms[k][0], terms[k][1] + 1)
        terms = tuple(t for t in terms if t[1])
        bad = [*coefficients[:j], terms, *coefficients[j + 1 :]]
        out.append(("coefficient corrupted", (bad, zero, rays)))
    if len(rays) > 1:
        out.append(("rays swapped", (coefficients, zero, [rays[1], rays[0], *rays[2:]])))
    outside = [v for v in range(n) if v not in zero]
    if outside:
        out.append(("zero enlarged", (coefficients, sorted({*zero, rng.choice(outside)}), rays)))
    return out


class TestSparseCheck:
    def test_agrees_with_dense_reference(self):
        # the sparse re-check and the dense one fail on the same check, or
        # both pass, on correct and on corrupted constructions
        rng = random.Random(2718)
        raised, passed = {}, {}
        for i in range(300):
            g = shared_random_graph(rng, 10, inf_prob=(0.0, 0.25)[i % 2], edge_prob=0.15)
            cone = kt.trace_cone(g)
            for name, data in corruptions(rng, g, *kt._component_rays(g, cone)):
                want = reference_check_rays(g, *data)
                assert sparse_check_rays(g, *data) == want, (name, g.edges())
                if name == "none":
                    assert want is None, g.edges()
                tally = raised if want else passed
                tally[name] = tally.get(name, 0) + 1
        assert passed["none"] == 300
        for name in ("ray corrupted", "ray dropped", "element dropped", "coefficient corrupted",
                     "rays swapped", "zero enlarged"):
            assert raised.get(name, 0) >= 40, (name, raised)

    def test_rows_visited_per_ray_are_linear(self):
        # the point check and the duality check of each ray read the cone's
        # rows and the c_b by their nonzero entries: at most a few times
        # E + n entries per ray, where n-wide rows would cost n^2.  Every
        # pass over a row is counted, so the checks made once per graph
        # (substitution, walk certificate) get one more share of E + n
        visits = [0]

        class Counted(tuple):
            def __iter__(self):
                visits[0] += len(self)
                return super().__iter__()

        n = 2000
        cycle = Graph(
            [*(f"c{i}" for i in range(n)), "x"],
            {**{(f"c{i}", f"c{(i + 1) % n}"): 1 for i in range(n)}, ("c0", "x"): 1},
        )
        rng = random.Random(5)
        draws = [cycle] + [sparse_random_graph(rng, size) for size in (100, 200, 400)]
        for g in draws:
            cone = kt.trace_cone(g)
            coefficients, zero, rays = kt._component_rays(g, cone)
            counted = replace(
                cone,
                equalities=tuple((Counted(t), rhs) for t, rhs in cone.equalities),
                inequalities=tuple((Counted(t), rhs) for t, rhs in cone.inequalities),
            )
            visits[0] = 0
            kt._check_rays(g, counted, [Counted(c) for c in coefficients], zero, rays)
            size = len(g.edges()) + len(g.vertices)
            assert visits[0] <= 4 * size * (len(rays) + 1), (visits[0], size, len(rays))
        assert len(rays) > 30
