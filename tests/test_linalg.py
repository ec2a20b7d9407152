import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import combinations
from math import gcd

import pytest

import graphk0.linalg
from graphk0.graphs import Graph, block_decomposition
from graphk0.linalg import (
    CertificateError,
    Element,
    cokernel,
    determinant,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_diophantine,
)


def minor_gcd(a, k):
    """gcd of all k x k minors, computed directly from determinants."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[a[i][j] for j in ci] for i in ri]
            g = gcd(g, determinant(sub))
    return g


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def dense_cokernel(a):
    """``cokernel`` of the dense matrix ``a``, handed over as sparse columns."""
    rows = len(a)
    columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*a)]
    return cokernel(columns, rows)


def relation_matrix(g):
    """The dense relation matrix of a graph, the reference for the sparse
    columns that ``compute_k0`` reduces: one row per vertex, regular ones
    first (the ambient order), and one column per regular vertex v,
    A(v, .) - e_v, the relation [v] = sum_w A(v, w) [w].  Returns the
    matrix and the row order."""
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


def random_relation_matrix(rng, n):
    """The relation matrix of a graph on n vertices drawn like the benchmark's
    graphs: each vertex has 0-3 edges to uniform targets, multiplicity 1-3."""
    names = [f"v{i}" for i in range(n)]
    mult = {}
    for src in names:
        for _ in range(rng.randrange(0, 4)):
            key = (src, rng.choice(names))
            mult[key] = mult.get(key, 0) + rng.randrange(1, 4)
    return relation_matrix(Graph(names, mult))[0]


def diagonal(snf, rows, cols):
    """The rows x cols diagonal matrix s that ``snf`` diagonalizes to,
    rebuilt from its invariant factors."""
    d = snf.invariant_factors
    return [[d[i] if i == j and i < len(d) else 0 for j in range(cols)] for i in range(rows)]


def assert_dense(m, rows, cols):
    assert type(m) is list and len(m) == rows
    for row in m:
        assert type(row) is list and len(row) == cols
        assert all(type(x) is int for x in row)


def reference_snf(a):
    """The Smith normal form as first written: full pivot scan, divisibility
    rescan after every pivot, u_inv updated column by column.  Returns
    (u, s, v, u_inv, rank, invariant_factors)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [row[:] for row in a]
    u, u_inv, v = identity_matrix(rows), identity_matrix(rows), identity_matrix(cols)

    def add_row(i, j, q):
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= q * r[i]

    def smallest_pivot(t):
        nonzero = [(abs(s[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if s[i][j]]
        return min(nonzero)[1:] if nonzero else None

    t = 0
    while t < min(rows, cols):
        pivot = smallest_pivot(t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
            for r in u_inv:
                r[t], r[pi] = r[pi], r[t]
            for r in s + v:
                r[t], r[pj] = r[pj], r[t]
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
                for r in u_inv:
                    r[t] = -r[t]
            d = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // d))
                    dirty = dirty or bool(s[i][t])
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = -(s[t][j] // d)
                    for r in s + v:
                        r[j] += q * r[t]
                    dirty = dirty or bool(s[t][j])
            if dirty:
                pivot = smallest_pivot(t)
                continue
            offender = next(
                (i for i in range(t + 1, rows) if any(x % d for x in s[i][t + 1 :])), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
            pivot = (t, t)
        t += 1
    return u, s, v, u_inv, t, tuple(s[i][i] for i in range(t))


class TestSmithNormalForm:
    def test_hand_example(self):
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.invariant_factors == (2, 4)

    def test_identity(self):
        snf = smith_normal_form(identity_matrix(3))
        assert snf.invariant_factors == (1, 1, 1)
        assert snf.rank == 3

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.rank == 0
        assert snf.invariant_factors == ()

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0), (2, 3)]:
            rows, cols = shape
            snf = smith_normal_form([[0] * cols for _ in range(rows)])
            assert snf.rank == 0
            width = cols if rows else 0  # a matrix with no rows has no columns
            for m, dims in ((snf.u, (rows, rows)), (snf.v, (width, width)),
                            (snf.u_inv, (rows, rows))):
                assert_dense(m, *dims)
            zero = [[0] * cols for _ in range(rows)]
            assert mat_mul(mat_mul(snf.u, zero), snf.v) == diagonal(snf, rows, width)

    def test_transforms_random(self):
        rng = random.Random(1201)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = random_matrix(rng, rows, cols)
            snf = smith_normal_form(a)
            # u @ a @ v is diagonal, with the invariant factors on it
            assert mat_mul(mat_mul(snf.u, a), snf.v) == diagonal(snf, rows, cols)
            assert determinant(snf.u) in (1, -1)
            assert determinant(snf.v) in (1, -1)
            assert mat_mul(snf.u, snf.u_inv) == identity_matrix(rows)
            d = snf.invariant_factors
            assert all(x > 0 for x in d)
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

    def test_minor_gcd_chain(self):
        rng = random.Random(77)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols)
            snf = smith_normal_form(a)
            d = snf.invariant_factors
            for k in range(1, min(3, rows, cols) + 1):
                g = abs(minor_gcd(a, k))
                prod = 1
                for x in d[:k]:
                    prod *= x
                if k <= len(d):
                    assert prod == g
                else:
                    assert g == 0

    def test_matches_reference(self):
        # entries scaled by 2 or 6 give pivots above 1 and rows that fail the
        # divisibility check (27 pulls here), so every branch of the
        # elimination runs
        rng = random.Random(3301)
        for _ in range(200):
            rows = rng.randint(0, 7)
            cols = rng.randint(0, 7)
            a = random_matrix(rng, rows, cols, -4, 4)
            a = [[rng.choice((1, 2, 6)) * x for x in row] for row in a]
            snf = smith_normal_form(a)
            s = diagonal(snf, rows, cols)
            assert (snf.u, s, snf.v, snf.u_inv, snf.rank, snf.invariant_factors) == (
                reference_snf(a)
            ), a

    def test_matches_reference_on_relation_matrices(self):
        # entries of every third matrix scaled by 2 or 6 give non-unit pivots
        # and divisibility pulls (45 here) on the shapes compute_k0 meets
        rng = random.Random(1207)
        for k in range(24):
            a = random_relation_matrix(rng, rng.randint(20, 60))
            if k % 3 == 2:
                a = [[rng.choice((1, 2, 6)) * x for x in row] for row in a]
            rows, cols = len(a), len(a[0])
            snf = smith_normal_form(a)
            u, s, v, u_inv, rank, factors = reference_snf(a)
            for m, shape in ((snf.u, (rows, rows)), (snf.v, (cols, cols)),
                             (snf.u_inv, (rows, rows))):
                assert_dense(m, *shape)
            assert snf.u == u
            assert diagonal(snf, rows, cols) == s
            assert snf.v == v
            assert snf.u_inv == u_inv
            assert snf.rank == rank
            assert snf.invariant_factors == factors

    def test_deterministic(self):
        a = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
        first = smith_normal_form(a)
        second = smith_normal_form(a)
        assert first.u == second.u
        assert first.invariant_factors == second.invariant_factors
        assert first.v == second.v


class TestCokernel:
    def test_times_two(self):
        p = dense_cokernel([[2]])
        assert p.torsion_moduli == (2,)
        assert p.free_rank == 0
        assert p.project([1]) == Element(torsion=(1,), free=())

    def test_line_graph_relations(self):
        # columns (-1, 1, 0) and (0, -1, 1) in Z^3
        a = [[-1, 0], [1, -1], [0, 1]]
        p = dense_cokernel(a)
        assert p.free_rank == 1
        assert p.torsion_moduli == ()
        classes = [p.project([1, 0, 0]), p.project([0, 1, 0]), p.project([0, 0, 1])]
        assert classes[0] == classes[1] == classes[2]
        assert not classes[0].is_zero()

    def test_no_columns(self):
        p = dense_cokernel([[], []])
        assert p.free_rank == 2
        assert p.torsion_moduli == ()

    def test_projection_kills_exactly_image(self):
        rng = random.Random(5150)
        for _ in range(80):
            rows = rng.randint(1, 5)
            cols = rng.randint(0, 5)
            a = random_matrix(rng, rows, cols, -4, 4)
            p = dense_cokernel(a)
            for j in range(cols):
                col = [a[i][j] for i in range(rows)]
                assert p.project(col).is_zero()
            basis = [[int(i == j) for i in range(rows)] for j in range(rows)]
            assert p.basis_classes() == [p.project(e) for e in basis]
            # projection is surjective onto the presentation and additive
            x = [rng.randint(-9, 9) for _ in range(rows)]
            y = [rng.randint(-9, 9) for _ in range(rows)]
            s = [u + v for u, v in zip(x, y)]
            assert p.project(s) == p.add(p.project(x), p.project(y))

    def test_lift_is_section(self):
        rng = random.Random(999)
        for _ in range(80):
            rows = rng.randint(1, 5)
            cols = rng.randint(0, 5)
            a = random_matrix(rng, rows, cols, -4, 4)
            p = dense_cokernel(a)
            x = [rng.randint(-9, 9) for _ in range(rows)]
            e = p.project(x)
            assert p.project(p.lift(e)) == e

    def test_element_order(self):
        p = dense_cokernel([[4, 0], [0, 6]])
        assert p.torsion_moduli == (2, 12)
        e = p.project([1, 0])
        order = p.element_order(e)
        assert order is not None
        assert p.scale(order, e).is_zero()
        assert all(not p.scale(k, e).is_zero() for k in range(1, order))

    def test_dimension_mismatch(self):
        p = dense_cokernel([[2]])
        for x in ([], [1, 2]):
            with pytest.raises(ValueError):
                p.project(x)

    def test_row_index_out_of_range(self):
        for bad in (2, -1):
            with pytest.raises(ValueError):
                cokernel([{0: 2}, {bad: 1}], 2)

    def check_against_snf(self, a, rng, monkeypatch):
        """The cokernel of ``a`` against the Smith normal form of all of it."""
        rows, cols = len(a), len(a[0]) if a else 0
        residuals = []

        def spy(m):
            residuals.append(m)
            return smith_normal_form(m)

        with monkeypatch.context() as patch:
            patch.setattr(graphk0.linalg, "smith_normal_form", spy)
            p = dense_cokernel(a)
        # the elimination leaves the Smith normal form no unit and no zero row
        assert len(residuals) == 1
        assert all(x not in (1, -1) for row in residuals[0] for x in row)
        assert all(any(row) for row in residuals[0])

        snf = smith_normal_form(a)
        moduli = tuple(d for d in snf.invariant_factors if d >= 2)
        assert p.group_invariants() == (rows - snf.rank, moduli)
        t, width = len(moduli), len(moduli) + p.free_rank
        units = []
        for c in range(width):
            unit = [int(k == c) for k in range(width)]
            units.append(Element(torsion=tuple(unit[:t]), free=tuple(unit[t:])))
        # projection @ section is the identity, torsion rows mod their moduli
        for e in units:
            assert p.project(p.lift(e)) == e
        for j in range(cols):
            assert p.project([a[i][j] for i in range(rows)]).is_zero()
        for _ in range(3):
            x = [rng.randint(-9, 9) for _ in range(rows)]
            diff = [u - v for u, v in zip(x, p.lift(p.project(x)))]
            assert solve_diophantine(a, diff) is not None
        classes = p.basis_classes()
        assert classes == [p.project([int(i == j) for i in range(rows)]) for j in range(rows)]
        # the stored classes are sparse and canonical: no zero, torsion reduced
        for col in p.classes:
            assert all(x and (q >= t or 0 < x < moduli[q]) for q, x in col.items())
        assert all(all(unit.values()) for unit in p.section)
        # every free projection row leads with a positive coefficient
        for c in range(p.free_rank):
            assert next(e.free[c] for e in classes if e.free[c]) > 0
        again = dense_cokernel(a)
        assert again.basis_classes() == classes
        assert [again.lift(e) for e in units] == [p.lift(e) for e in units]
        return p

    def test_differential_against_snf(self, monkeypatch):
        # sparse, unit-heavy matrices like the reduced vertex matrices
        rng = random.Random(2401)
        entries = (1, -1, 1, -1, 1, -1, 2, -2, 3, -3, 4)
        for _ in range(120):
            rows, cols = rng.randint(1, 40), rng.randint(0, 30)
            a = [[0] * cols for _ in range(rows)]
            for j in range(cols):
                for i in rng.sample(range(rows), rng.randint(1, min(rows, 4))):
                    a[i][j] = rng.choice(entries)
            self.check_against_snf(a, rng, monkeypatch)

    def test_differential_edge_cases(self, monkeypatch):
        rng = random.Random(2402)
        signed_permutation = [[0] * 5 for _ in range(5)]
        for i, j in enumerate([3, 0, 4, 1, 2]):
            signed_permutation[i][j] = rng.choice((1, -1))
        cases = [
            ([[], [], []], (3, ())),  # no columns
            ([[0, 0], [0, 0], [0, 0]], (3, ())),  # the zero matrix
            ([[2 * int(i == j) for j in range(3)] for i in range(3)], (0, (2, 2, 2))),
            (signed_permutation, (0, ())),  # every entry a unit
            ([[2, 2, 0], [-1, -1, 1], [0, 0, 1], [3, 3, 0]], (2, ())),  # a column twice
        ]
        for a, invariants in cases:
            assert self.check_against_snf(a, rng, monkeypatch).group_invariants() == invariants


class TestSolveDiophantine:
    def test_direct(self):
        assert solve_diophantine([[2]], [4]) == [2]

    def test_parity(self):
        assert solve_diophantine([[2]], [3]) is None

    def test_empty_solution(self):
        assert solve_diophantine([[], []], [0, 0]) == []
        assert solve_diophantine([[], []], [0, 1]) is None

    def test_random_consistency(self):
        from itertools import product as iproduct

        rng = random.Random(4242)
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 3)
            a = random_matrix(rng, rows, cols, -5, 5)
            if rng.random() < 0.5:
                # solvable by construction
                x = [rng.randint(-4, 4) for _ in range(cols)]
                b = mat_vec(a, x)
            else:
                b = [rng.randint(-6, 6) for _ in range(rows)]
            sol = solve_diophantine(a, b)
            if sol is not None:
                assert mat_vec(a, sol) == b
            elif cols <= 2:
                # independent confirmation: no small solution was missed
                for candidate in iproduct(range(-30, 31), repeat=cols):
                    assert mat_vec(a, list(candidate)) != b

    def test_mismatch(self):
        with pytest.raises(ValueError):
            solve_diophantine([[1, 2]], [1, 2])

    def test_corrupted_solution_raises(self, monkeypatch):
        # a transform v that is not the one of the Smith form yields a wrong x
        true_snf = smith_normal_form

        def corrupted(a):
            snf = true_snf(a)
            return replace(snf, v=[[2 * x for x in row] for row in snf.v])

        monkeypatch.setattr(graphk0.linalg, "smith_normal_form", corrupted)
        with pytest.raises(CertificateError):
            solve_diophantine([[1]], [1])

    def test_corrupted_solution_raises_without_asserts(self):
        # the same corruption in a `python -O` interpreter, where no assert runs
        script = textwrap.dedent(
            """
            from dataclasses import replace

            import graphk0.linalg as la
            from graphk0 import CertificateError

            true_snf = la.smith_normal_form
            la.smith_normal_form = lambda a: replace(
                true_snf(a), v=[[2 * x for x in row] for row in true_snf(a).v]
            )
            try:
                la.solve_diophantine([[1]], [1])
            except CertificateError:
                print("debug", __debug__, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.linalg.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "debug False raised\n"
