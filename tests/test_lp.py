import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import graphk0.lp
from graphk0.lp import (
    EQ,
    GE,
    LE,
    Feasible,
    Infeasible,
    UnboundedObjective,
    check_point,
    constraint,
    solve_lp,
    verify_farkas,
)


class ReferenceTableau:
    """The simplex as first written, over ``Fraction``: the pivot row is
    divided by its pivot and every other row reduced by it.  The oracle for
    the integer tableau; ``negative_pivots`` counts the pivots of
    ``drop_artificials`` on a negative entry."""

    def __init__(self, num_vars, constraints, nonneg):
        self.num_vars, self.nonneg = num_vars, list(nonneg)
        self.columns = [(j, s) for j in range(num_vars) for s in ((1,) if nonneg[j] else (1, -1))]
        self.n_struct = len(self.columns)
        slack_rows = [i for i, con in enumerate(constraints) if con.relation != EQ]
        self.art_start = self.n_struct + len(slack_rows)
        self.width = self.art_start + len(constraints) + 1
        self.rows, self.row_sign, self.flip, self.basis = [], [], [], []
        self.negative_pivots = 0
        for i, con in enumerate(constraints):
            flip = -1 if con.relation == GE else 1
            row = [Fraction(0)] * self.width
            for k, (j, sgn) in enumerate(self.columns):
                row[k] = flip * Fraction(con.coeffs[j]) * sgn
            if i in slack_rows:
                row[self.n_struct + slack_rows.index(i)] = Fraction(1)
            row[-1] = flip * Fraction(con.rhs)
            sign = -1 if row[-1] < 0 else 1
            row = [sign * x for x in row]
            row[self.art_start + i] = Fraction(1)
            self.rows.append(row)
            self.row_sign.append(sign)
            self.flip.append(flip)
            self.basis.append(self.art_start + i)

    def pivot(self, r, c, obj):
        piv_row = self.rows[r] = [x / self.rows[r][c] for x in self.rows[r]]
        for i, row in enumerate(self.rows):
            if i != r and row[c]:
                self.rows[i] = [x - row[c] * y for x, y in zip(row, piv_row)]
        obj[:] = [x - obj[c] * y for x, y in zip(obj, piv_row)]
        self.basis[r] = c

    def simplex(self, obj, limit):
        while True:
            enter = next((c for c in range(limit) if obj[c] < 0), -1)
            if enter < 0:
                return True
            leave, best = -1, None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        leave, best = i, ratio
            if leave < 0:
                return False
            self.pivot(leave, enter, obj)

    def solve(self, constraints, objective=None, maximize=False):
        """``(result, basis)``, the result as ``solve_lp`` returns it."""
        obj = [Fraction(int(c >= self.art_start)) for c in range(self.width - 1)] + [Fraction(0)]
        for row in self.rows:
            obj = [x - y for x, y in zip(obj, row)]
        self.simplex(obj, self.width - 1)
        if obj[-1] != 0:
            mult = tuple(
                -(1 - obj[self.art_start + i]) * self.row_sign[i] * self.flip[i]
                for i in range(len(self.rows))
            )
            return Infeasible(graphk0.lp.FarkasCertificate(mult)), self.basis
        for i, row in enumerate(self.rows):
            if self.basis[i] >= self.art_start:
                col = next((c for c in range(self.art_start) if row[c] != 0), None)
                if col is not None:
                    self.negative_pivots += row[col] < 0
                    self.pivot(i, col, [Fraction(0)] * self.width)
        keep = [i for i, b in enumerate(self.basis) if b < self.art_start]
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        if objective is not None:
            cost = [Fraction(c) for c in objective]
            obj = [(-1 if maximize else 1) * cost[j] * s for j, s in self.columns]
            obj += [Fraction(0)] * (self.width - self.n_struct)
            for row, b in zip(self.rows, self.basis):
                obj = [x - obj[b] * y for x, y in zip(obj, row)]
            if not self.simplex(obj, self.art_start):
                return UnboundedObjective(), self.basis
        values = [Fraction(0)] * self.n_struct
        for row, b in zip(self.rows, self.basis):
            if b < self.n_struct:
                values[b] = row[-1]
        point = [Fraction(0)] * self.num_vars
        for (j, s), v in zip(self.columns, values):
            point[j] += s * v
        value = None if objective is None else sum(c * x for c, x in zip(cost, point))
        return Feasible(tuple(point), value), self.basis


def random_lp(rng, fractional=False, big=False):
    """A small LP: mixed relations, free variables, zero right-hand sides,
    sparse rows, redundant combinations of earlier rows, and an objective
    on about half of them."""
    n = rng.randint(1, 5)
    nonneg = [rng.random() < 0.7 for _ in range(n)]
    bound = 2**40 if big else 4

    def entry():
        if rng.random() < 0.3:
            return 0
        x = rng.randint(-bound, bound)
        return Fraction(x, rng.randint(1, 6)) if fractional else x

    cons = []
    for _ in range(rng.randint(1, 6)):
        if cons and rng.random() < 0.2:
            # a combination of two earlier rows, as an equality: redundant
            # when both are equalities, so its artificial may stay basic
            a, b = rng.choice(cons), rng.choice(cons)
            fa, fb = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1))
            coeffs = [fa * x + fb * y for x, y in zip(a.coeffs, b.coeffs)]
            cons.append(constraint(coeffs, EQ, fa * a.rhs + fb * b.rhs))
            continue
        rhs = 0 if rng.random() < 0.3 else entry()
        cons.append(constraint([entry() for _ in range(n)], rng.choice([LE, GE, EQ]), rhs))
    objective = [entry() for _ in range(n)] if rng.random() < 0.5 else None
    return n, cons, nonneg, objective, rng.random() < 0.5


class TestFeasibility:
    def test_corrupted_certificates_raise_without_asserts(self):
        # in a `python -O` interpreter, where no assert runs, a Farkas
        # certificate and a point that fail their re-check still raise
        script = textwrap.dedent(
            """
            from graphk0 import lp
            from graphk0.linalg import CertificateError

            cases = [
                ("farkas", "farkas_from_phase_one",
                 lambda self, obj: lp.FarkasCertificate((lp.Fraction(0),)),
                 [lp.constraint([1], lp.LE, -1)]),
                ("point", "extract_point",
                 lambda self: (lp.Fraction(2),),
                 [lp.constraint([1], lp.LE, 1)]),
                # the common denominator off by one before read-out: 2x >= 2
                # pivots x in at den 2, so x reads 2/3
                ("den", "extract_point",
                 lambda self, read=lp._Tableau.extract_point: (
                     setattr(self, "den", self.den + 1) or read(self)
                 ),
                 [lp.constraint([2], lp.GE, 2)]),
            ]
            for name, method, corrupt, cons in cases:
                setattr(lp._Tableau, method, corrupt)
                try:
                    lp.solve_lp(1, cons)
                except CertificateError:
                    print("debug", __debug__, name, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.lp.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "debug False farkas raised\ndebug False point raised\ndebug False den raised\n"
        )

    def test_contradiction(self):
        cons = [constraint([1], LE, -1)]
        res = solve_lp(1, cons)
        assert isinstance(res, Infeasible)
        assert verify_farkas(1, cons, [True], res.certificate)

    def test_simplex_vertex(self):
        cons = [constraint([1, 1], EQ, 1)]
        res = solve_lp(2, cons)
        assert isinstance(res, Feasible)
        x, y = res.point
        assert x + y == 1 and x >= 0 and y >= 0

    def test_empty_problem(self):
        res = solve_lp(0, [])
        assert isinstance(res, Feasible)
        assert res.point == ()

    def test_zero_vars_infeasible(self):
        cons = [constraint([], LE, -1)]
        res = solve_lp(0, cons)
        assert isinstance(res, Infeasible)
        assert verify_farkas(0, cons, [], res.certificate)

    def test_free_variables(self):
        cons = [constraint([1], EQ, -5)]
        res = solve_lp(1, cons, nonneg=[False])
        assert isinstance(res, Feasible)
        assert res.point == (Fraction(-5),)

    def test_ge_rows(self):
        cons = [constraint([1, 2], GE, 4), constraint([1, 0], LE, 1)]
        res = solve_lp(2, cons)
        assert isinstance(res, Feasible)
        assert check_point(2, cons, [True, True], res.point)

    def test_infeasible_equalities(self):
        cons = [constraint([1, 1], EQ, 1), constraint([1, 1], EQ, 2)]
        res = solve_lp(2, cons, nonneg=[False, False])
        assert isinstance(res, Infeasible)
        assert verify_farkas(2, cons, [False, False], res.certificate)


class TestObjective:
    def test_objective_length_checked_first(self):
        # an infeasible system must not hide a malformed objective
        with pytest.raises(ValueError, match="objective length"):
            solve_lp(1, [constraint([1], LE, -1)], objective=[1, 2])

    def test_bound_attained(self):
        res = solve_lp(1, [constraint([1], LE, 3)], objective=[1], maximize=True)
        assert isinstance(res, Feasible)
        assert res.objective_value == 3
        assert res.point == (Fraction(3),)

    def test_unbounded(self):
        res = solve_lp(1, [constraint([1], GE, 0)], objective=[1], maximize=True)
        assert isinstance(res, UnboundedObjective)

    def test_minimize(self):
        cons = [constraint([1, 1], GE, 2), constraint([-1, 1], LE, 0)]
        res = solve_lp(2, cons, objective=[3, 1])
        assert isinstance(res, Feasible)
        # optimum at x = y = 1
        assert res.objective_value == 4

    def test_degenerate_cycling_guard(self):
        # classic degenerate LP; Bland's rule must terminate
        cons = [
            constraint([Fraction(1, 4), -8, -1, 9], LE, 0),
            constraint([Fraction(1, 2), -12, Fraction(-1, 2), 3], LE, 0),
            constraint([0, 0, 1, 0], LE, 1),
        ]
        res = solve_lp(
            4,
            cons,
            objective=[Fraction(-3, 4), 20, Fraction(-1, 2), 6],
        )
        assert isinstance(res, Feasible)
        assert res.objective_value == Fraction(-5, 4)


class TestRandomized:
    def test_certificates_and_points(self):
        rng = random.Random(31337)
        stats = {"feasible": 0, "infeasible": 0}
        for _ in range(150):
            n = rng.randint(1, 4)
            rows = rng.randint(1, 5)
            nonneg = [rng.random() < 0.7 for _ in range(n)]
            cons = []
            for _ in range(rows):
                coeffs = [rng.randint(-4, 4) for _ in range(n)]
                rel = rng.choice([LE, GE, EQ])
                cons.append(constraint(coeffs, rel, rng.randint(-5, 5)))
            res = solve_lp(n, cons, nonneg=nonneg)
            if isinstance(res, Feasible):
                stats["feasible"] += 1
                assert check_point(n, cons, nonneg, res.point)
            else:
                assert isinstance(res, Infeasible)
                stats["infeasible"] += 1
                assert verify_farkas(n, cons, nonneg, res.certificate)
        assert stats["feasible"] > 0 and stats["infeasible"] > 0

    def test_optimum_matches_vertex_enumeration(self):
        # brute force: optimum of a bounded LP over [0, 3]^n grid relaxation
        # cross-checked by enumerating the LP on all constraint-subsets is
        # overkill; instead check optimality via weak duality on feasible
        # grid points.
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randint(1, 3)
            cons = [constraint([1 if j == k else 0 for j in range(n)], LE, 3) for k in range(n)]
            for _ in range(rng.randint(1, 3)):
                cons.append(
                    constraint([rng.randint(-3, 3) for _ in range(n)], LE, rng.randint(0, 6))
                )
            cost = [rng.randint(-3, 3) for _ in range(n)]
            res = solve_lp(n, cons, objective=cost, maximize=True)
            assert isinstance(res, Feasible)
            best = max(
                sum(c * Fraction(g) for c, g in zip(cost, grid))
                for grid in _grid_points(n, 3)
                if check_point(n, cons, [True] * n, tuple(Fraction(g) for g in grid))
            )
            assert res.objective_value >= best


class TestReference:
    @staticmethod
    def solve_recording(monkeypatch, n, cons, nonneg, objective, maximize):
        made = []

        class Recording(graphk0.lp._Tableau):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with monkeypatch.context() as m:
            m.setattr(graphk0.lp, "_Tableau", Recording)
            res = solve_lp(n, cons, nonneg=nonneg, objective=objective, maximize=maximize)
        return res, made[0].basis

    def test_matches_reference(self, monkeypatch):
        # integer rows: the same pivots, so the same final basis, point,
        # certificate and objective value, down to the Fraction; 60 of the
        # 600 have entries near 2**40, so a pivot that does not divide
        # exactly shows
        rng = random.Random(4097)
        kinds = {Feasible: 0, Infeasible: 0, UnboundedObjective: 0}
        negative_pivots = 0
        for trial in range(600):
            n, cons, nonneg, objective, maximize = random_lp(rng, big=trial % 10 == 0)
            ref = ReferenceTableau(n, cons, nonneg)
            want = ref.solve(cons, objective, maximize)
            got = self.solve_recording(monkeypatch, n, cons, nonneg, objective, maximize)
            assert repr(got) == repr(want), (n, cons, nonneg, objective, maximize)
            kinds[type(got[0])] += 1
            negative_pivots += ref.negative_pivots
        assert min(kinds.values()) >= 40, kinds
        assert negative_pivots >= 5

    def test_fractional_rows(self):
        # scaled rows pivot differently, but the verdict, the optimum and the
        # re-checks agree with the reference
        rng = random.Random(8191)
        kinds = set()
        for _ in range(200):
            n, cons, nonneg, objective, maximize = random_lp(rng, fractional=True)
            want, _ = ReferenceTableau(n, cons, nonneg).solve(cons, objective, maximize)
            got = solve_lp(n, cons, nonneg=nonneg, objective=objective, maximize=maximize)
            assert type(got) is type(want)
            kinds.add(type(got))
            if isinstance(got, Feasible):
                assert check_point(n, cons, nonneg, got.point)
                assert got.objective_value == want.objective_value
            elif isinstance(got, Infeasible):
                assert verify_farkas(n, cons, nonneg, got.certificate)
        assert kinds == {Feasible, Infeasible, UnboundedObjective}

    def test_integer_constraints_stay_integer(self):
        con = constraint([1, Fraction(4, 2), Fraction(1, 3)], LE, 5)
        assert [type(c) for c in con.coeffs] == [int, Fraction, Fraction]
        assert type(con.rhs) is int


def _grid_points(n, hi):
    if n == 0:
        yield ()
        return
    for head in range(hi + 1):
        for tail in _grid_points(n - 1, hi):
            yield (head,) + tail
