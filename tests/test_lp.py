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
    FarkasCertificate,
    check_point,
    constraint,
    solve_lp,
    sparse_constraint,
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

    def solve(self):
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
        values = [Fraction(0)] * self.n_struct
        for row, b in zip(self.rows, self.basis):
            if b < self.n_struct:
                values[b] = row[-1]
        point = [Fraction(0)] * self.num_vars
        for (j, s), v in zip(self.columns, values):
            point[j] += s * v
        return Feasible(tuple(point)), self.basis


def random_lp(rng, big=False):
    """A small system: mixed relations, free variables, zero right-hand
    sides, sparse rows and redundant combinations of earlier rows."""
    n = rng.randint(1, 5)
    nonneg = [rng.random() < 0.7 for _ in range(n)]
    bound = 2**40 if big else 4

    def entry():
        return 0 if rng.random() < 0.3 else rng.randint(-bound, bound)

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
    return n, cons, nonneg


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
    """Optimization instances recast as feasibility systems: the optimum is
    one more row, so the only points left are optimal, and a row one unit
    past the optimum is infeasible."""

    def test_bound_attained(self):
        # max x subject to x <= 3
        res = solve_lp(1, [constraint([1], LE, 3), constraint([1], GE, 3)])
        assert isinstance(res, Feasible)
        assert res.point == (Fraction(3),)
        cons = [constraint([1], LE, 3), constraint([1], GE, 4)]
        res = solve_lp(1, cons)
        assert isinstance(res, Infeasible)
        assert verify_farkas(1, cons, [True], res.certificate)

    def test_minimize(self):
        # min 3x + y subject to x + y >= 2, y <= x: optimum 4 at x = y = 1
        cons = [constraint([1, 1], GE, 2), constraint([-1, 1], LE, 0)]
        res = solve_lp(2, cons + [constraint([3, 1], LE, 4)])
        assert isinstance(res, Feasible)
        assert res.point == (Fraction(1), Fraction(1))
        cons.append(constraint([3, 1], LE, 3))
        res = solve_lp(2, cons)
        assert isinstance(res, Infeasible)
        assert verify_farkas(2, cons, [True, True], res.certificate)

    def test_degenerate_cycling_guard(self):
        # Beale's degenerate LP, which cycles under the textbook pivot rule:
        # min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 subject to
        # 1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0
        # and x3 <= 1, optimum -5/4; rows scaled to integers, Bland's rule
        # must terminate
        rows = [
            constraint([1, -32, -4, 36], LE, 0),
            constraint([1, -24, -1, 6], LE, 0),
            constraint([0, 0, 1, 0], LE, 1),
        ]
        cost = [-3, 80, -2, 24]  # four times the objective
        cons = rows + [constraint(cost, LE, -5)]
        res = solve_lp(4, cons)
        assert isinstance(res, Feasible)
        assert check_point(4, cons, [True] * 4, res.point)
        assert sum(c * x for c, x in zip(cost, res.point)) == -5
        cons = rows + [constraint(cost, LE, -6)]
        res = solve_lp(4, cons)
        assert isinstance(res, Infeasible)
        assert verify_farkas(4, cons, [True] * 4, res.certificate)


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


class TestReference:
    @staticmethod
    def solve_recording(monkeypatch, n, cons, nonneg):
        made = []

        class Recording(graphk0.lp._Tableau):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        with monkeypatch.context() as m:
            m.setattr(graphk0.lp, "_Tableau", Recording)
            res = solve_lp(n, cons, nonneg=nonneg)
        return res, made[0].basis

    def test_matches_reference(self, monkeypatch):
        # the same pivots, so the same final basis, point and certificate,
        # down to the Fraction; 60 of the 600 systems have entries near
        # 2**40, so a pivot that does not divide exactly shows
        rng = random.Random(4097)
        kinds = {Feasible: 0, Infeasible: 0}
        negative_pivots = 0
        for trial in range(600):
            n, cons, nonneg = random_lp(rng, big=trial % 10 == 0)
            ref = ReferenceTableau(n, cons, nonneg)
            want = ref.solve()
            got = self.solve_recording(monkeypatch, n, cons, nonneg)
            assert repr(got) == repr(want), (n, cons, nonneg)
            kinds[type(got[0])] += 1
            negative_pivots += ref.negative_pivots
        assert min(kinds.values()) >= 40, kinds
        assert negative_pivots >= 5

    def test_constraint_rejects_non_integers(self):
        con = constraint([1, -2, 0], LE, 5)
        assert [type(c) for c in con.coeffs] == [int, int, int]
        assert type(con.rhs) is int
        for bad in (Fraction(1, 3), Fraction(4, 2), 1.0, True):
            with pytest.raises(ValueError, match="must be int"):
                constraint([1, bad], LE, 5)
            with pytest.raises(ValueError, match="must be int"):
                constraint([1, 2], GE, bad)

    def test_constraints_keep_only_nonzero_entries(self):
        # a dense row and its nonzero entries give the same constraint, and
        # the dense row is read back only on request
        con = constraint([0, 3, 0, -1], LE, 2)
        assert con.terms == ((1, 3), (3, -1)) and con.width == 4
        assert con == sparse_constraint(4, ((1, 3), (3, -1)), LE, 2)
        assert con.coeffs == (0, 3, 0, -1)
        for terms in (((3, -1), (1, 3)), ((1, 3), (1, 1)), ((1, 0),), ((4, 1),), ((-1, 1),)):
            with pytest.raises(ValueError, match="increasing index order"):
                sparse_constraint(4, terms, LE, 2)
        with pytest.raises(ValueError, match="must be int"):
            sparse_constraint(4, ((1, Fraction(1, 2)),), LE, 2)
        with pytest.raises(ValueError, match="unknown relation"):
            sparse_constraint(4, (), "<", 2)

    def test_checks_reject_a_row_of_another_width(self):
        narrow = [constraint([1], GE, 1)]
        assert check_point(1, narrow, [True], (Fraction(1),))
        assert not check_point(2, narrow, [True, True], (Fraction(1), Fraction(0)))
        certificate = FarkasCertificate((Fraction(-1),))
        infeasible = [constraint([-1], GE, 1)]
        assert verify_farkas(1, infeasible, [True], certificate)
        assert not verify_farkas(2, infeasible, [True, True], certificate)
