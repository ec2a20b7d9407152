import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

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
        assert proc.stdout == "debug False farkas raised\ndebug False point raised\n"

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


def _grid_points(n, hi):
    if n == 0:
        yield ()
        return
    for head in range(hi + 1):
        for tail in _grid_points(n - 1, hi):
            yield (head,) + tail
