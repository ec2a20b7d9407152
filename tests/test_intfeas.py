import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import pytest

import graphk0.intfeas
from graphk0.intfeas import IntInfeasible, IntWitness, integer_feasibility
from graphk0.linalg import CertificateError
from graphk0.lp import Feasible


class TestBoundedNonnegFeasibility:
    """Systems a @ x == b with 0 <= x_i <= cap_i, posed to integer_feasibility."""

    def test_direct(self):
        res = integer_feasibility(2, [([1, 1], 2)], bounds=[(0, 1), (0, 1)])
        assert res == IntWitness(point=(1, 1))

    def test_parity(self):
        res = integer_feasibility(1, [([2], 1)], bounds=[(0, None)])
        assert isinstance(res, IntInfeasible)

    def test_zero_rhs_tiny_budget(self):
        res = integer_feasibility(
            2, [([1, -1], 0)], bounds=[(0, None), (0, None)], budget=1
        )
        assert res == IntWitness(point=(0, 0))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            integer_feasibility(1, [([1], 1)], budget=0)

    def test_lattice_preprocessing_closes_strip(self):
        # the relaxation is an infinite strip, but 2x - 2y == 1 has no
        # integer solution at all; the root lattice check certifies it
        res = integer_feasibility(
            2, [([2, -2], 1)], bounds=[(0, None), (0, None)], budget=50
        )
        assert isinstance(res, IntInfeasible)

    def test_caps_respected(self):
        res = integer_feasibility(1, [([1], 5)], bounds=[(0, 4)])
        assert isinstance(res, IntInfeasible)
        res = integer_feasibility(1, [([1], 5)], bounds=[(0, 5)])
        assert res == IntWitness(point=(5,))

    def test_brute_force_agreement(self):
        rng = random.Random(314)
        for _ in range(120):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            caps = [rng.randint(0, 4) for _ in range(cols)]
            b = [rng.randint(-4, 6) for _ in range(rows)]
            res = integer_feasibility(
                cols, list(zip(a, b)), bounds=[(0, c) for c in caps], budget=5000
            )
            brute = None
            for x in product(*(range(c + 1) for c in caps)):
                if all(
                    sum(a[i][j] * x[j] for j in range(cols)) == b[i] for i in range(rows)
                ):
                    brute = x
                    break
            if isinstance(res, IntWitness):
                assert brute is not None
                assert all(
                    sum(a[i][j] * res.point[j] for j in range(cols)) == b[i]
                    for i in range(rows)
                )
                assert all(0 <= v <= c for v, c in zip(res.point, caps))
            elif isinstance(res, IntInfeasible):
                assert brute is None
            else:
                pytest.fail("bounded search with full caps should never be Unknown")


def box_points(bounds):
    return product(*(range(lo, hi + 1) for lo, hi in bounds))


def satisfies(a, b, bounds, x):
    """x satisfies a @ x == b and lo <= x <= hi, read off the definition."""
    rows_hold = all(sum(c * v for c, v in zip(row, x)) == rhs for row, rhs in zip(a, b))
    return rows_hold and all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))


@pytest.mark.parametrize("seed", range(4))
def test_verdict_agrees_with_box_enumeration(seed):
    # the definition: a bounded program is feasible exactly when some
    # integer point of its box satisfies it; boxes may lie below zero and
    # programs may have no equality
    rng = random.Random(f"box/{seed}")
    for _ in range(60):
        cols = rng.randint(1, 4)
        rows = rng.randint(0, 3)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-6, 6) for _ in range(rows)]
        bounds = []
        for _ in range(cols):
            lo = rng.randint(-3, 2)
            bounds.append((lo, lo + rng.randint(0, 4)))
        res = integer_feasibility(cols, list(zip(a, b)), bounds=bounds, budget=5000)
        feasible = any(satisfies(a, b, bounds, x) for x in box_points(bounds))
        if isinstance(res, IntWitness):
            assert satisfies(a, b, bounds, res.point), (a, b, bounds, res)
        else:
            assert isinstance(res, IntInfeasible), (a, b, bounds, res)
            assert not feasible, (a, b, bounds)


class TestLatticeCheckOrder:
    """The Diophantine pre-check runs once, after a fractional root
    relaxation and before the first branch; a root that is integral or
    infeasible settles the program without it."""

    @pytest.fixture
    def log(self, monkeypatch):
        log = []
        lp, diophantine = graphk0.intfeas.solve_lp, graphk0.intfeas.solve_diophantine
        monkeypatch.setattr(
            graphk0.intfeas, "solve_lp", lambda *args: log.append("lp") or lp(*args)
        )
        monkeypatch.setattr(
            graphk0.intfeas,
            "solve_diophantine",
            lambda *args: log.append("diophantine") or diophantine(*args),
        )
        return log

    def test_integral_root(self, log):
        res = integer_feasibility(2, [([1, 1], 2)], bounds=[(0, 1), (0, 1)])
        assert res == IntWitness(point=(1, 1))
        assert log == ["lp"]

    def test_fractional_root(self, log):
        # the root is (5/2, 0); the branches find (1, 1)
        res = integer_feasibility(2, [([2, 3], 5)], bounds=[(0, None), (0, None)])
        assert res == IntWitness(point=(1, 1))
        assert log[:3] == ["lp", "diophantine", "lp"]
        assert log.count("diophantine") == 1

    def test_infeasible_root(self, log):
        res = integer_feasibility(2, [([1, 1], -1)], bounds=[(0, None), (0, None)])
        assert isinstance(res, IntInfeasible)
        assert log == ["lp"]

    def test_lattice_infeasible_after_fractional_root(self, log):
        # 2x - 2y == 1: the strip's root point is fractional, the branch tree
        # is infinite, and the lattice check closes it before any branch
        res = integer_feasibility(2, [([2, -2], 1)], bounds=[(0, None), (0, None)], budget=2)
        assert isinstance(res, IntInfeasible)
        assert log == ["lp", "diophantine"]


class TestFreeVariables:
    def test_free_var_congruence(self):
        # 3x - 5k == 1 with x >= 0, k free: x = 2, k = 1
        res = integer_feasibility(
            2, [([3, -5], 1)], bounds=[(0, None), (None, None)], budget=1000
        )
        assert isinstance(res, IntWitness)
        x, k = res.point
        assert 3 * x - 5 * k == 1 and x >= 0


class TestWitnessRecheck:
    """An integral relaxation point is re-checked against the whole program
    before it is returned; a point that breaks it raises."""

    # (bounds, the point the relaxation claims)
    BROKEN = (
        ([(0, 4)], (5,)),  # above the upper bound
        ([(2, None)], (1,)),  # below a nonzero lower bound
        ([(0, None)], (-1,)),  # negative where the bound is 0
    )

    @pytest.mark.parametrize("bounds, point", BROKEN)
    def test_bad_point_raises(self, monkeypatch, bounds, point):
        monkeypatch.setattr(
            graphk0.intfeas, "solve_lp", lambda *args, **kw: Feasible(point=tuple(map(Fraction, point)))
        )
        with pytest.raises(CertificateError):
            integer_feasibility(1, [], bounds=bounds)

    def test_no_variable_solves_no_lp(self, monkeypatch):
        # the empty point is the only one: the Diophantine pre-check settles
        # the equalities and no LP is solved, but the point is still
        # re-checked, so a pre-check that let 0 == 2 through would raise
        def refuse(*args, **kwargs):
            raise RuntimeError("an LP was solved for a program with no variable")

        monkeypatch.setattr(graphk0.intfeas, "solve_lp", refuse)
        assert integer_feasibility(0, []) == IntWitness(point=())
        assert integer_feasibility(0, [([], 0), ([], 0)]) == IntWitness(point=())
        assert isinstance(integer_feasibility(0, [([], 0), ([], 2)]), IntInfeasible)
        monkeypatch.setattr(graphk0.intfeas, "solve_diophantine", lambda a, b: [])
        with pytest.raises(CertificateError):
            integer_feasibility(0, [([], 2)])

    def test_bad_point_raises_without_asserts(self):
        script = textwrap.dedent(
            """
            from fractions import Fraction
            import graphk0.intfeas as intfeas
            from graphk0 import CertificateError
            from graphk0.lp import Feasible

            intfeas.solve_lp = lambda *args, **kw: Feasible(point=(Fraction(5),))
            try:
                intfeas.integer_feasibility(1, [], bounds=[(0, 4)])
            except CertificateError:
                print("debug", __debug__, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(graphk0.intfeas.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "debug False raised\n"
