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
