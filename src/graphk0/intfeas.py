"""Integer feasibility by branch and bound on exact LP relaxations.

The search is a depth-first branch and bound with most-fractional branching.
Every verdict is conservative: witnesses are re-verified exactly, Infeasible
is only reported when the equalities have no integer solution at all (a
Diophantine pre-check, before the first branch) or when the whole branch
tree has been closed (each leaf with a rationally infeasible relaxation),
and running out of budget yields an explicit Unknown instead of a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import CertificateError, solve_diophantine
from .lp import (
    EQ,
    GE,
    LE,
    Constraint,
    Feasible,
    check_point,
    constraint,
    solve_lp,
    sparse_constraint,
)


@dataclass(frozen=True)
class IntWitness:
    point: tuple[int, ...]


@dataclass(frozen=True)
class IntInfeasible:
    pass


@dataclass(frozen=True)
class IntUnknown:
    nodes_explored: int


IntResult = IntWitness | IntInfeasible | IntUnknown

Bound = tuple[int | None, int | None]


def relaxation(
    rows: Sequence[Constraint], bounds: Sequence[Bound]
) -> tuple[list[Constraint], list[bool]]:
    """The LP relaxation under ``bounds``, as the constraints and the
    nonnegativity flags of ``solve_lp``: ``rows``, then each bound as a
    unit row, except that a zero lower bound is a nonnegativity flag."""
    cons = list(rows)
    width = len(bounds)
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and lo != 0:
            cons.append(sparse_constraint(width, ((j, 1),), GE, lo))
        if hi is not None:
            cons.append(sparse_constraint(width, ((j, 1),), LE, hi))
    return cons, [lo is not None and lo >= 0 for lo, _ in bounds]


def integer_feasibility(
    num_vars: int,
    equalities: Sequence[tuple[Sequence[int], int]],
    bounds: Sequence[Bound] | None = None,
    budget: int = 100000,
) -> IntResult:
    """Find an integer point satisfying the equalities and per-variable
    (lower, upper) bounds; None means unbounded on that side.

    The Diophantine pre-check (the equalities unsolvable over Z even
    without bounds, so the whole search space is empty) runs before the
    first branch, after a fractional root relaxation: an infeasible root
    closes the tree, and an integral one is an integer solution.  With no
    variable it runs first, since it alone settles the equalities."""
    if budget < 1:
        raise ValueError("budget must be positive")
    if bounds is None:
        bounds = [(0, None)] * num_vars
    bounds = list(bounds)
    if len(bounds) != num_vars:
        raise ValueError("bounds length does not match variable count")

    def lattice_empty() -> bool:
        eq_matrix = [list(coeffs) for coeffs, _ in equalities]
        eq_rhs = [rhs for _, rhs in equalities]
        return bool(equalities) and solve_diophantine(eq_matrix, eq_rhs) is None

    if not num_vars and lattice_empty():
        return IntInfeasible()

    base_cons = [constraint(coeffs, EQ, rhs) for coeffs, rhs in equalities]
    stack: list[list[Bound]] = [list(bounds)]
    nodes = 0
    while stack:
        if nodes >= budget:
            return IntUnknown(nodes_explored=nodes)
        node = stack.pop()
        nodes += 1
        # with no variable the Diophantine pre-check has settled the
        # equalities, and the empty point is re-checked below
        res = solve_lp(num_vars, *relaxation(base_cons, node)) if num_vars else Feasible(())
        if not isinstance(res, Feasible):
            continue
        point = res.point
        frac_var = -1
        frac_score = Fraction(0)
        for j, val in enumerate(point):
            if val.denominator == 1:
                continue
            f = val - (val.numerator // val.denominator)
            score = min(f, 1 - f)
            if score > frac_score:
                frac_score = score
                frac_var = j
        if frac_var < 0:
            ints = tuple(int(v) for v in point)
            if not check_point(num_vars, *relaxation(base_cons, bounds), ints):
                raise CertificateError("integral relaxation point violates the program")
            return IntWitness(point=ints)
        # the root is the only node popped before the first branch
        if nodes == 1 and lattice_empty():
            return IntInfeasible()
        floor = point[frac_var].numerator // point[frac_var].denominator
        lo, hi = node[frac_var]
        upper = list(node)
        upper[frac_var] = (max(lo, floor + 1) if lo is not None else floor + 1, hi)
        lower = list(node)
        lower[frac_var] = (lo, min(hi, floor) if hi is not None else floor)
        stack.append(upper)
        stack.append(lower)
    return IntInfeasible()

