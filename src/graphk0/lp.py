"""Exact linear programming with verifiable certificates.

A small dense two-phase simplex whose tableau stays in integers (Edmonds,
J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968).  The rational tableau
is ``rows / den``: integer rows and one positive common denominator.  A pivot
on ``p = rows[r][c]`` replaces every other row (the objective row too) by
``(p*row - row[c]*rows[r]) // den`` and then sets ``den = p``.  That division
is exact: ``den`` is the absolute determinant of the current basis, so every
entry is an integer combination of its adjugate, a minor of the starting
tableau.  A negative pivot (only ``drop_artificials`` takes one) negates its
row first, which leaves the rational tableau unchanged and ``den`` positive.

Bland's rule guarantees termination and makes every run deterministic; the
ratio test cross-multiplies, so pivots, points and certificates are those of
the same simplex over ``Fraction``.  Values become ``Fraction``s only when a
point or a multiplier is read out.  Rows with fractional entries are scaled
by the lcm of their denominators, and their multipliers scaled back.

Infeasible systems come back with a Farkas certificate: constraint
multipliers that combine into an impossible inequality, checkable by plain
arithmetic.  Points and certificates are re-checked in integers on a common
denominator before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import CertificateError

LE = "<="
GE = ">="
EQ = "=="

_RELATIONS = (LE, GE, EQ)

Rational = int | Fraction


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational


def _exact(x) -> Rational:
    return x if type(x) is int else Fraction(x)


def constraint(coeffs: Sequence, relation: str, rhs) -> Constraint:
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return Constraint(coeffs=tuple(_exact(c) for c in coeffs), relation=relation, rhs=_exact(rhs))


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility: nonnegative on <= rows, nonpositive
    on >= rows, free on == rows; the combined row has nonnegative coefficients
    on every nonnegative variable, zero on free variables, and a negative
    right-hand side."""

    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class Feasible:
    point: tuple[Fraction, ...]
    objective_value: Fraction | None


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


@dataclass(frozen=True)
class UnboundedObjective:
    pass


LpResult = Feasible | Infeasible | UnboundedObjective

_ZERO = Fraction(0)


def _integral(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """``(scale, ints)`` with ``ints == scale * values`` and ``scale`` the lcm
    of the denominators."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _integer_row(con: Constraint) -> tuple[int, list[int], int]:
    """``(scale, coeffs, rhs)``: the constraint times the lcm of its
    denominators."""
    scale, ints = _integral((*con.coeffs, con.rhs))
    return scale, ints[:-1], ints[-1]


def verify_farkas(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool],
    certificate: FarkasCertificate,
) -> bool:
    mult = certificate.multipliers
    if len(mult) != len(constraints):
        return False
    for lam, con in zip(mult, constraints):
        if con.relation == LE and lam < 0:
            return False
        if con.relation == GE and lam > 0:
            return False
    rows = [_integer_row(con) for con in constraints]
    # the multiplier of integer row i is lam_i / scale_i; put them all on one
    # positive denominator, which changes no sign below
    _, ints = _integral([lam if s == 1 else Fraction(lam, s) for lam, (s, _, _) in zip(mult, rows)])
    for j in range(num_vars):
        combined = sum(m * coeffs[j] for m, (_, coeffs, _) in zip(ints, rows))
        if nonneg[j]:
            if combined < 0:
                return False
        elif combined != 0:
            return False
    return sum(m * rhs for m, (_, _, rhs) in zip(ints, rows)) < 0


def check_point(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool],
    point: Sequence[Rational],
) -> bool:
    if len(point) != num_vars:
        return False
    den, ints = _integral(point)
    if any(nonneg[j] and ints[j] < 0 for j in range(num_vars)):
        return False
    for con in constraints:
        _, coeffs, rhs = _integer_row(con)
        val = sum(c * x for c, x in zip(coeffs, ints))
        rhs *= den
        if con.relation == LE and val > rhs:
            return False
        if con.relation == GE and val < rhs:
            return False
        if con.relation == EQ and val != rhs:
            return False
    return True


def _eliminate(row: list[int], piv_row: list[int], c: int, p: int, den: int) -> list[int]:
    """``row`` after a pivot on ``piv_row[c] == p`` of the tableau over
    ``den``; every division is exact."""
    f = row[c]
    if not f:
        return row if p == den else [x * p // den for x in row]
    if den == 1:
        return [p * x - f * y for x, y in zip(row, piv_row)]
    return [(p * x - f * y) // den for x, y in zip(row, piv_row)]


class _Tableau:
    """Dense integer simplex tableau over the common denominator ``den``;
    columns are structural, then slack, then artificial, with the right-hand
    side last."""

    def __init__(self, num_vars, constraints, nonneg):
        self.num_vars = num_vars
        self.constraints = list(constraints)
        self.nonneg = list(nonneg)
        for con in self.constraints:
            if len(con.coeffs) != num_vars:
                raise ValueError("constraint length does not match variable count")
        if len(self.nonneg) != num_vars:
            raise ValueError("nonneg flags do not match variable count")

        # structural columns: one per nonnegative variable, a +/- pair per free one
        self.columns: list[tuple[int, int]] = []
        for j in range(num_vars):
            self.columns.append((j, 1))
            if not self.nonneg[j]:
                self.columns.append((j, -1))
        self.n_struct = len(self.columns)
        n_rows = len(self.constraints)

        slack_of_row = {}
        n_slack = 0
        for i, con in enumerate(self.constraints):
            if con.relation != EQ:
                slack_of_row[i] = n_slack
                n_slack += 1
        self.n_slack = n_slack
        self.n_art = n_rows
        self.width = self.n_struct + n_slack + self.n_art + 1

        self.den = 1
        self.rows: list[list[int]] = []
        self.row_sign: list[int] = []  # sign applied after LE-normalization
        self.flip: list[int] = []  # -1 when a >= row was rewritten as <=
        self.scale: list[int] = []  # the row is the constraint times this
        self.basis: list[int] = []
        for i, con in enumerate(self.constraints):
            scale, coeffs, rhs = _integer_row(con)
            flip = -1 if con.relation == GE else 1
            rhs *= flip
            sign = -1 if rhs < 0 else 1
            row = [0] * self.width
            for k, (j, sgn) in enumerate(self.columns):
                row[k] = coeffs[j] * sgn * flip * sign
            if i in slack_of_row:
                row[self.n_struct + slack_of_row[i]] = sign
            row[-1] = rhs * sign
            art = self.n_struct + n_slack + i
            row[art] = 1
            self.rows.append(row)
            self.row_sign.append(sign)
            self.flip.append(flip)
            self.scale.append(scale)
            self.basis.append(art)
        self.art_start = self.n_struct + n_slack

    def _pivot(self, r: int, c: int, obj: list[int] | None = None) -> None:
        rows = self.rows
        piv_row = rows[r]
        p = piv_row[c]
        if p < 0:
            p = -p
            rows[r] = piv_row = [-x for x in piv_row]
        den = self.den
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, piv_row, c, p, den)
        if obj is not None:
            obj[:] = _eliminate(obj, piv_row, c, p, den)
        self.den = p
        self.basis[r] = c

    def _simplex(self, obj: list[int], allow_art: bool) -> bool:
        """Minimize; returns False when unbounded.  Bland's rule throughout."""
        limit = self.width - 1 if allow_art else self.art_start
        rows = self.rows
        basis = self.basis
        while True:
            enter = -1
            for c in range(limit):
                if obj[c] < 0:
                    enter = c
                    break
            if enter < 0:
                return True
            # minimum ratio rhs / a over a > 0, compared by cross-multiplying
            # (den cancels); ties go to the smallest basic column
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_rhs, best_a = i, row[-1], a
            if leave < 0:
                return False
            self._pivot(leave, enter, obj)

    def phase_one(self) -> tuple[bool, list[int]]:
        # the sum of the artificials, reduced against the artificial basis
        obj = [0] * self.width
        for row in self.rows:
            obj = [o - x for o, x in zip(obj, row)]
        for c in range(self.art_start, self.width - 1):
            obj[c] += 1
        if not self._simplex(obj, allow_art=True):
            raise RuntimeError("phase-1 objective is bounded by construction")
        return obj[-1] == 0, obj

    def farkas_from_phase_one(self, obj: list[int]) -> FarkasCertificate:
        # the dual value of row i is 1 - obj[art_i] / den
        den = self.den
        return FarkasCertificate(
            multipliers=tuple(
                Fraction((obj[self.art_start + i] - den) * sign * flip * scale, den)
                for i, (sign, flip, scale) in enumerate(zip(self.row_sign, self.flip, self.scale))
            )
        )

    def drop_artificials(self) -> None:
        for i in range(len(self.rows)):
            b = self.basis[i]
            if b >= self.art_start:
                row = self.rows[i]
                col = next((c for c in range(self.art_start) if row[c] != 0), None)
                if col is not None:
                    self._pivot(i, col)
        keep = [i for i in range(len(self.rows)) if self.basis[i] < self.art_start]
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def phase_two(self, objective: Sequence[Rational]) -> bool:
        _, cost = _integral(objective)  # a positive scale keeps every pivot
        col_cost = [cost[j] * sgn for j, sgn in self.columns]
        col_cost += [0] * (self.width - self.n_struct)
        obj = [self.den * x for x in col_cost]
        for row, b in zip(self.rows, self.basis):
            f = col_cost[b]
            if f:
                obj = [o - f * x for o, x in zip(obj, row)]
        return self._simplex(obj, allow_art=False)

    def extract_point(self) -> tuple[Fraction, ...]:
        values = [0] * self.n_struct
        for row, b in zip(self.rows, self.basis):
            if b < self.n_struct:
                values[b] = row[-1]
        point = [0] * self.num_vars
        for (j, sgn), v in zip(self.columns, values):
            point[j] += v * sgn
        return tuple(Fraction(v, self.den) for v in point)


def _checked_point(tab: _Tableau, constraints) -> tuple[Fraction, ...]:
    point = tab.extract_point()
    if not check_point(tab.num_vars, constraints, tab.nonneg, point):
        raise CertificateError("simplex point violates the constraints")
    return point


def solve_lp(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool] | None = None,
    objective: Sequence | None = None,
    maximize: bool = False,
) -> LpResult:
    """Solve an exact rational LP.

    With no objective this is a feasibility check.  Infeasible results carry
    a Farkas certificate that is re-verified before being returned.
    """
    if nonneg is None:
        nonneg = [True] * num_vars
    nonneg = list(nonneg)
    constraints = [
        c if isinstance(c, Constraint) else constraint(*c) for c in constraints
    ]
    cost = None
    if objective is not None:
        cost = [_exact(c) for c in objective]
        if len(cost) != num_vars:
            raise ValueError("objective length does not match variable count")

    tab = _Tableau(num_vars, constraints, nonneg)
    feasible, obj_row = tab.phase_one()
    if not feasible:
        cert = tab.farkas_from_phase_one(obj_row)
        if not verify_farkas(num_vars, constraints, nonneg, cert):
            raise CertificateError("Farkas certificate does not prove infeasibility")
        return Infeasible(certificate=cert)
    tab.drop_artificials()

    if cost is None:
        return Feasible(point=_checked_point(tab, constraints), objective_value=None)

    bounded = tab.phase_two([-c for c in cost] if maximize else cost)
    if not bounded:
        return UnboundedObjective()
    point = _checked_point(tab, constraints)
    value = sum((c * x for c, x in zip(cost, point)), _ZERO)
    return Feasible(point=point, objective_value=value)
