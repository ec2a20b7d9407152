"""Exact feasibility of linear systems with verifiable certificates.

A small dense phase-one simplex whose tableau stays in integers (Edmonds,
J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968).  Constraints have
``int`` coefficients and right-hand sides, so the rational tableau is
``rows / den``: integer rows and one positive common denominator.  A pivot
on ``p = rows[r][c]`` replaces every other row (the phase-one cost row too) by
``(p*row - row[c]*rows[r]) // den`` and then sets ``den = p``.  That division
is exact: ``den`` is the absolute determinant of the current basis, so every
entry is an integer combination of its adjugate, a minor of the starting
tableau.  A negative pivot (only ``drop_artificials`` takes one) negates its
row first, which leaves the rational tableau unchanged and ``den`` positive.

Bland's rule guarantees termination and makes every run deterministic; the
ratio test cross-multiplies, so pivots, points and certificates are those of
the same simplex over ``Fraction``.  Values become ``Fraction``s only when a
point or a multiplier is read out.

Infeasible systems come back with a Farkas certificate: constraint
multipliers that combine into an impossible inequality, checkable by plain
arithmetic.  Points and certificates are re-checked in integers on a common
denominator before they are returned.

A ``Constraint`` holds only its nonzero ``(index, coefficient)`` entries, so
``check_point`` and ``verify_farkas`` cost one pass over those entries plus
the number of variables; the dense row is built only for the tableau.
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


@dataclass(frozen=True)
class Constraint:
    """The row ``sum c * x_j  relation  rhs`` over ``width`` variables, held
    as its nonzero ``(j, c)`` entries in increasing ``j``."""

    width: int
    terms: tuple[tuple[int, int], ...]
    relation: str
    rhs: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The dense row."""
        row = [0] * self.width
        for j, c in self.terms:
            row[j] += c
        return tuple(row)


def sparse_constraint(
    width: int, terms: Sequence[tuple[int, int]], relation: str, rhs: int
) -> Constraint:
    """The constraint whose nonzero entries are ``terms``, ``(j, c)`` pairs
    in increasing ``j`` below ``width``."""
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    terms = tuple(terms)
    last = -1
    for j, c in terms:
        if type(c) is not int:
            raise ValueError(f"constraint entries must be int, not {type(c).__name__}")
        if not c or not last < j < width:
            raise ValueError("terms must be nonzero entries in increasing index order")
        last = j
    if type(rhs) is not int:
        raise ValueError(f"constraint entries must be int, not {type(rhs).__name__}")
    return Constraint(width=width, terms=terms, relation=relation, rhs=rhs)


def constraint(coeffs: Sequence[int], relation: str, rhs: int) -> Constraint:
    """The constraint with the dense row ``coeffs``."""
    coeffs = tuple(coeffs)
    for x in coeffs:
        if type(x) is not int:
            raise ValueError(f"constraint entries must be int, not {type(x).__name__}")
    terms = [(j, c) for j, c in enumerate(coeffs) if c]
    return sparse_constraint(len(coeffs), terms, relation, rhs)


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


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


LpResult = Feasible | Infeasible


def _integral(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(scale, ints)`` with ``ints == scale * values`` and ``scale`` the lcm
    of the denominators."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


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
        if con.width != num_vars:
            return False
        if con.relation == LE and lam < 0:
            return False
        if con.relation == GE and lam > 0:
            return False
    # one positive denominator for all multipliers changes no sign below
    _, ints = _integral(mult)
    combined = [0] * num_vars
    rhs = 0
    for m, con in zip(ints, constraints):
        if m:
            for j, c in con.terms:
                combined[j] += m * c
            rhs += m * con.rhs
    for j, x in enumerate(combined):
        if nonneg[j]:
            if x < 0:
                return False
        elif x != 0:
            return False
    return rhs < 0


def check_point(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool],
    point: Sequence[Fraction],
) -> bool:
    if len(point) != num_vars:
        return False
    den, ints = _integral(point)
    if any(nonneg[j] and ints[j] < 0 for j in range(num_vars)):
        return False
    for con in constraints:
        if con.width != num_vars:
            return False
        val = sum([c * ints[j] for j, c in con.terms])
        rhs = con.rhs * den
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
            if con.width != num_vars:
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
        self.basis: list[int] = []
        for i, con in enumerate(self.constraints):
            flip = -1 if con.relation == GE else 1
            rhs = con.rhs * flip
            sign = -1 if rhs < 0 else 1
            row = [0] * self.width
            coeffs = con.coeffs
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

    def phase_one(self) -> tuple[bool, list[int]]:
        """Minimize the sum of the artificials by Bland's rule; feasible
        exactly when that minimum is zero."""
        # the cost row, reduced against the artificial basis
        obj = [0] * self.width
        for row in self.rows:
            obj = [o - x for o, x in zip(obj, row)]
        for c in range(self.art_start, self.width - 1):
            obj[c] += 1
        rows = self.rows
        basis = self.basis
        while True:
            enter = -1
            for c in range(self.width - 1):
                if obj[c] < 0:
                    enter = c
                    break
            if enter < 0:
                return obj[-1] == 0, obj
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
                raise RuntimeError("phase-1 cost is bounded by construction")
            self._pivot(leave, enter, obj)

    def farkas_from_phase_one(self, obj: list[int]) -> FarkasCertificate:
        # the dual value of row i is 1 - obj[art_i] / den
        den = self.den
        return FarkasCertificate(
            multipliers=tuple(
                Fraction((obj[self.art_start + i] - den) * sign * flip, den)
                for i, (sign, flip) in enumerate(zip(self.row_sign, self.flip))
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

    def extract_point(self) -> tuple[Fraction, ...]:
        values = [0] * self.n_struct
        for row, b in zip(self.rows, self.basis):
            if b < self.n_struct:
                values[b] = row[-1]
        point = [0] * self.num_vars
        for (j, sgn), v in zip(self.columns, values):
            point[j] += v * sgn
        return tuple(Fraction(v, self.den) for v in point)


def solve_lp(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool] | None = None,
) -> LpResult:
    """Decide feasibility of an exact integer linear system.

    A feasible point and an infeasibility certificate are both re-checked
    before being returned; a failed check raises ``CertificateError``.
    """
    if nonneg is None:
        nonneg = [True] * num_vars
    nonneg = list(nonneg)
    tab = _Tableau(num_vars, constraints, nonneg)
    feasible, obj_row = tab.phase_one()
    if not feasible:
        cert = tab.farkas_from_phase_one(obj_row)
        if not verify_farkas(num_vars, constraints, nonneg, cert):
            raise CertificateError("Farkas certificate does not prove infeasibility")
        return Infeasible(certificate=cert)
    tab.drop_artificials()
    point = tab.extract_point()
    if not check_point(num_vars, constraints, nonneg, point):
        raise CertificateError("simplex point violates the constraints")
    return Feasible(point=point)
