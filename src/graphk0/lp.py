"""Exact rational linear programming with verifiable certificates.

A small dense two-phase simplex over `fractions.Fraction`.  Bland's rule
guarantees termination and makes every run deterministic.  Infeasible
systems come back with a Farkas certificate: constraint multipliers that
combine into an impossible inequality, checkable by plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import CertificateError

LE = "<="
GE = ">="
EQ = "=="

_RELATIONS = (LE, GE, EQ)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


def constraint(coeffs: Sequence, relation: str, rhs) -> Constraint:
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return Constraint(
        coeffs=tuple(Fraction(c) for c in coeffs),
        relation=relation,
        rhs=Fraction(rhs),
    )


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
_ONE = Fraction(1)


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
    for j in range(num_vars):
        combined = sum((lam * con.coeffs[j] for lam, con in zip(mult, constraints)), _ZERO)
        if nonneg[j]:
            if combined < 0:
                return False
        elif combined != 0:
            return False
    rhs = sum((lam * con.rhs for lam, con in zip(mult, constraints)), _ZERO)
    return rhs < 0


def check_point(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Sequence[bool],
    point: Sequence[Fraction],
) -> bool:
    if len(point) != num_vars:
        return False
    if any(nonneg[j] and point[j] < 0 for j in range(num_vars)):
        return False
    for con in constraints:
        val = sum((c * x for c, x in zip(con.coeffs, point)), _ZERO)
        if con.relation == LE and val > con.rhs:
            return False
        if con.relation == GE and val < con.rhs:
            return False
        if con.relation == EQ and val != con.rhs:
            return False
    return True


class _Tableau:
    """Dense simplex tableau; columns are structural, then slack, then
    artificial, with the right-hand side last."""

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

        self.rows: list[list[Fraction]] = []
        self.row_sign: list[int] = []  # sign applied after LE-normalization
        self.flip: list[int] = []  # -1 when a >= row was rewritten as <=
        self.basis: list[int] = []
        for i, con in enumerate(self.constraints):
            flip = -1 if con.relation == GE else 1
            coeffs = [flip * c for c in con.coeffs]
            rhs = flip * con.rhs
            row = [_ZERO] * self.width
            for k, (j, sgn) in enumerate(self.columns):
                val = coeffs[j] * sgn
                if val:
                    row[k] = val
            if i in slack_of_row:
                row[self.n_struct + slack_of_row[i]] = _ONE
            sign = 1
            if rhs < 0:
                sign = -1
                row = [-x for x in row]
                rhs = -rhs
            row[-1] = rhs
            art = self.n_struct + n_slack + i
            row[art] = _ONE
            self.rows.append(row)
            self.row_sign.append(sign)
            self.flip.append(flip)
            self.basis.append(art)
        self.art_start = self.n_struct + n_slack

    def _pivot(self, r: int, c: int, obj: list[Fraction]) -> None:
        rows = self.rows
        piv_row = rows[r]
        piv = piv_row[c]
        if piv != 1:
            inv = _ONE / piv
            rows[r] = piv_row = [x * inv for x in piv_row]
        width = self.width
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [row[k] - f * piv_row[k] for k in range(width)]
        f = obj[c]
        if f:
            for k in range(width):
                obj[k] -= f * piv_row[k]
        self.basis[r] = c

    def _simplex(self, obj: list[Fraction], allow_art: bool) -> bool:
        """Minimize; returns False when unbounded.  Bland's rule throughout."""
        limit = self.width - 1 if allow_art else self.art_start
        while True:
            enter = -1
            for c in range(limit):
                if obj[c] < 0:
                    enter = c
                    break
            if enter < 0:
                return True
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return False
            self._pivot(leave, enter, obj)

    def phase_one(self) -> tuple[bool, list[Fraction]]:
        obj = [_ZERO] * self.width
        for c in range(self.art_start, self.width - 1):
            obj[c] = _ONE
        # reduce against the artificial basis
        for row in self.rows:
            for k in range(self.width):
                obj[k] -= row[k]
        if not self._simplex(obj, allow_art=True):
            raise RuntimeError("phase-1 objective is bounded by construction")
        infeas_value = -obj[-1]
        return infeas_value == 0, obj

    def farkas_from_phase_one(self, obj: list[Fraction]) -> FarkasCertificate:
        mult = []
        for i in range(len(self.rows)):
            y = _ONE - obj[self.art_start + i]
            mult.append(-y * self.row_sign[i] * self.flip[i])
        return FarkasCertificate(multipliers=tuple(mult))

    def drop_artificials(self) -> None:
        for i in range(len(self.rows)):
            b = self.basis[i]
            if b >= self.art_start:
                row = self.rows[i]
                col = next((c for c in range(self.art_start) if row[c] != 0), None)
                if col is not None:
                    dummy = [_ZERO] * self.width
                    self._pivot(i, col, dummy)
        keep = [i for i in range(len(self.rows)) if self.basis[i] < self.art_start]
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def phase_two(self, objective: Sequence[Fraction]) -> bool:
        obj = [_ZERO] * self.width
        for k, (j, sgn) in enumerate(self.columns):
            obj[k] = objective[j] * sgn
        for i, row in enumerate(self.rows):
            f = obj[self.basis[i]]
            if f:
                for k in range(self.width):
                    obj[k] -= f * row[k]
        return self._simplex(obj, allow_art=False)

    def extract_point(self) -> tuple[Fraction, ...]:
        values = [_ZERO] * self.n_struct
        for i, b in enumerate(self.basis):
            if b < self.n_struct:
                values[b] = self.rows[i][-1]
        point = [_ZERO] * self.num_vars
        for k, (j, sgn) in enumerate(self.columns):
            point[j] += values[k] if sgn == 1 else -values[k]
        return tuple(point)


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

    tab = _Tableau(num_vars, constraints, nonneg)
    feasible, obj_row = tab.phase_one()
    if not feasible:
        cert = tab.farkas_from_phase_one(obj_row)
        if not verify_farkas(num_vars, constraints, nonneg, cert):
            raise CertificateError("Farkas certificate does not prove infeasibility")
        return Infeasible(certificate=cert)
    tab.drop_artificials()

    if objective is None:
        return Feasible(point=_checked_point(tab, constraints), objective_value=None)

    cost = [Fraction(c) for c in objective]
    if len(cost) != num_vars:
        raise ValueError("objective length does not match variable count")
    internal = [-c for c in cost] if maximize else cost
    bounded = tab.phase_two(internal)
    if not bounded:
        return UnboundedObjective()
    point = _checked_point(tab, constraints)
    value = sum((c * x for c, x in zip(cost, point)), _ZERO)
    return Feasible(point=point, objective_value=value)
