"""Exact integer linear algebra over arbitrary-precision integers.

Smith normal form with unimodular transforms, cokernel presentations of
integer matrices given by sparse columns (a finitely generated abelian
group with the sparse class of each ambient basis vector and a sparse
section), and linear Diophantine systems.  A cokernel is taken by sparse
elimination on the +-1 entries first, each pivot removing one generator and
one relation, and a Smith normal form of the small residual that is left.
No floating point is used anywhere; all entries are Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

Matrix = list[list[int]]


class CertificateError(Exception):
    """A computed result failed the exact re-check of its certificate: a
    membership witness, an LP point or Farkas certificate, an integer point,
    a graph trace or state, or a solution of a Diophantine system."""


def matrix_dims(a: Matrix) -> tuple[int, int]:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ValueError("ragged matrix")
    return rows, cols


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = matrix_dims(a)
    rb, cb = matrix_dims(b)
    if ca != rb:
        raise ValueError("dimension mismatch in matrix product")
    out = zero_matrix(ra, cb)
    for i in range(ra):
        ai = a[i]
        oi = out[i]
        for k in range(ca):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cb):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a: Matrix, x: list[int]) -> list[int]:
    rows, cols = matrix_dims(a)
    if len(x) != cols:
        raise ValueError("dimension mismatch in matrix-vector product")
    return [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]


def determinant(a: Matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization u @ a @ v == s with unimodular u, v.

    The diagonal of s carries the invariant factors d1 | d2 | ... | d_rank
    (positive), followed by zeros; s itself is not kept.  ``u_inv`` is the
    exact inverse of ``u``; it is what turns canonical coordinates back into
    ambient ones.
    """

    u: Matrix
    v: Matrix
    u_inv: Matrix
    rank: int
    invariant_factors: tuple[int, ...]


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse rows, dropping the entries that cancel."""
    get = dst.get
    for k, y in src.items():
        x = get(k, 0) + q * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def _reduce_torsion(col: dict[int, int], moduli: tuple[int, ...]) -> dict[int, int]:
    """``col``, sparse coordinates, with each torsion entry reduced in place
    into ``[0, d)`` for its modulus d, and dropped when that is 0."""
    for q, d in enumerate(moduli):
        if col.get(q, 0) % d:
            col[q] %= d
        else:
            col.pop(q, None)
    return col


def smith_normal_form(a: Matrix) -> SmithForm:
    """Smith normal form with transforms.

    Pivot choice is always the smallest nonzero absolute entry of the
    remaining block (ties broken row-major), followed by full row/column
    reduction, so the computation is deterministic for a fixed input.

    Two shortcuts leave that pivot sequence unchanged.  The pivot search
    stops at the first entry of absolute value 1: no nonzero integer is
    smaller, and the row-major scan meets the earliest such entry first,
    which is the one the full scan would keep.  The divisibility rescan of
    the remaining block is skipped when the pivot is 1, since every integer
    is divisible by 1 and the scan could find no offending row.

    Every row is kept sparse, as a ``{column: nonzero int}`` dict, so an
    operation touches only the nonzero entries of the row it adds.  A dict
    is not in column order, so the pivot search visits each row's columns
    sorted, which keeps the row-major tie-break.  ``u`` is kept by rows,
    and ``u_inv`` and ``v`` as the rows of their transposes, so that their
    column operations are row operations too.  Only the active block of
    ``s`` (rows and columns from the current pivot on) changes: a finished
    pivot's row and column are zero off the diagonal, so a column
    operation reaches only the rows from the pivot on, and of those only
    the ones where the pivot column is nonzero.  The dense matrices are
    built once, at the end.
    """
    rows, cols = matrix_dims(a)
    s = [{j: x for j, x in enumerate(row) if x} for row in a]
    u = [{i: 1} for i in range(rows)]
    u_inv_t = [{i: 1} for i in range(rows)]
    v_t = [{j: 1} for j in range(cols)]

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def add_row(i: int, j: int, q: int) -> None:
        # row_i += q * row_j; u_inv gets the inverse column operation
        if q == 0:
            return
        _axpy(s[i], s[j], q)
        _axpy(u[i], u[j], q)
        _axpy(u_inv_t[j], u_inv_t[i], -q)

    def swap_cols(t: int, j: int) -> None:
        if t == j:
            return
        for r in s[t:]:
            if t in r or j in r:
                x = r.pop(t, 0)
                y = r.pop(j, 0)
                if x:
                    r[j] = x
                if y:
                    r[t] = y
        v_t[t], v_t[j] = v_t[j], v_t[t]

    def smallest_pivot(t: int) -> tuple[int, int] | None:
        best = None
        where = None
        for i in range(t, rows):
            si = s[i]
            for j in sorted(si):
                val = si[j]
                val = -val if val < 0 else val
                if val == 1:
                    return i, j
                if best is None or val < best:
                    best = val
                    where = (i, j)
        return where

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = smallest_pivot(t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            swap_rows(t, pi)
            swap_cols(t, pj)
            st = s[t]
            if st[t] < 0:
                for r in (st, u[t], u_inv_t[t]):
                    for k in r:
                        r[k] = -r[k]
            d = st[t]
            dirty = False
            for i in range(t + 1, rows):
                x = s[i].get(t)
                if x:
                    add_row(i, t, -(x // d))
                    if t in s[i]:
                        dirty = True
            # column t is fixed while the column operations run, so they
            # reach only the rows where it is nonzero
            holders = [(r, r[t]) for r in s[t:] if t in r]
            col_t = v_t[t]
            for j, x in list(st.items()):
                if j == t:
                    continue
                q = -(x // d)
                if q:
                    for r, c in holders:
                        y = r.get(j, 0) + q * c
                        if y:
                            r[j] = y
                        else:
                            del r[j]
                    _axpy(v_t[j], col_t, q)
                if j in st:
                    dirty = True
            if dirty:
                pivot = smallest_pivot(t)
                continue
            if d == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                if any(x % d for x in s[i].values()):
                    offender = i
                    break
            if offender is None:
                break
            # pull a non-divisible row alongside the pivot and keep reducing
            add_row(t, offender, 1)
            pivot = (t, t)
        t += 1

    rank = t
    factors = tuple(s[i][i] for i in range(rank))
    return SmithForm(
        u=_dense(u, rows),
        v=_transposed(v_t, cols),
        u_inv=_transposed(u_inv_t, rows),
        rank=rank,
        invariant_factors=factors,
    )


def _dense(sparse_rows: list[dict[int, int]], width: int) -> Matrix:
    out = []
    for r in sparse_rows:
        row = [0] * width
        for j, x in r.items():
            row[j] = x
        out.append(row)
    return out


def _transposed(sparse_rows: list[dict[int, int]], height: int) -> Matrix:
    """The dense matrix whose columns are the given sparse rows."""
    out = zero_matrix(height, len(sparse_rows))
    for j, r in enumerate(sparse_rows):
        for i, x in r.items():
            out[i][j] = x
    return out


@dataclass(frozen=True)
class Element:
    """An element of a presented quotient group: torsion residues + free part."""

    torsion: tuple[int, ...]
    free: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.torsion) and not any(self.free)


class CokerPresentation:
    """The quotient of Z^m by the column space of an integer matrix.

    The group is presented as a direct sum of cyclic factors Z/d_i (moduli
    >= 2; factors equal to 1 are dropped) and a free part Z^f, with its
    t + f coordinates numbered torsion first.  Only sparse data is kept:
    ``classes[j]``, the class of the j-th ambient basis vector as a
    ``{coordinate: nonzero int}`` dict, and ``section[q]``, an ambient
    preimage of the q-th coordinate unit as an ``{ambient index: nonzero
    int}`` dict.  The constructor reduces each torsion entry modulo its
    modulus.  ``project``, ``lift`` and ``basis_classes`` read these two
    lists, and project of a lift is the identity.
    """

    def __init__(
        self,
        torsion_moduli: tuple[int, ...],
        classes: list[dict[int, int]],
        section: list[dict[int, int]],
    ) -> None:
        self.ambient_dim = len(classes)
        self.torsion_moduli = torsion_moduli
        self.free_rank = len(section) - len(torsion_moduli)
        self.classes = classes
        self.section = section
        for col in classes:
            _reduce_torsion(col, torsion_moduli)

    def group_invariants(self) -> tuple[int, tuple[int, ...]]:
        return self.free_rank, self.torsion_moduli

    def _element(self, col: dict[int, int]) -> Element:
        """The element with these sparse coordinates, torsion reduced."""
        moduli = self.torsion_moduli
        coords = [0] * (len(moduli) + self.free_rank)
        for q, x in col.items():
            coords[q] = x
        return Element(
            torsion=tuple(x % d for x, d in zip(coords, moduli)),
            free=tuple(coords[len(moduli) :]),
        )

    def project(self, x: list[int]) -> Element:
        if len(x) != self.ambient_dim:
            raise ValueError(
                f"ambient vector of length {len(x)}, expected {self.ambient_dim}"
            )
        acc: dict[int, int] = {}
        for col, c in zip(self.classes, x):
            if c:
                _axpy(acc, col, c)
        return self._element(acc)

    def lift(self, e: Element) -> list[int]:
        """A deterministic ambient preimage of ``e`` (least nonnegative residues)."""
        self._check(e)
        out = [0] * self.ambient_dim
        for row, c in zip(self.section, (*e.torsion, *e.free)):
            if c:
                for i, x in row.items():
                    out[i] += c * x
        return out

    def basis_classes(self) -> list[Element]:
        """The class of every ambient basis vector, equal to ``project`` of
        that vector."""
        return [self._element(col) for col in self.classes]

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        torsion = tuple(
            (x + y) % d for x, y, d in zip(a.torsion, b.torsion, self.torsion_moduli)
        )
        return Element(torsion=torsion, free=tuple(x + y for x, y in zip(a.free, b.free)))

    def negate(self, a: Element) -> Element:
        self._check(a)
        torsion = tuple((-x) % d for x, d in zip(a.torsion, self.torsion_moduli))
        return Element(torsion=torsion, free=tuple(-x for x in a.free))

    def subtract(self, a: Element, b: Element) -> Element:
        return self.add(a, self.negate(b))

    def element_order(self, a: Element) -> int | None:
        """Order of ``a`` in the group, or None if infinite."""
        self._check(a)
        if any(a.free):
            return None
        order = 1
        for r, d in zip(a.torsion, self.torsion_moduli):
            if r:
                order = order * (d // gcd(d, r)) // gcd(order, d // gcd(d, r))
        return order

    def _check(self, e: Element) -> None:
        if len(e.torsion) != len(self.torsion_moduli) or len(e.free) != self.free_rank:
            raise ValueError("element does not match this presentation")


def cokernel(columns: list[dict[int, int]], rows: int) -> CokerPresentation:
    """Present Z^rows / im(a), where ``a`` maps Z^n -> Z^rows and its
    columns are given sparse, as ``{row: int}`` dicts (zero entries are
    dropped, and the dicts are not changed).

    Tietze elimination first, then a small Smith normal form (Dumas,
    Saunders and Villard, J. Symbolic Comput. 32, 2001).  While some entry
    is +-1, the unit pivot of least Markowitz cost (nnz(row) - 1) *
    (nnz(column) - 1) is taken, ties broken by (column, row) index: its
    column says that generator e_r equals an integer combination of the
    others, so e_r and that relation go, and the pivot column is subtracted
    from every other column that holds row r.  The Smith normal form then
    runs on the residual: the rows that some remaining column touches, by
    the remaining columns.  It holds no +-1 entry and no zero row.

    The coordinates are the residual's torsion rows (moduli >= 2), its free
    rows, then one free coordinate per row no column touches, in row order.
    A touched row's class is its column of the residual's left transform U,
    an untouched row's is its own coordinate unit, and an eliminated row's
    is the recorded combination of the other rows' classes, back-substituted
    in reverse order of elimination.  The section is U^-1 on the touched
    rows and the unit vectors on the untouched ones; it is zero on the
    eliminated rows.  Each free coordinate is oriented so that its first
    nonzero entry, in row order, is positive.
    """
    cols = {j: {i: x for i, x in c.items() if x} for j, c in enumerate(columns)}
    holders: list[set[int]] = [set() for _ in range(rows)]
    for j, c in cols.items():
        for i in c:
            if not 0 <= i < rows:
                raise ValueError(f"row index {i} of column {j} outside 0..{rows - 1}")
            holders[i].add(j)

    def cost(i: int, j: int) -> int:
        return (len(holders[i]) - 1) * (len(cols[j]) - 1)

    # the candidate pivots as (cost, column, row); an entry whose value or
    # cost changes is pushed again, and a key that no longer matches its
    # entry is dropped when it comes up
    heap = [(cost(i, j), j, i) for j, c in cols.items() for i, x in c.items() if x == 1 or x == -1]
    heapify(heap)
    eliminated: list[tuple[int, dict[int, int]]] = []
    while heap:
        key = heappop(heap)
        _, pc, r = key
        pivot = cols.get(pc)
        if pivot is None or pivot.get(r) not in (1, -1) or key[0] != cost(r, pc):
            continue
        del cols[pc]
        p = pivot.pop(r)
        changed = holders[r]
        changed.discard(pc)
        holders[r] = set()
        for i in pivot:
            holders[i].discard(pc)
        for j in changed:
            c = cols[j]
            q = -p * c.pop(r)
            for i, x in pivot.items():
                y = c.get(i, 0) + q * x
                if y:
                    if i not in c:
                        holders[i].add(j)
                    c[i] = y
                else:
                    del c[i]
                    holders[i].discard(j)
        # new keys for the changed columns, and for the rows of the pivot
        # column, whose counts changed
        for j in changed:
            for i, x in cols[j].items():
                if x == 1 or x == -1:
                    heappush(heap, (cost(i, j), j, i))
        for i in pivot:
            for j in holders[i] - changed:
                x = cols[j][i]
                if x == 1 or x == -1:
                    heappush(heap, (cost(i, j), j, i))
        # p e_r + sum_i x e_i = 0 with p = +-1
        eliminated.append((r, {i: -p * x for i, x in pivot.items()}))

    remaining = [c for c in cols.values() if c]
    touched = sorted({i for c in remaining for i in c})
    at = {i: k for k, i in enumerate(touched)}
    residual = [[0] * len(remaining) for _ in touched]
    for k, c in enumerate(remaining):
        for i, x in c.items():
            residual[at[i]][k] = x
    snf = smith_normal_form(residual)
    coordinates = [k for k, d in enumerate(snf.invariant_factors) if d >= 2]
    moduli = tuple(d for d in snf.invariant_factors if d >= 2)
    coordinates += range(snf.rank, len(touched))
    gone = {r for r, _ in eliminated}
    untouched = [i for i in range(rows) if i not in at and i not in gone]
    width = len(coordinates) + len(untouched)

    # each row's class as a sparse {coordinate: nonzero int}; every row is
    # touched, untouched or eliminated, so each gets its own dict below
    classes: list[dict[int, int]] = [{}] * rows
    section: list[dict[int, int]] = []
    for c in coordinates:
        section.append({i: x for i, k in at.items() if (x := snf.u_inv[k][c])})
    for i, k in at.items():
        classes[i] = {q: x for q, c in enumerate(coordinates) if (x := snf.u[c][k])}
    for q, i in enumerate(untouched, len(coordinates)):
        classes[i] = {q: 1}
        section.append({i: 1})
    for r, combination in reversed(eliminated):
        acc: dict[int, int] = {}
        for i, x in combination.items():
            _axpy(acc, classes[i], x)
        classes[r] = acc
    # orient the free coordinates: the first nonzero entry of each is positive
    t = len(moduli)
    lead: dict[int, int] = {}
    for col in classes:
        for q, x in col.items():
            if q >= t and q not in lead:
                lead[q] = x
        if len(lead) == width - t:
            break
    flips = {q for q, x in lead.items() if x < 0}
    if flips:
        for col in classes:
            for q in col:
                if q in flips:
                    col[q] = -col[q]
        for q in flips:
            section[q] = {i: -x for i, x in section[q].items()}
    return CokerPresentation(moduli, classes, section)


def solve_diophantine(a: Matrix, b: list[int]) -> list[int] | None:
    """Solve a @ x == b over the integers, or return None when unsolvable."""
    rows, cols = matrix_dims(a)
    if len(b) != rows:
        raise ValueError("right-hand side length does not match the matrix")
    snf = smith_normal_form(a)
    c = mat_vec(snf.u, b)
    y = [0] * cols
    for i in range(rows):
        if i < snf.rank:
            d = snf.invariant_factors[i]
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    x = mat_vec(snf.v, y)
    if mat_vec(a, x) != list(b):
        raise CertificateError(f"Diophantine solution {x} does not satisfy a @ x == {list(b)}")
    return x
