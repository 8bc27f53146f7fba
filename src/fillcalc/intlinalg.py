"""Exact integer matrix helpers: Hermite-style reduction, lattice membership,
rank over Q, determinants, and unimodular column adaptation."""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = [
    "NotSurjectiveError",
    "hermite_rows",
    "coset",
    "in_lattice",
    "rank",
    "det_int",
    "column_adapt",
    "matmul",
    "identity",
]


class NotSurjectiveError(ValueError):
    pass


def hermite_rows(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-echelon integer basis (pivot rows) for the lattice spanned by rows."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    dim = len(work[0])
    basis: List[List[int]] = []
    col = 0
    while col < dim and work:
        nonzero = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            piv = nonzero[0]
            reduced = []
            for r in nonzero[1:]:
                q = r[col] // piv[col]
                new = [a - q * b for a, b in zip(r, piv)]
                (reduced if new[col] != 0 else rest).append(new)
            nonzero = [piv] + [r for r in reduced if any(r)]
            rest = [r for r in rest if any(r)]
        if nonzero:
            piv = nonzero[0]
            if piv[col] < 0:
                piv = [-a for a in piv]
            basis.append(piv)
        work = [r for r in rest if any(r)]
        col += 1
    return basis


def coset(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> Tuple[int, ...]:
    """The canonical representative of vec modulo the integer span of a
    hermite_rows basis: each pivot entry reduced into [0, pivot)."""
    v = list(map(int, vec))
    for row in basis:
        col = next(i for i, a in enumerate(row) if a != 0)
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def in_lattice(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Whether vec lies in the integer span of a hermite_rows basis."""
    return not any(coset(basis, vec))


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(hermite_rows(rows))


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(matrix)
    m = [list(map(int, row)) for row in matrix]
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
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _swap_cols(m: List[List[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_col(m: List[List[int]], dst: int, src: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def column_adapt(phi: Sequence[Sequence[int]]) -> List[List[int]]:
    """A unimodular integer matrix B with phi @ B = [I_r | 0].

    phi is an r x m matrix describing a surjection Z^m -> Z^r; raises
    NotSurjectiveError when no such B exists (non-unit elementary divisors).
    """
    r = len(phi)
    m = len(phi[0]) if phi else 0
    if r > m:
        raise NotSurjectiveError("more target dimensions than source")
    a = [list(map(int, row)) for row in phi]
    b = identity(m)
    for i in range(r):
        # gcd sweep across columns i..m-1 using row i only; earlier rows are
        # already zero there, so these column operations leave them intact
        while True:
            cols = [j for j in range(i, m) if a[i][j] != 0]
            if not cols:
                raise NotSurjectiveError(f"row {i} has rank defect")
            piv = min(cols, key=lambda j: abs(a[i][j]))
            if piv != i:
                _swap_cols(a, i, piv)
                _swap_cols(b, i, piv)
            done = True
            for j in range(i + 1, m):
                if a[i][j] != 0:
                    q = a[i][j] // a[i][i]
                    _add_col(a, j, i, -q)
                    _add_col(b, j, i, -q)
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if a[i][i] < 0:
            _add_col(a, i, i, -2)
            _add_col(b, i, i, -2)
        if a[i][i] != 1:
            raise NotSurjectiveError(f"elementary divisor {a[i][i]} != 1")
    # clear the lower-triangular residue below earlier pivots
    for i in range(r):
        for k in range(i):
            if a[i][k] != 0:
                q = a[i][k]
                _add_col(a, k, i, -q)
                _add_col(b, k, i, -q)
    return b
