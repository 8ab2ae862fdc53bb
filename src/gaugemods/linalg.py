"""Exact linear algebra: cofactor determinants and elimination over QQ.

``det`` never divides, so it serves any ring whose elements support
``+``, ``*`` and ``is_zero``.  ``rank`` and ``solve`` are built on the
Gauss-Jordan ``echelon`` and leave their arguments unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import Polynomial, PolyRing


def det(ring: PolyRing, matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant by Laplace expansion along the first row; det of 0x0 is one."""
    n = len(matrix)
    if n == 0:
        return ring.one()
    if n == 1:
        return matrix[0][0]
    total = ring.zero()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        sub = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total = total + entry * det(ring, sub) * ((-1) ** j)
    return total


def echelon(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce m in place to reduced row echelon form, pivoting only in the
    first ``ncols`` columns; returns the pivot columns of the leading rows."""
    nrows = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(matrix: list[list[Fraction]]) -> int:
    return len(echelon([row[:] for row in matrix], len(matrix[0]) if matrix else 0))


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """A solution of matrix * x = rhs with free unknowns zero; None if inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    pivots = echelon(m, ncols)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        solution[c] = row[ncols]
    return solution
