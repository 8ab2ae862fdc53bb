"""Exact linear algebra: finite linear combinations, cofactor
determinants and elimination over QQ.

``Combination`` is the one free-module element the package builds on:
word sums, gauge elements and forms.  (Circle vectors keep int numerators
over a common denominator, like polynomials; see ``circle``.)  ``det`` never
divides, so it serves any ring whose elements support ``+``, ``*`` and
``is_zero``.  ``rank`` and ``solve`` take dense
matrices, leave them unchanged, and eliminate on sparse rows with the
Gauss-Jordan ``echelon``, so their cost follows the nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .polyring import Polynomial, PolyRing


def add_term(out: dict, key: Hashable, value) -> None:
    """out[key] += value; a zero value is skipped and a cancelled entry dropped."""
    if value:
        if key in out:
            value = out[key] + value
        if value:
            out[key] = value
        else:
            del out[key]


class Combination:
    """A finite linear combination: ``terms`` maps basis keys to nonzero
    coefficients, which support ``+``, ``*``, ``==`` and are false only at 0.

    A subclass validates its keys in its constructor, names the ``space``
    its elements live in, builds an element of that space with ``_like``,
    and renders.  Elements of different spaces neither add nor compare
    equal.
    """

    __slots__ = ("terms",)
    space: Hashable = None

    def __init__(self, terms: Mapping) -> None:
        self.terms = {k: c for k, c in terms.items() if c}

    def _like(self, terms: Mapping):
        return type(self)(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self) or other.space != self.space:
            raise ValueError(f"{type(self).__name__}: cannot add elements of different spaces")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        theirs = other.terms
        return (self.space == other.space and self.terms.keys() == theirs.keys()
                and all(c == theirs[k] for k, c in self.terms.items()))


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


Row = dict[int, Fraction]  # a sparse row: column -> nonzero entry


def _subtract(row: Row, f: Fraction, other: Row) -> None:
    """row -= f * other, dropping the entries that cancel."""
    for k, x in other.items():
        y = row.get(k)
        if y is None:
            row[k] = -f * x
        else:
            y -= f * x
            if y:
                row[k] = y
            else:
                del row[k]


def echelon(rows: Iterable[Row], ncols: int) -> tuple[dict[int, Row], list[Row]]:
    """Gauss-Jordan elimination on sparse rows (column -> nonzero entry),
    pivoting only in the first ``ncols`` columns; the rows may be changed.

    Each row is reduced by the pivot rows found so far; if it keeps an
    entry below ``ncols``, its first column becomes a new pivot, and the
    row, scaled to 1 there, is eliminated from the earlier pivot rows.
    Returns the reduced row echelon form as a map from pivot column to
    row, and the other rows, which are zero in the first ``ncols`` columns.
    """
    pivots: dict[int, Row] = {}
    rest: list[Row] = []
    for row in rows:
        # a pivot row is zero in every other pivot column, so one pass suffices
        for c in [c for c in row if c in pivots]:
            _subtract(row, row[c], pivots[c])
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            rest.append(row)
            continue
        pv = row[lead]
        row = {k: x / pv for k, x in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other[lead], row)
        pivots[lead] = row
    return pivots, rest


def sparse_row(row: Sequence[Fraction]) -> Row:
    return {c: x for c, x in enumerate(row) if x}


def rank(matrix: list[list[Fraction]]) -> int:
    return len(echelon(map(sparse_row, matrix), len(matrix[0]) if matrix else 0)[0])


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """A solution of matrix * x = rhs with free unknowns zero; None if inconsistent.

    The reduced row echelon form is unique, so the solution does not
    depend on the order in which the rows are eliminated."""
    ncols = len(matrix[0]) if matrix else 0
    rows = []
    for row, b in zip(matrix, rhs):
        sparse = sparse_row(row)
        if b:
            sparse[ncols] = b
        rows.append(sparse)
    pivots, rest = echelon(rows, ncols)
    if any(rest):
        return None
    solution = [Fraction(0)] * ncols
    for c, row in pivots.items():
        solution[c] = row.get(ncols, Fraction(0))
    return solution
