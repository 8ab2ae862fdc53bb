"""Exact linear algebra: finite linear combinations, cofactor
determinants and elimination over QQ.

``Combination`` is the one free-module element the package builds on:
word sums, gauge elements and forms.  ``IntForm`` is the one integer form,
under polynomials and circle vectors: ``num`` maps keys to nonzero int
numerators over ``den``, one positive common denominator with
gcd(den, every numerator) = 1, and den = 1 for zero.  That form is unique,
so equal values have equal ``num`` and ``den``.  ``det`` never divides, so
it serves any ring whose elements support ``+``, ``*`` and ``is_zero``.
``rank`` and ``solve`` take dense matrices, leave them unchanged, and
eliminate on sparse rows with the Gauss-Jordan ``echelon``, so their cost
follows the nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
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


def int_form(terms: Mapping[Hashable, int | Fraction]) -> tuple[dict, int]:
    """The integer form of int or ``Fraction`` values: numerators of the
    nonzero ones over their least common denominator."""
    # over their least common denominator, coefficients in lowest terms
    # have numerators with no common factor with it.  A loop, not
    # lcm(*generator): that form raised the peak RSS of perfbench
    # bundled from 17.3 to 17.8 MB.
    den = 1
    for c in terms.values():
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items() if c}, den


class IntForm:
    """Rational coefficients in the integer form (see the module docstring).

    A subclass adds the slots of its space, builds an element of that space
    from numerators with ``_like``, checks its operands, hashes and renders.
    The sum and scaling here keep the form canonical.
    """

    __slots__ = ("num", "den", "_terms")

    def _adopt(self, num: dict, den: int):
        """Take nonzero int numerators over den >= 1, just built and kept by
        no caller, and take out their common factor with den; returns self."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        self.num, self.den, self._terms = num, den, None
        return self

    @property
    def terms(self) -> dict[Hashable, Fraction]:
        """Keys to nonzero ``Fraction`` coefficients, built on first use and
        cached.  Treat it as read-only: a write shows in later reads of
        ``terms`` but changes no value, sum, product, hash or rendering."""
        if self._terms is None:
            den = self.den
            self._terms = {k: Fraction(c, den) for k, c in self.num.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.num

    def _sum(self, other: "IntForm", sign: int):
        """self + sign * other, both over the lcm of their denominators."""
        g = gcd(self.den, other.den)
        mine, theirs = other.den // g, sign * (self.den // g)
        out = dict(self.num) if mine == 1 else {k: c * mine for k, c in self.num.items()}
        for k, c in other.num.items():
            old = out.get(k)
            if old is None:
                out[k] = c * theirs
            else:
                s = old + c * theirs
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._like(out, self.den * mine)

    def _scaled(self, c: int | Fraction):
        n = c.numerator
        return self._like({k: v * n for k, v in self.num.items()} if n else {},
                          self.den * c.denominator)


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
        pv = Fraction(row[lead])  # an int pivot must not make floats
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
