"""Exact linear algebra: finite linear combinations, cofactor
determinants and elimination over QQ.

``Combination`` is the one free-module element the package builds on:
word sums, gauge elements and forms.  ``IntForm`` is the one integer form,
under polynomials and circle vectors: ``num`` maps keys to nonzero int
numerators over ``den``, one positive common denominator with
gcd(den, every numerator) = 1, and den = 1 for zero.  That form is unique,
so equal values have equal ``num`` and ``den``.  ``det`` never divides, so
it serves any ring whose elements support ``+``, ``*`` and ``is_zero``.
``echelon`` is Gauss-Jordan elimination on sparse rows without fractions
(integer-preserving, as in Bareiss 1968, but taking each row's content out
instead of dividing by the previous pivot): rows are int numerators, and
only the final pivot rows, scaled to lead 1, hold ``Fraction``s.  A forward
pass reduces each row by the pivots before it and one back-substitution
clears the pivot rows, so its cost follows the nonzero entries.
``solve_sparse`` takes sparse rows with the right-hand side past the
unknowns.  Neither builds a dense matrix, and neither changes its rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

if TYPE_CHECKING:
    from .polyring import Polynomial, PolyRing


class BudgetExceededError(RuntimeError):
    """Raised when work would pass a resource budget: a degree cap, a window, a term count."""


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


def _eliminate(row: dict[int, int], c: int, pivot: dict[int, int]) -> dict[int, int]:
    """The int row a * row - b * pivot, zero at column c, over its content,
    where a / b = pivot[c] / row[c] in lowest terms with a > 0."""
    p, r = pivot[c], row[c]
    g = gcd(p, r)
    a, b = p // g, r // g
    if a < 0:
        a, b = -a, -b
    out = {k: x * a for k, x in row.items()} if a != 1 else row
    for k, x in pivot.items():
        y = out.get(k)
        if y is None:
            out[k] = -b * x
        else:
            y -= b * x
            if y:
                out[k] = y
            else:
                del out[k]
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def echelon(rows: Iterable[Row], ncols: int) -> tuple[dict[int, Row], list[dict[int, int]]]:
    """Gauss-Jordan elimination on sparse rows (column -> nonzero int or
    ``Fraction``), pivoting only in the first ``ncols`` columns.

    Each row enters as its integer numerators, which span the same line,
    and is reduced without fractions (see ``_eliminate``) by the pivot rows
    it meets, smallest column first: a pivot row holds no column below its
    lead, so each step adds only later columns.  If it keeps an entry below
    ``ncols``, its first such column becomes a new pivot.  One
    back-substitution, from the last pivot column down, then clears each
    pivot row of the later pivot columns.  Returns the reduced row echelon
    form as a map from pivot column to row, each scaled once at the end to
    lead 1 with ``Fraction`` entries, and the other rows, reduced int rows
    that are zero in the first ``ncols`` columns.  Past ``ncols`` the pivot
    rows depend on the order of the rows unless all the other rows are
    zero.
    """
    pivots: dict[int, dict[int, int]] = {}
    rest: list[dict[int, int]] = []
    for row in rows:
        row = int_form(row)[0]
        met = [c for c in row if c in pivots]
        heapify(met)
        while met:
            c = heappop(met)
            if c in row:  # not cancelled by an earlier step
                pivot = pivots[c]
                row = _eliminate(row, c, pivot)
                for k in pivot:
                    if k in pivots and k in row:
                        heappush(met, k)
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            rest.append(row)
        else:
            pivots[lead] = row
    # the later pivot rows are reduced already, so each leaves no pivot column
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _eliminate(row, k, pivots[k])
        pivots[c] = row
    for c, row in pivots.items():
        lead = row[c]
        pivots[c] = {k: Fraction(x, lead) for k, x in row.items()}
    return pivots, rest


def solve_sparse(rows: Iterable[Row], ncols: int) -> dict[int, Fraction] | None:
    """A solution of the sparse system whose rows hold their right-hand
    side in column ``ncols``, as unknown -> nonzero value with free unknowns
    zero; None if inconsistent.

    The reduced row echelon form is unique, so the solution does not
    depend on the order in which the rows are eliminated."""
    pivots, rest = echelon(rows, ncols)
    if any(rest):
        return None
    return {c: row[ncols] for c, row in pivots.items() if ncols in row}

