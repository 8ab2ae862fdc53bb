"""Sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero integer
numerators over one positive common denominator, attached to a ring
descriptor that fixes the variable names.  All arithmetic is exact; there
is no floating point anywhere.  Values are immutable after construction,
so they are safe to share between threads and to use as dictionary keys.

Inside a polynomial each exponent vector is packed into one int
(Monagan and Pearce, 2007): one fixed-width field per variable, the first
variable lowest, and the total degree in the field above them.  The top
bit of each field is a guard that stays clear, so a product of monomials
is one int addition that never carries into the next field, and a
divisibility test is one subtraction and mask.  The field width depends
only on the number of variables, so equal rings pack alike.  At the
boundary, in ``Polynomial(ring, terms)``, ``monomial``, ``coefficient``,
``leading_term``, the ``terms`` view and the order keys, exponent vectors
are plain tuples of non-negative ints, one entry per ring variable.  The
zero polynomial has an empty term map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul, neg
from typing import Callable, Iterable, Mapping

from .linalg import BudgetExceededError, IntForm, int_form

Exponents = tuple[int, ...]

DEFAULT_DEGREE_CAP = 64


class RingMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different rings."""


class PolyRing:
    """Descriptor of a polynomial ring QQ[x_1, ..., x_n].

    Two descriptors are interchangeable iff they list the same variables
    in the same order.  The degree cap bounds the total degree of any
    constructed polynomial; exceeding it raises ``BudgetExceededError``
    instead of silently producing huge objects.  Twice the cap must fit an
    exponent field, so that the product of two monomials within the cap
    is packed exactly and the cap check sees its true degree.
    """

    __slots__ = ("variables", "degree_cap", "_mask", "_shifts", "_units", "_dshift", "_guard")

    def __init__(self, variables: tuple[str, ...], degree_cap: int = DEFAULT_DEGREE_CAP):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        n = len(variables)
        # 64 bits in all where fields of 8 bits allow it
        w = max(8, 64 // (n + 1))
        if 2 * degree_cap >= 1 << w:
            raise ValueError(f"degree cap {degree_cap} is too large for a ring in {n} "
                             f"variables: twice the cap must fit a {w}-bit exponent field")
        self.variables, self.degree_cap = variables, degree_cap
        self._mask, self._shifts, self._dshift = (1 << w) - 1, tuple(range(0, w * n, w)), w * n
        # x_i packed: its own field and the degree field
        self._units = tuple((1 << s) + (1 << w * n) for s in self._shifts)
        self._guard = sum(1 << s + w - 1 for s in range(0, w * (n + 1), w))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; ring has {self.variables}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: int | Fraction) -> "Polynomial":
        return self.monomial((0,) * self.nvars, value)

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return self.monomial(exps)

    def pack(self, exps: Iterable[int]) -> int:
        """The packed int of an exponent vector.  A vector whose total degree
        does not fit a field passes the cap too, and raises as it does."""
        e = tuple(exps)
        if len(e) != len(self._units) or any(k < 0 for k in e):
            raise ValueError(f"bad exponent vector {e!r} for ring {self.variables}")
        if sum(e) > self._mask >> 1:
            _check_total_degree(self, sum(e))
        return sum(map(mul, e, self._units))

    def unpack(self, e: int) -> Exponents:
        mask = self._mask
        return tuple(e >> s & mask for s in self._shifts)

    def monomial(self, exps: Iterable[int], coeff: int | Fraction = 1) -> "Polynomial":
        e = self.pack(exps)
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
        num = {e: coeff.numerator} if coeff else {}
        _check_degree(self, num)
        return Polynomial._own(self, num, coeff.denominator)


class Polynomial(IntForm):
    """Immutable sparse polynomial with exact rational coefficients.

    An integer form (see ``linalg``): ``num`` maps packed exponents to int
    numerators over ``den``, and ``terms`` is the rational view, exponent
    tuples to ``Fraction``.  Equality is equality of ring, ``num`` and
    ``den``.

    Supports ``+ - * **`` against other polynomials of the same ring and
    against ints/Fractions.
    """

    __slots__ = ("ring", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, int | Fraction]):
        self.ring, self._hash, self._terms = ring, None, None
        pack = ring.pack
        self.num, self.den = int_form({pack(e): c for e, c in terms.items()})
        _check_degree(ring, self.num)

    @classmethod
    def _own(cls, ring: PolyRing, num: dict[int, int], den: int = 1) -> "Polynomial":
        """A polynomial on numerators as ``IntForm._adopt`` takes them.  The
        caller checks the degree cap wherever the degree can grow."""
        p = cls.__new__(cls)
        p.ring, p._hash = ring, None
        return p._adopt(num, den)

    def _like(self, num: dict[int, int], den: int) -> "Polynomial":
        return Polynomial._own(self.ring, num, den)

    def _sorted(self, key: Callable[[int], int | tuple]) -> "Polynomial":
        """The same polynomial with its terms in ``key`` order, in a dict of its
        own.  The numerators are canonical already, so no gcd is taken, and
        fewer than two terms are in order already."""
        p = Polynomial.__new__(Polynomial)
        num = self.num
        p.ring, p._hash, p._terms = self.ring, self._hash, None
        p.num = {e: num[e] for e in sorted(num, key=key)} if len(num) > 1 else dict(num)
        p.den = self.den
        return p

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """Exponent tuples to nonzero ``Fraction`` coefficients, built on first
        use and cached, and read-only as in ``IntForm.terms``."""
        if self._terms is None:
            den, unpack = self.den, self.ring.unpack
            self._terms = {unpack(e): Fraction(c, den) for e, c in self.num.items()}
        return self._terms

    def is_constant(self) -> bool:
        return not any(self.num)

    def coefficient(self, exps: Exponents) -> Fraction:
        try:
            e = self.ring.pack(exps)
        except (ValueError, BudgetExceededError):  # no term has such a vector
            return Fraction(0)
        return Fraction(self.num.get(e, 0), self.den)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.variables} vs {other.ring.variables}"
            )

    def _operand(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                return self.ring.const(other)
            if not isinstance(other, Polynomial):
                raise TypeError(f"cannot combine a polynomial with {type(other).__name__} "
                                f"{other!r}; use an int, a Fraction or a Polynomial")
        self._check_ring(other)
        return other

    def __add__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        return self._sum(self._operand(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._scaled(-1)

    def __sub__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        return self._sum(self._operand(other), -1)

    def __rsub__(self, other: "int | Fraction") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._operand(other)
        return Polynomial._own(self.ring, _product(self.ring, self.num, other.num),
                               self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        return Polynomial._own(self.ring, _power(self.ring, self.num, n), self.den ** n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self._hash is None:
            # the hash of the terms view: an int hashes as the Fraction of its value
            den, unpack = self.den, self.ring.unpack
            self._hash = hash((self.ring.variables, frozenset(
                (unpack(e), c if den == 1 else Fraction(c, den)) for e, c in self.num.items())))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to a ring variable."""
        ring = self.ring
        i = ring.index(var)
        s, mask, unit = ring._shifts[i], ring._mask, ring._units[i]
        # distinct exponents with e[i] > 0 stay distinct after e[i] - 1
        out = {e - unit: c * k for e, c in self.num.items() if (k := e >> s & mask)}
        return Polynomial._own(ring, out, self.den)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({render(self)!r})"


def _product(ring: PolyRing, a: Mapping[int, int | Fraction],
             b: Mapping[int, int | Fraction]) -> dict[int, int | Fraction]:
    """The terms of a * b, for term maps on packed exponents within the cap,
    in a new dict; raises if its degree exceeds the cap."""
    if len(a) == 1 or len(b) == 1:
        # a one-term factor shifts the other's exponents, which stay distinct
        out = {ea + eb: ca * cb for ea, ca in a.items() for eb, cb in b.items()}
    else:
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                old = out.get(e)
                if old is None:
                    out[e] = ca * cb
                else:
                    s = old + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
    _check_degree(ring, out)
    return out


def _power(ring: PolyRing, terms: Mapping[int, int | Fraction],
           n: int) -> dict[int, int | Fraction]:
    """The terms of terms ** n, in a new dict, by squaring and multiplying
    with the cap checked at each product, so an overflow names the degree
    of the first product past the cap.  A single term whose power stays
    within the cap, where no product would raise, scales its exponent."""
    if len(terms) == 1:
        (e, c), = terms.items()
        if (e >> ring._dshift) * n <= ring.degree_cap:
            return {e * n: c ** n}
    result, base = {0: 1}, terms
    while n:
        if n & 1:
            result = _product(ring, result, base)
        n >>= 1
        if n:
            base = _product(ring, base, base)
    return result


def _check_degree(ring: PolyRing, terms: Mapping[int, int]) -> None:
    """The degree is the top field, so the largest packed int has the largest."""
    if terms:
        _check_total_degree(ring, max(terms) >> ring._dshift)


def _check_total_degree(ring: PolyRing, deg: int) -> None:
    if deg > ring.degree_cap:
        raise BudgetExceededError(f"total degree {deg} exceeds the ring cap {ring.degree_cap}")


class MonomialOrder:
    """A monomial order, grevlex or lex, on the ring's own variable order:
    the first variable is the highest.

    Both orders are total, multiplicative, and have 1 as the minimum.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in _ORDER_KEYS:
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)

    def key(self, ring: PolyRing) -> Callable[[Exponents], tuple]:
        """Sort key for exponent vectors; max(key) is the leading term."""
        return _ORDER_KEYS[self.kind][0]

    def descending_key(self, ring: PolyRing) -> Callable[[Exponents], tuple]:
        """Sort key with the largest monomial first: min(key) is the leading
        term, and ``heapq`` pops the largest monomial first."""
        return _ORDER_KEYS[self.kind][1]

    def packed_descending_key(self, ring: PolyRing) -> Callable[[int], int | tuple]:
        """``descending_key`` on packed exponents."""
        return _packed_descending_key(self.kind, ring.variables)


# the ascending and the descending key of each order on exponent tuples;
# grevlex compares total degree, then the reversed exponents negated
_ORDER_KEYS = {
    "lex": (tuple, lambda e: tuple(map(neg, e))),
    "grevlex": (lambda e: (sum(e), tuple(map(neg, e[::-1]))),
                lambda e: (-sum(e), e[::-1])),
}


@lru_cache(maxsize=64)
def _packed_descending_key(kind: str, variables: tuple[str, ...]
                           ) -> Callable[[int], int | tuple]:
    ring = PolyRing(variables)
    if kind == "lex":
        dkey, unpack = _ORDER_KEYS[kind][1], ring.unpack
        return lambda e: dkey(unpack(e))
    # grevlex: the degree field reversed, and below it the fields compared
    # from the last variable down, smaller first
    return (ring._mask << ring._dshift).__xor__


def grevlex(ring: PolyRing) -> MonomialOrder:
    return MonomialOrder("grevlex")


def lex(ring: PolyRing) -> MonomialOrder:
    return MonomialOrder("lex")


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    """Maximal term of a nonzero polynomial under the given order."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    e = min(p.num, key=order.packed_descending_key(p.ring))
    return p.ring.unpack(e), Fraction(p.num[e], p.den)


def _render_monomial(ring: PolyRing, exps: Exponents) -> str:
    parts = []
    for name, k in zip(ring.variables, exps):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def render(p: Polynomial, order: MonomialOrder | None = None) -> str:
    """Canonical text form: terms in decreasing monomial order.

    Coefficients print as ``a/b`` when the denominator is not 1; the
    output uses explicit ``*`` and ``^`` so it round-trips through the
    expression parser.
    """
    if p.is_zero():
        return "0"
    order = order or grevlex(p.ring)
    pieces: list[str] = []
    for e in sorted(p.num, key=order.packed_descending_key(p.ring)):
        c = Fraction(p.num[e], p.den)
        mono = _render_monomial(p.ring, p.ring.unpack(e))
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
