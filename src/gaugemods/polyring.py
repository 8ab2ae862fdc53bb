"""Sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, attached to a ring descriptor that fixes the variable
names.  All arithmetic is exact; there is no floating point anywhere.
Values are immutable after construction, so they are safe to share
between threads and to use as dictionary keys.

Exponent vectors are plain tuples of non-negative ints, one entry per
ring variable.  The zero polynomial has an empty term map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, neg
from typing import Callable, Iterable, Mapping

Exponents = tuple[int, ...]

DEFAULT_DEGREE_CAP = 64


class RingMismatchError(ValueError):
    """Raised when an operation mixes polynomials from different rings."""


class DegreeOverflowError(RuntimeError):
    """Raised when a result would exceed the ring's total-degree cap."""


@dataclass(frozen=True)
class PolyRing:
    """Descriptor of a polynomial ring QQ[x_1, ..., x_n].

    Two descriptors are interchangeable iff they list the same variables
    in the same order.  The degree cap bounds the total degree of any
    constructed polynomial; exceeding it raises ``DegreeOverflowError``
    instead of silently producing huge objects.
    """

    variables: tuple[str, ...]
    degree_cap: int = field(default=DEFAULT_DEGREE_CAP, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names in {self.variables!r}")

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
        c = Fraction(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def monomial(self, exps: Iterable[int], coeff: int | Fraction = 1) -> "Polynomial":
        e = tuple(exps)
        if len(e) != self.nvars or any(k < 0 for k in e):
            raise ValueError(f"bad exponent vector {e!r} for ring {self.variables}")
        c = Fraction(coeff)
        return Polynomial(self, {e: c} if c else {})


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Supports ``+ - * **`` against other polynomials of the same ring and
    against ints/Fractions.  Equality is structural (equal term maps).
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Fraction]):
        self.ring = ring
        self.terms: dict[Exponents, Fraction] = {e: c for e, c in terms.items() if c != 0}
        self._hash: int | None = None
        _check_degree(ring, self.terms)

    @classmethod
    def _own(cls, ring: PolyRing, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Adopt a dict of nonzero terms that was just built and that no caller keeps.

        Unlike the public constructor it neither copies nor filters zeros.
        """
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._hash = None
        _check_degree(ring, terms)
        return p

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.variables} vs {other.ring.variables}"
            )

    def __add__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            old = out.get(e)
            if old is None:
                out[e] = c
            else:
                s = old + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._own(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._own(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other: "int | Fraction") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial._own(self.ring, {e: c * v for e, v in self.terms.items()})
        self._check_ring(other)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                old = out.get(e)
                if old is None:
                    out[e] = ca * cb
                else:
                    s = old + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return Polynomial._own(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring.index(var)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            de = e[:i] + (k - 1,) + e[i + 1:]
            s = out.get(de, 0) + c * k
            if s:
                out[de] = s
            else:
                out.pop(de, None)
        return Polynomial._own(self.ring, out)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({render(self)!r})"


def _check_degree(ring: PolyRing, terms: Mapping[Exponents, Fraction]) -> None:
    if terms:
        deg = max(map(sum, terms))
        if deg > ring.degree_cap:
            raise DegreeOverflowError(
                f"total degree {deg} exceeds the ring cap {ring.degree_cap}"
            )


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: grevlex or lex, with a variable priority.

    The priority permutation lists variables from highest to lowest.
    Both orders are total, multiplicative, and have 1 as the minimum.
    """

    kind: str
    priority: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self, ring: PolyRing) -> Callable[[Exponents], tuple]:
        """Sort key for exponent vectors; max(key) is the leading term."""
        return _order_keys(self.kind, self.priority, ring.variables)[0]

    def descending_key(self, ring: PolyRing) -> Callable[[Exponents], tuple]:
        """Sort key with the largest monomial first: min(key) is the leading
        term, and ``heapq`` pops the largest monomial first."""
        return _order_keys(self.kind, self.priority, ring.variables)[1]


@lru_cache(maxsize=64)
def _order_keys(kind: str, priority: tuple[str, ...], variables: tuple[str, ...]
                ) -> tuple[Callable[[Exponents], tuple], Callable[[Exponents], tuple]]:
    """The ascending and the descending key of one order on one ring."""
    if set(priority) != set(variables):
        raise RingMismatchError(
            f"order priority {priority} does not match ring {variables}"
        )
    perm = tuple(variables.index(v) for v in priority)
    # grevlex compares total degree, then the reversed exponents negated
    idx = perm if kind == "lex" else tuple(reversed(perm))
    take = itemgetter(*idx) if len(idx) > 1 else lambda e: tuple(e[i] for i in idx)
    if kind == "lex":
        return take, lambda e: tuple(map(neg, take(e)))
    return (lambda e: (sum(e), tuple(map(neg, take(e)))),
            lambda e: (-sum(e), take(e)))


def grevlex(ring: PolyRing, priority: Iterable[str] | None = None) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(priority) if priority else ring.variables)


def lex(ring: PolyRing, priority: Iterable[str] | None = None) -> MonomialOrder:
    return MonomialOrder("lex", tuple(priority) if priority else ring.variables)


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    """Maximal term of a nonzero polynomial under the given order."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    e = min(p.terms, key=order.descending_key(p.ring))
    return e, p.terms[e]


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
    for e in sorted(p.terms, key=order.descending_key(p.ring)):
        c = p.terms[e]
        mono = _render_monomial(p.ring, e)
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
