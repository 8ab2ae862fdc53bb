"""Ideals, Buchberger's algorithm, quotient-ring normal forms, and
arithmetic in the localization A_(h).

The reduced Groebner basis (minimal, monic, tail-reduced, sorted by
decreasing leading term) is canonical for a fixed ideal and order, so
quotient-ring equality is decided by comparing normal forms.

Normal form is Q-linear, and a ``_KeptMap`` keeps a linear map on
monomials: each image is built once, on first use, and ``_KeptMap.sum``
is the one loop that sums kept images.  A product in A is not divided
afresh: each basis keeps the normal forms of the monomials it has met,
and NF(a*b) is one sum of them over the term pairs.  Against the empty
basis of affine space a product is the plain polynomial product.

Localized elements are kept lazy: a pair (numerator in A, power of h)
is never cancelled, and equality is decided by cross-multiplication in
A.  This is sound whenever h is not a zero divisor, which holds for the
irreducible varieties this package targets.  Their sums and products
work on the normal-form representatives, one ``IntForm._sum`` or one
``reduce_product`` each.

A tau derivation is linear too, and keeps three such maps: on a chart,
tau of n / h^p is one or two sums of kept images over the terms of n,
with no product once the monomials of n have been met (see
``TauDerivation``).  ``Localization.lift`` moves a numerator over a
higher power of h, for sums, equality and the maps alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import BudgetExceededError, int_form
from .polyring import (
    Exponents,
    MonomialOrder,
    Polynomial,
    PolyRing,
    _check_degree,
    _check_total_degree,
    grevlex,
    leading_term,
    render,
)


class Ideal:
    """An ideal of a polynomial ring, given by nonzero generators."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators: tuple[Polynomial, ...]):
        if not generators:
            raise ValueError("an Ideal needs at least one generator")
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                raise ValueError("zero generator")
        self.ring, self.generators = ring, generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return (self.ring, self.generators) == (other.ring, other.generators)

    def __hash__(self) -> int:
        return hash((self.ring, self.generators))


def _exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


Key = Callable[[int], int | tuple]  # on packed exponents (see ``polyring``)
# A basis element prepared for division: its packed leading exponents, and its
# other terms with their coefficients scaled by -1/(leading coefficient), each
# an int where that is exact and a Fraction otherwise.
Reducer = tuple[int, tuple[tuple[int, int | Fraction], ...]]


_MISSING = object()  # a monomial whose image is not kept yet


class _KeptMap:
    """A Q-linear map L given on packed monomials: ``images`` keeps the
    image of each x^e met, built by ``build(e)`` on first use, with None
    for x^e itself."""

    __slots__ = ("ring", "build", "images")

    def __init__(self, ring: PolyRing, build: Callable[[int], Polynomial | None]):
        self.ring, self.build, self.images = ring, build, {}

    def sum(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """L(a b), built without a b: the sum over the term pairs of
        c_a c_b L(x^(e_a + e_b)), with a in the outer loop, kept as int
        numerators over the lcm of the denominators of the images met."""
        images, build = self.images, self.build
        out: dict[int, int] = {}
        den = 1
        b_terms = b.num.items()
        for ea, ca in a.num.items():
            for eb, cb in b_terms:
                e = ea + eb
                form = images.get(e, _MISSING)
                if form is _MISSING:
                    form = images[e] = build(e)
                c = ca * cb * den
                if form is None:
                    out[e] = out.get(e, 0) + c
                    continue
                d = form.den
                if d != 1:
                    if den % d:
                        k = d // gcd(den, d)
                        den, c = den * k, c * k
                        out = {f: v * k for f, v in out.items()}
                    c //= d
                for f, v in form.num.items():
                    out[f] = out.get(f, 0) + c * v
        return Polynomial._own(self.ring, {f: v for f, v in out.items() if v},
                               a.den * b.den * den)


def _monic(p: Polynomial, dkey: Key) -> Polynomial:
    c = p.num[min(p.num, key=dkey)]
    return p if c == p.den else p * Fraction(p.den, c)


def _reducer(g: Polynomial, dkey: Key) -> Reducer:
    lead = min(g.num, key=dkey)
    lc = g.num[lead]
    return lead, tuple((e, -c // lc if c % lc == 0 else Fraction(-c, lc))
                       for e, c in g.num.items() if e != lead)


def _reduce(p: Polynomial, reducers: Sequence[Reducer], dkey: Key) -> Polynomial:
    """Remainder of multivariate division of p by the basis.

    The largest remaining term is divided by the first reducer, in basis
    order, whose leading monomial divides it.  Pending terms wait in a heap
    under the descending key, computed once when a term enters.  A term
    that cancels keeps its entry with coefficient 0 and is skipped when
    popped: every term a step adds is below the term it removes, so a
    popped monomial never comes back.

    Division is linear, so it runs on p's numerators and divides by p's
    denominator once at the end.  When no leading monomial divides any
    term of p, p is its own remainder, and it comes back in a dict of its
    own with its terms in descending order, as a division would leave them.

    x^ge divides x^e iff no field of (e | guard) - ge borrows from its guard
    bit.  Under lex, a term of the division can pass the degree of every
    term of p; one whose exponents leave a guard bit set raises instead of
    carrying into the next field.
    """
    guard = p.ring._guard
    if not any((e | guard) - ge & guard == guard for e in p.num for ge, _ in reducers):
        return p._sorted(dkey)
    work = dict(p.num)
    heap = [(dkey(e), e) for e in work]
    heapify(heap)
    remainder: dict[int, int | Fraction] = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        eg = e | guard
        for ge, tail in reducers:
            if eg - ge & guard == guard:
                # subtract (c/lc) * x^(e-ge) * g, whose leading term is c * x^e
                shift = e - ge
                for me, tc in tail:
                    te = me + shift
                    old = work.get(te)
                    if old is None:
                        if te & guard:
                            raise BudgetExceededError(
                                f"an exponent of a term met in division exceeds the "
                                f"exponent fields of ring {p.ring.variables}")
                        work[te] = c * tc
                        heappush(heap, (dkey(te), te))
                    else:
                        work[te] = old + c * tc
                break
        else:
            remainder[e] = c
    num, den = int_form(remainder)
    _check_degree(p.ring, num)
    return Polynomial._own(p.ring, num, den * p.den)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S-polynomial: the leading terms are lifted to their lcm and cancelled."""
    fe, fc = leading_term(f, order)
    ge, gc = leading_term(g, order)
    lcm = _exp_lcm(fe, ge)
    mf = f.ring.monomial(_exp_sub(lcm, fe), 1 / fc)
    mg = f.ring.monomial(_exp_sub(lcm, ge), 1 / gc)
    return mf * f - mg * g


class GroebnerBasis:
    """A reduced Groebner basis together with its order.

    Use :func:`buchberger` to compute one.  An empty basis (for the zero
    ideal, as used by affine-space varieties) is permitted and makes
    :meth:`reduce` the identity.  The normal forms of the monomials that
    :meth:`reduce_product` meets are kept, one table per basis.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder,
                 basis: Sequence[Polynomial],
                 generators: Sequence[Polynomial] = ()):
        self.ring = ring
        self.order = order
        self.basis = tuple(basis)
        self.generators = tuple(generators)
        self._dkey = order.packed_descending_key(ring)
        self._reducers = tuple(_reducer(g, self._dkey) for g in self.basis)
        self._forms = _KeptMap(ring, self._normal_form)

    def reduce(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return _reduce(p, self._reducers, self._dkey)

    def reduce_product(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """``reduce(a * b)``, built without a * b.  Normal form is linear, so
        the product is one sum of the kept normal forms of the monomials
        x^(e_a + e_b), each computed once by division, with the operand of
        fewer terms in the outer loop.  A one-term operand shifts the
        other, and a shift whose monomials are all known to be standard is
        its own normal form, within the cap as they are.  Q[x] is a domain,
        so a * b passes the degree cap exactly when deg a + deg b does, and
        then the sum raises before it starts, as a * b would.

        Under lex, the normal form of one monomial can pass the degree cap
        where that of the whole product does not, so lex divides a * b.
        """
        ring = self.ring
        if a.ring is not ring and a.ring != ring:
            raise ValueError("polynomial from a different ring")
        if not self._reducers:
            return a * b
        if self.order.kind != "grevlex":
            return self.reduce(a * b)
        a._check_ring(b)
        if len(a.num) > len(b.num):
            a, b = b, a
        if len(a.num) == 1:
            [(ea, ca)] = a.num.items()
            forms, shifted = self._forms.images, {}
            for eb, cb in b.num.items():
                e = ea + eb
                if forms.get(e, _MISSING) is not None:
                    break
                shifted[e] = ca * cb
            else:
                return Polynomial._own(ring, shifted, a.den * b.den)
        dshift = ring._dshift
        _check_total_degree(ring, (max(a.num, default=0) >> dshift)
                            + (max(b.num, default=0) >> dshift))
        return self._forms.sum(a, b)

    def _normal_form(self, e: int) -> Polynomial | None:
        nf = _reduce(Polynomial._own(self.ring, {e: 1}), self._reducers, self._dkey)
        return None if e in nf.num else nf

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def spolys_reduce_to_zero(self) -> bool:
        """Self-check: every pairwise S-polynomial reduces to zero."""
        for f, g in itertools.combinations(self.basis, 2):
            if not self.reduce(s_polynomial(f, g, self.order)).is_zero():
                return False
        return True

    def __repr__(self) -> str:
        return f"GroebnerBasis([{', '.join(render(g, self.order) for g in self.basis)}])"


def buchberger(ideal: Ideal, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Compute the reduced Groebner basis of an ideal.

    Deterministic for a fixed input and order: generators are sorted by
    leading term first, and critical pairs are processed smallest lcm
    first, from a heap whose keys are computed once per pair.  Pairs with
    coprime leading terms are skipped (Buchberger's first criterion).
    """
    ring = ideal.ring
    order = order or grevlex(ring)
    key = order.key(ring)
    dkey = order.packed_descending_key(ring)

    basis = [_monic(g, dkey) for g in ideal.generators]
    basis.sort(key=lambda g: dkey(min(g.num, key=dkey)), reverse=True)
    reducers = [_reducer(g, dkey) for g in basis]
    leads = [ring.unpack(lead) for lead, _ in reducers]

    def pair_key(i: int, j: int) -> tuple:
        # unique, since it ends in (i, j): the heap pops pairs in one fixed order
        return key(_exp_lcm(leads[i], leads[j])) + (i, j)

    pairs = [pair_key(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(pairs)
    while pairs:
        i, j = heappop(pairs)[-2:]
        li, lj = leads[i], leads[j]
        if _exp_lcm(li, lj) == tuple(a + b for a, b in zip(li, lj)):
            continue  # coprime leading terms: S-poly reduces to zero
        s = s_polynomial(basis[i], basis[j], order)
        r = _reduce(s, reducers, dkey)
        if not r.is_zero():
            r = _monic(r, dkey)
            basis.append(r)
            reducers.append(_reducer(r, dkey))
            leads.append(ring.unpack(reducers[-1][0]))
            new = len(basis) - 1
            for k in range(new):
                heappush(pairs, pair_key(k, new))

    return GroebnerBasis(ring, order, _reduce_basis(basis, reducers, dkey), ideal.generators)


def _reduce_basis(basis: list[Polynomial], reducers: list[Reducer],
                  dkey: Key) -> list[Polynomial]:
    """Minimalize and tail-reduce, producing the canonical reduced basis."""
    leads = [lead for lead, _ in reducers]
    guard = basis[0].ring._guard
    keep = []
    for i, e in enumerate(leads):
        if any(j != i and (e | guard) - leads[j] & guard == guard and
               (leads[j] != e or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_reducers = [reducers[i] for i in keep]
    reduced: list[Polynomial] = []
    for i, g in enumerate(minimal):
        others = minimal_reducers[:i] + minimal_reducers[i + 1:]
        if others:
            g = _reduce(g, others, dkey)
        if not g.is_zero():
            reduced.append(_monic(g, dkey))
    reduced.sort(key=lambda g: dkey(min(g.num, key=dkey)))
    return reduced


def is_member(p: Polynomial, ideal: Ideal, order: MonomialOrder | None = None) -> bool:
    return buchberger(ideal, order).contains(p)


def is_unit_ideal(ideal: Ideal, order: MonomialOrder | None = None) -> bool:
    return buchberger(ideal, order).is_unit()


class QuotientRing:
    """The quotient A = QQ[x]/I presented by a reduced Groebner basis."""

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.ring = gb.ring
        # a basis element is a constant only when I is the unit ideal
        self._unit = any(g.is_constant() for g in gb.basis)
        self._zero, self._one = self.element(self.ring.zero()), self.element(self.ring.one())

    def element(self, p: Polynomial) -> "QuotientElement":
        """p in A.  A constant is its own normal form unless I is the unit
        ideal, so only then is it divided."""
        if p.is_constant() and not self._unit and p.ring == self.ring:
            return QuotientElement(self, p)
        return QuotientElement(self, self.gb.reduce(p))

    def const(self, c: int | Fraction) -> "QuotientElement":
        """c in A; zero and one are built once per ring."""
        if type(c) is int and 0 <= c <= 1:
            return self._one if c else self._zero
        return self.element(self.ring.const(c))

    def zero(self) -> "QuotientElement":
        return self._zero

    def one(self) -> "QuotientElement":
        return self._one

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return self.ring == other.ring and self.gb.basis == other.gb.basis

    def __hash__(self) -> int:
        return hash((self.ring.variables, self.gb.basis))


class QuotientElement:
    """A normal-form representative in A; equality is representative equality."""

    __slots__ = ("qring", "rep")

    def __init__(self, qring: QuotientRing, rep: Polynomial):
        self.qring = qring
        self.rep = rep

    def is_zero(self) -> bool:
        return not self.rep.num

    def _coerce(self, other) -> "QuotientElement":
        if isinstance(other, QuotientElement):
            if other.qring is not self.qring and other.qring != self.qring:
                raise ValueError("elements of different quotient rings")
            return other
        if isinstance(other, Polynomial):
            return self.qring.element(other)
        return self.qring.const(other)

    def __add__(self, other) -> "QuotientElement":
        if type(other) is not QuotientElement or other.qring is not self.qring:
            other = self._coerce(other)
        # a sum of normal forms is a normal form: no new monomials appear
        return QuotientElement(self.qring, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self) -> "QuotientElement":
        return QuotientElement(self.qring, -self.rep)

    def __sub__(self, other) -> "QuotientElement":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "QuotientElement":
        if type(other) is not QuotientElement or other.qring is not self.qring:
            if isinstance(other, (int, Fraction)):
                return QuotientElement(self.qring, self.rep * other)
            other = self._coerce(other)
        # a zero factor is the product: immutable, so it is returned as it is
        if not self.rep.num:
            return self
        if not other.rep.num:
            return other
        return QuotientElement(self.qring, self.qring.gb.reduce_product(self.rep, other.rep))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuotientElement":
        if n < 0:
            raise ValueError("negative powers are not elements of the quotient ring")
        out = self.qring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QuotientElement, Polynomial, int, Fraction)):
            return NotImplemented
        return self.rep == self._coerce(other).rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __str__(self) -> str:
        return render(self.rep, self.qring.gb.order)

    def __repr__(self) -> str:
        return f"QuotientElement({self})"


class Localization:
    """The localization A_(h): fractions with denominators powers of h."""

    def __init__(self, qring: QuotientRing, h: QuotientElement):
        if h.qring != qring:
            raise ValueError("h belongs to a different quotient ring")
        if h.is_zero():
            raise ValueError("cannot localize at zero")
        self.qring, self.h = qring, h
        self.h_is_one = h == qring.one()  # on an affine chart: h^k a is a
        self._hpow: dict[int, QuotientElement] = {0: qring.one(), 1: h}

    def hpow(self, k: int) -> QuotientElement:
        """h^k.  Every power built is kept, and a new one is built from the
        largest kept power one factor h at a time.  A power of h = 1 is h
        itself.  Where k deg(h) passes the degree cap, as the full product
        h^k would in Q[x], nothing is built: the error names the first
        power past the cap, even where the normal forms of the powers do
        not grow in degree (h = x with x^2 = 2)."""
        powers = self._hpow
        if k not in powers:
            if self.h_is_one:
                return self.h
            ring = self.qring.ring
            deg = max(self.h.rep.num) >> ring._dshift
            if deg and k * deg > ring.degree_cap:
                _check_total_degree(ring, (ring.degree_cap // deg + 1) * deg)
            for j in range(len(powers), k + 1):
                powers[j] = powers[j - 1] * self.h
        return powers[k]

    def lift(self, num: Polynomial, k: int) -> Polynomial:
        """NF(num h^k), for a numerator moved over k more powers of h: num
        itself where k = 0 or h = 1, and no product where num = 0."""
        if not k or self.h_is_one:
            return num
        hk = self.hpow(k).rep
        return self.qring.gb.reduce_product(num, hk) if num.num else num

    def element(self, numerator, hpower: int = 0) -> "LocalizedElement":
        if hpower < 0:
            raise ValueError("hpower must be non-negative")
        if isinstance(numerator, LocalizedElement):
            if numerator.loc is not self and numerator.loc != self:
                raise ValueError("element of a different localization")
            return LocalizedElement(self, numerator.num, numerator.hpower + hpower)
        if isinstance(numerator, QuotientElement):
            if numerator.qring is not self.qring and numerator.qring != self.qring:
                raise ValueError("element of a different quotient ring")
            num = numerator
        elif isinstance(numerator, Polynomial):
            num = self.qring.element(numerator)
        else:
            num = self.qring.const(numerator)
        return LocalizedElement(self, num, hpower)

    def zero(self) -> "LocalizedElement":
        return LocalizedElement(self, self.qring.zero(), 0)

    def one(self) -> "LocalizedElement":
        return LocalizedElement(self, self.qring.one(), 0)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Localization):
            return NotImplemented
        return self.qring == other.qring and self.h == other.h

    def __hash__(self) -> int:
        return hash((self.qring, self.h))


class LocalizedElement:
    """A lazy fraction a / h^p with a in A.

    Equality is cross-multiplication in A: (a, p) == (b, q) iff
    h^q * a == h^p * b.  No cancellation is ever attempted.  An element
    is never changed after construction, so it remembers the result of
    each tau derivation applied to it (see ``TauDerivation.__call__``).
    """

    __slots__ = ("loc", "num", "hpower", "_derived")

    def __init__(self, loc: Localization, num: QuotientElement, hpower: int):
        self.loc = loc
        self.num = num
        self.hpower = hpower if num.rep.num else 0
        self._derived: "dict[TauDerivation, LocalizedElement] | None" = None

    def is_zero(self) -> bool:
        # valid because h is not a zero divisor in A
        return not self.num.rep.num

    def __bool__(self) -> bool:
        return bool(self.num.rep.num)

    def _check(self, other: "LocalizedElement") -> None:
        if self.loc is not other.loc and self.loc != other.loc:
            raise ValueError("localized elements with different denominators h")

    def __add__(self, other) -> "LocalizedElement":
        """One sum of the numerators, on their representatives: the one over
        the lower power of h is first multiplied by the missing power."""
        loc = self.loc
        if type(other) is not LocalizedElement or other.loc is not loc:
            other = self._coerce(other)
            self._check(other)
        b = other.num.rep
        if not b.num:
            return self
        a = self.num.rep
        if not a.num:
            return other
        p, q = self.hpower, other.hpower
        if p != q:
            a, b = (loc.lift(a, q - p), b) if p < q else (a, loc.lift(b, p - q))
        # a sum of normal forms is a normal form: no new monomials appear
        return LocalizedElement(loc, QuotientElement(loc.qring, a._sum(b, 1)), max(p, q))

    __radd__ = __add__

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(self.loc, -self.num, self.hpower)

    def __sub__(self, other) -> "LocalizedElement":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "LocalizedElement":
        """One product of the representatives; a zero factor, immutable, is
        the product as it is."""
        loc = self.loc
        if type(other) is not LocalizedElement or other.loc is not loc:
            if isinstance(other, (int, Fraction)):
                if other == 1:
                    return self
                num = QuotientElement(loc.qring, self.num.rep._scaled(other))
                return LocalizedElement(loc, num, self.hpower)
            other = self._coerce(other)
            self._check(other)
        a, b = self.num.rep, other.num.rep
        if not a.num:
            return self
        if not b.num:
            return other
        num = QuotientElement(loc.qring, loc.qring.gb.reduce_product(a, b))
        return LocalizedElement(loc, num, self.hpower + other.hpower)

    __rmul__ = __mul__

    def _coerce(self, other) -> "LocalizedElement":
        if isinstance(other, LocalizedElement):
            return other
        return self.loc.element(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial, QuotientElement)):
            other = self.loc.element(other)
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self._check(other)
        return (other.loc.lift(self.num.rep, other.hpower)
                == self.loc.lift(other.num.rep, self.hpower))

    def __hash__(self) -> int:
        raise TypeError("LocalizedElement is unhashable (equality is up to h-powers)")

    def __str__(self) -> str:
        if self.hpower == 0:
            return str(self.num)
        suffix = f"^{self.hpower}" if self.hpower > 1 else ""
        return f"({self.num})/{self.loc.h}{suffix}"

    def __repr__(self) -> str:
        return f"LocalizedElement({self})"


class TauDerivation:
    """The derivation d/dx_i + sum_j f_ij d/dx_j of A_(h).

    ``var`` is the distinguished chart parameter; ``corrections`` maps
    the dependent variable names to their localized coefficients f_ij,
    all kept over h^m, m = ``hpower`` being the largest power of a nonzero
    f_ij (0 if there is none; 1 in every frame ``solve_tau`` builds).  A
    derivation compares and hashes by identity, so a result remembered for
    one derivation is never returned for another, even one with the same
    parameter name on another chart.

    tau is linear, and its value on a monomial never changes.  So the
    derivation keeps three linear maps on monomials (``_KeptMap``), each
    image built once from products in A on first use, and ``loc_partial``
    sums them over the terms of a numerator:

    - A(e), the numerator of tau(x^e) over h^m;
    - h A(e);
    - NF(x^e t), where tau(h) = t / h^k and k is 0 or m.
    """

    def __init__(self, loc: Localization, var: str,
                 corrections: Mapping[str, LocalizedElement]):
        corrections = {name: loc.element(f) for name, f in corrections.items()}
        m = max((f.hpower for f in corrections.values() if f), default=0)
        self.loc, self.var, self.hpower = loc, var, m
        self.corrections = {name: f if f.hpower == m else LocalizedElement(
            loc, QuotientElement(loc.qring, loc.lift(f.num.rep, m - f.hpower)), m)
            for name, f in corrections.items()}
        ring, one = loc.qring.ring, loc.qring.ring.one()
        monomial = lambda e: Polynomial._own(ring, {e: 1})

        def numerator(e: int) -> Polynomial:  # of tau(x^e) over h^m
            t = self.apply_poly(QuotientElement(loc.qring, monomial(e)))
            return loc.lift(t.num.rep, m - t.hpower)

        over_h = _KeptMap(ring, numerator)
        times_h = over_h if loc.h_is_one else _KeptMap(
            ring, lambda e: loc.lift(over_h.sum(one, monomial(e)), 1))
        times_t = _KeptMap(
            ring, lambda e: loc.qring.gb.reduce_product(monomial(e), self.tau_h.num.rep))
        self._table = (over_h, times_h, times_t)
        # the exponent fields of the variables with a nonzero correction: a
        # monomial outside them has f_ij d/dx_j = 0 for every j
        self._corrected = sum(ring._mask << ring._shifts[ring.index(name)]
                              for name, f in self.corrections.items() if f)

    def apply_poly(self, p: "QuotientElement | Polynomial") -> LocalizedElement:
        """tau(p) for p in A.  The partials of a normal form are normal forms
        (a divisor of a standard monomial is standard) and are used as they
        are; the partials of a raw Polynomial, a generator say, are reduced."""
        if isinstance(p, QuotientElement):
            if p.qring != self.loc.qring:
                raise ValueError("element of a different quotient ring")
            qring, p = self.loc.qring, p.rep
            lift = lambda dp: LocalizedElement(self.loc, QuotientElement(qring, dp), 0)
        else:
            lift = self.loc.element
        out = lift(p.partial(self.var))
        for name, coeff in self.corrections.items():
            dp = p.partial(name)
            if not dp.is_zero():
                out = out + coeff * lift(dp)
        return out

    @cached_property
    def tau_h(self) -> LocalizedElement:
        """tau(h), computed once per derivation."""
        return self.apply_poly(self.loc.h)

    def __call__(self, a: "LocalizedElement | QuotientElement | Polynomial") -> LocalizedElement:
        """tau(a), remembered on a LocalizedElement a: the checks derive the
        same element by the same derivation again and again."""
        if not isinstance(a, LocalizedElement):
            return loc_partial(self.loc.element(a), self)
        derived = a._derived
        if derived is None:
            derived = a._derived = {}
        out = derived.get(self)
        if out is None:
            out = derived[self] = loc_partial(a, self)
        return out


def loc_partial(a: LocalizedElement, tau: TauDerivation) -> LocalizedElement:
    """tau(a) by the quotient rule, from the derivation's kept maps.

    For a = n / h^p,  tau(a) = tau(n)/h^p - p n tau(h)/h^(p+1), with the
    numerator and power of h that this one-sided sum leaves.  With tau(h)
    = t / h^k and each sum over the terms of n, it is
    - tau(n) / h^p where p = 0 or n t = 0: sum A / h^(p+m) if n has a term
      in a corrected variable, and (d n/dx_i) / h^p otherwise;
    - (sum h A - p sum x^e t) / h^(p+1+m) where k = m;
    - (sum A - p h^(m-1) sum x^e t) / h^(p+m) where k = 0 < m, unless m > 1
      and tau(n) is over h^0: then (h tau(n) - p sum x^e t) / h^(p+1).
    An element of another localization than the derivation's is rejected.
    """
    loc = a.loc
    if loc is not tau.loc and loc != tau.loc:
        raise ValueError("element of a different localization")
    over_h, times_h, times_t = tau._table
    n, p, m = a.num.rep, a.hpower, tau.hpower
    one = loc.qring.one().rep  # h is not 0, so I is not the unit ideal
    t = times_t.sum(one, n) if p and tau.tau_h else None
    if t is None or not t.num:
        if any(e & tau._corrected for e in n.num):
            return LocalizedElement(loc, QuotientElement(loc.qring, over_h.sum(one, n)), p + m)
        return LocalizedElement(loc, QuotientElement(loc.qring, n.partial(tau.var)), p)
    if tau.tau_h.hpower == m:
        num, power = times_h.sum(one, n)._sum(t, -p), p + 1 + m
    else:
        d = over_h.sum(one, n)
        if m == 1 or d.num and any(e & tau._corrected for e in n.num):
            num, power = d._sum(loc.lift(t, m - 1), -p), p + m
        else:  # tau(n) is d n/dx_i over h^0, or 0 where d is
            d = loc.lift(n.partial(tau.var), 1) if d.num else d
            num, power = d._sum(t, -p), p + 1
    return LocalizedElement(loc, QuotientElement(loc.qring, num), power)
