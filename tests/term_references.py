"""Tuple-keyed references shared by the polynomial and normal-form tests.

Every coefficient is a ``Fraction`` in a plain dict from exponent tuples,
and each operation is the textbook term-by-term one; ``reference_reduce``
divides by taking a max() over all pending terms on every step.  The
package keeps int numerators over packed exponents, and the tests check
it against these.  Importing this module builds no Groebner basis.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import strategies as st

from gaugemods.linalg import BudgetExceededError
from gaugemods.polyring import Polynomial, PolyRing

RING = PolyRing(("x", "y", "z"))


# -- references: dicts from exponents to nonzero Fractions -----------------------

def reference_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def reference_scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def reference_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out = reference_add(out, {tuple(x + y for x, y in zip(ea, eb)): ca * cb})
    return out


def reference_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out = reference_add(out, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]})
    return out


def reference_monomial(e, c):
    return {tuple(e): Fraction(c)} if c else {}


# -- strategies ----------------------------------------------------------------

small = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 6)))
# the size of the coefficients of katsura-5's reduced basis
katsura = st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40))
coefficients = st.one_of(small, small, katsura)


@st.composite
def term_dicts(draw, ring=RING, max_degree=4, max_terms=5):
    """A term dict with nonzero Fraction values, as the references take it."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * ring.nvars
        for _ in range(draw(st.integers(0, max_degree))):
            exps[draw(st.integers(0, ring.nvars - 1))] += 1
        c = draw(coefficients)
        if c:
            terms[tuple(exps)] = c
        else:
            terms.pop(tuple(exps), None)
    return terms


def assert_canonical(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is Fraction for c in p.terms.values())


def assert_matches(p, reference):
    assert_canonical(p)
    assert list(p.terms.items()) == list(reference.items())
    assert hash(p) == hash((p.ring.variables, frozenset(reference.items())))


# -- division ------------------------------------------------------------------

def reference_reduce(p, basis, order):
    """Reference division: a max() over all pending terms on every step.

    The largest remaining term is divided by the first basis element whose
    leading monomial divides it; otherwise it moves to the remainder.
    """
    key = order.key(p.ring)
    leads = [max(g.terms, key=key) for g in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, ge in zip(basis, leads):
            if all(x <= y for x, y in zip(ge, e)):
                shift = tuple(x - y for x, y in zip(e, ge))
                factor = c / g.terms[ge]
                for me, mc in g.terms.items():
                    if me == ge:
                        continue
                    te = tuple(x + y for x, y in zip(me, shift))
                    s = work.get(te, 0) - factor * mc
                    if s:
                        work[te] = s
                    else:
                        work.pop(te, None)
                break
        else:
            remainder[e] = c
    return Polynomial(p.ring, remainder)


def assert_same_division(gb, p):
    """gb.reduce(p) is the reference remainder, term for term and in order,
    and does not change when p's term dict is changed afterwards."""
    try:
        expected = reference_reduce(p, gb.basis, gb.order)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            gb.reduce(p)
        return
    q = Polynomial(p.ring, p.terms)
    got = gb.reduce(q)
    assert list(got.terms.items()) == list(expected.terms.items())
    q.terms.clear()
    assert got == expected
