"""Integer numerators over one common denominator, against Fraction references.

A ``Polynomial`` stores int numerators over one positive denominator.  The
references below keep every coefficient as a ``Fraction`` in a plain dict
and do the textbook term-by-term arithmetic.  Each operation must give the
reference's terms, in the reference's order, in canonical form: no zero
numerator, gcd(den, numerators) = 1, only ints inside and only Fractions in
the ``terms`` view.  The hash must equal the hash of the reference terms.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods.groebner import GroebnerBasis, Ideal, buchberger, s_polynomial
from gaugemods.parser import parse_poly
from gaugemods.polyring import Polynomial, PolyRing, leading_term

from test_groebner import reference_reduce

RING = PolyRing(("x", "y", "z"))
R4 = PolyRing(("x", "y", "z", "w"))


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


# -- arithmetic ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(term_dicts(), term_dicts())
def test_sum_difference_and_product_match_the_references(a, b):
    p, q = Polynomial(RING, a), Polynomial(RING, b)
    assert_matches(p, a)
    assert_matches(p + q, reference_add(a, b))
    assert_matches(p - q, reference_add(a, reference_scale(b, -1)))
    assert_matches(-p, reference_scale(a, -1))
    assert_matches(p * q, reference_mul(a, b))
    assert (p + q == Polynomial(RING, reference_add(a, b))) and p - p == RING.zero()


@settings(max_examples=150, deadline=None)
@given(term_dicts(), st.one_of(coefficients, st.integers(-6, 6)))
def test_scalars_match_the_references(a, c):
    p = Polynomial(RING, a)
    assert_matches(p * c, reference_scale(a, c))
    assert_matches(c * p, reference_scale(a, c))
    assert_matches(p + c, reference_add(a, reference_monomial((0, 0, 0), c)))
    assert_matches(c - p, reference_add(reference_scale(a, -1),
                                        reference_monomial((0, 0, 0), c)))


@settings(max_examples=150, deadline=None)
@given(term_dicts(max_degree=6))
def test_partials_match_the_references(a):
    p = Polynomial(RING, a)
    for i, name in enumerate(RING.variables):
        assert_matches(p.partial(name), reference_partial(a, i))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.one_of(coefficients, st.integers(-6, 6)))
def test_constants_and_monomials_match_the_references(e, c):
    assert_matches(RING.monomial(e, c), reference_monomial(e, c))
    assert_matches(RING.const(c), reference_monomial((0, 0, 0), c))
    assert_matches(RING.var("y"), {(0, 1, 0): Fraction(1)})
    assert_matches(RING.one(), {(0, 0, 0): Fraction(1)})
    assert_matches(RING.zero(), {})


@settings(max_examples=60, deadline=None)
@given(term_dicts())
def test_rational_views_of_results(a):
    """Values read through ``terms`` and ``coefficient`` are Fractions, never
    floats, however a result was built."""
    p = Polynomial(RING, a)
    for r in (p, p * 3, p * Fraction(1, 3), p.partial("x"), p**2, p + 1):
        assert_canonical(r)
        for e in r.terms:
            assert type(r.coefficient(e)) is Fraction
        if not r.is_zero():
            assert type(leading_term(r, GB_SPHERE.order)[1]) is Fraction


@settings(max_examples=60, deadline=None)
@given(term_dicts(), term_dicts(), coefficients)
def test_results_share_no_numerator_dict(ta, tb, c):
    """Changing the dict given to the constructor, an operand's numerators or
    its ``terms`` view leaves every earlier result unchanged; a write to the
    view changes neither the value nor the rendering of the operand."""
    given_terms = dict(ta)
    made = Polynomial(RING, given_terms)
    a, b = Polynomial(RING, ta), Polynomial(RING, tb)
    results = [made, a + b, a - b, b - a, a * b, a * c, c * a, a + c, c - a, -a,
               a.partial("x"), a**1, a**2, RING.zero() + a]
    if not a.is_zero():
        results.append(GB_SPHERE.reduce(a))
    expected = [(dict(r.num), r.den, dict(r.terms), str(r)) for r in results]
    text, value = str(a), hash(a)
    a.terms[(8, 0, 0)] = Fraction(1)
    b.terms.clear()
    assert (str(a), hash(a)) == (text, value) and a == Polynomial(RING, ta)
    given_terms[(9, 0, 0)] = Fraction(1)
    a.num[(8, 0, 0)] = 1
    b.num.clear()
    assert [(r.num, r.den, r.terms, str(r)) for r in results] == expected


# -- normal forms ----------------------------------------------------------------

def _gens(ring, texts):
    return tuple(parse_poly(t, ring) for t in texts)


GB_SPHERE = buchberger(Ideal(RING, _gens(RING, ("x^2 + y^2 + z^2 - 1",))))
GB_TORUS = buchberger(Ideal(R4, _gens(R4, ("x^2 + y^2 - 1", "z^2 + w^2 - 1"))))
GB_CYCLIC4 = buchberger(Ideal(R4, _gens(R4, (
    "x + y + z + w", "x*y + y*z + z*w + w*x", "x*y*z + y*z*w + z*w*x + w*x*y",
    "x*y*z*w - 1"))))
# fractional reducers: 7 elements, denominators up to 32,076
GB_KATSURA3 = buchberger(Ideal(R4, _gens(R4, (
    "x + 2*y + 2*z + 2*w - 1", "x^2 + 2*y^2 + 2*z^2 + 2*w^2 - x",
    "2*x*y + 2*y*z + 2*z*w - y", "y^2 + 2*x*z + 2*y*w - z"))))
BASES = [GB_SPHERE, GB_TORUS, GB_CYCLIC4, GB_KATSURA3]


def test_bases_are_canonical_and_monic():
    # int tails on sphere, torus and cyclic-4, Fraction tails on katsura-3
    assert [all(g.den == 1 for g in gb.basis) for gb in BASES] == [True, True, True, False]
    for gb in BASES:
        for g in gb.basis:
            assert_canonical(g)
            assert leading_term(g, gb.order)[1] == 1
        for f, g in zip(gb.basis, gb.basis[1:]):
            s = s_polynomial(f, g, gb.order)
            assert_canonical(s)
            fe, fc = leading_term(f, gb.order)
            ge, gc = leading_term(g, gb.order)
            lcm = tuple(map(max, fe, ge))
            mf = {tuple(a - b + c for a, b, c in zip(lcm, fe, e)): v / fc
                  for e, v in f.terms.items()}
            mg = {tuple(a - b + c for a, b, c in zip(lcm, ge, e)): -v / gc
                  for e, v in g.terms.items()}
            assert s.terms == reference_add(mf, mg)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BASES), st.data())
def test_normal_forms_match_the_reference_division(gb, data):
    a = data.draw(term_dicts(gb.ring, max_degree=5, max_terms=6))
    p = Polynomial(gb.ring, a)
    got = gb.reduce(p)
    assert_matches(got, reference_reduce(p, gb.basis, gb.order).terms)
    assert_canonical(p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), st.data())
def test_normal_forms_are_linear(gb, data):
    """Division is linear: it commutes with a scalar and with sums."""
    a = Polynomial(gb.ring, data.draw(term_dicts(gb.ring, max_degree=4)))
    b = Polynomial(gb.ring, data.draw(term_dicts(gb.ring, max_degree=4)))
    c = data.draw(coefficients)
    assert gb.reduce(a * c) == gb.reduce(a) * c
    assert gb.reduce(a + b) == gb.reduce(a) + gb.reduce(b)


def test_a_non_groebner_basis_with_fractional_leading_coefficients():
    gb = GroebnerBasis(RING, GB_SPHERE.order, _gens(RING, ("3*x^2 - 1/2*y", "2*y*z + 5")))
    p = Polynomial(RING, {(4, 1, 1): Fraction(7, 6), (0, 2, 2): Fraction(-1, 4)})
    assert_matches(gb.reduce(p), reference_reduce(p, gb.basis, gb.order).terms)
