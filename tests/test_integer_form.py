"""Integer numerators over one common denominator, against Fraction references.

A ``Polynomial`` and a ``CircleElement`` store int numerators over one
positive denominator, and gl_N word sums multiply int matrix entries where
they are integral.  The references (here and in ``term_references``) keep every coefficient
as a ``Fraction`` in a plain dict and do the textbook term-by-term
arithmetic.
Each operation must give the reference's terms, in the reference's order,
in canonical form: no zero numerator, gcd(den, numerators) = 1, only ints
inside and only Fractions in the ``terms`` view.  The hash of a polynomial
must equal the hash of the reference terms.
"""

from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods import glrep
from gaugemods.circle import WINDOW, CircleElement, IndexWindowError, act_e
from gaugemods.groebner import GroebnerBasis, Ideal, buchberger, s_polynomial
from gaugemods.parser import parse_poly
from gaugemods.polyring import Polynomial, PolyRing, grevlex, leading_term
from gaugemods.scenario import central_character_table, run_scenario, validate_scenario

from dense_matrices import dense
from term_references import (
    RING,
    assert_canonical,
    assert_matches,
    coefficients,
    reference_add,
    reference_monomial,
    reference_mul,
    reference_partial,
    reference_reduce,
    reference_scale,
    term_dicts,
)
from test_circle import ALPHAS, EXACT_LINALG_CIRCLE
from test_glrep import reference_evaluate, twisted_natural

R4 = PolyRing(("x", "y", "z", "w"))


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
            assert type(leading_term(r, grevlex(RING))[1]) is Fraction


@settings(max_examples=60, deadline=None)
@given(term_dicts(), term_dicts(), coefficients)
def test_results_share_no_numerator_dict(ta, tb, c):
    """Changing the dict given to the constructor, an operand's numerators or
    its ``terms`` view leaves every earlier result unchanged; a write to the
    view changes neither the value nor the rendering of the operand.  Normal
    forms of a, of 0 and of products count as results, against the sphere
    basis and against the empty basis of affine space."""
    given_terms = dict(ta)
    made = Polynomial(RING, given_terms)
    a, b = Polynomial(RING, ta), Polynomial(RING, tb)
    zero = Polynomial(RING, {})
    sphere = basis("sphere")
    nothing = GroebnerBasis(RING, sphere.order, [])
    results = [made, a + b, a - b, b - a, a * b, a * c, c * a, a + c, c - a, -a,
               a.partial("x"), a**1, a**2, RING.zero() + a,
               sphere.reduce(a), nothing.reduce(a), sphere.reduce(zero),
               nothing.reduce(zero), sphere.reduce_product(a, b),
               nothing.reduce_product(a, b), sphere.reduce_product(zero, a),
               nothing.reduce_product(a, zero)]
    expected = [(dict(r.num), r.den, dict(r.terms), str(r)) for r in results]
    text, value = str(a), hash(a)
    a.terms[(8, 0, 0)] = Fraction(1)
    b.terms.clear()
    assert (str(a), hash(a)) == (text, value) and a == Polynomial(RING, ta)
    given_terms[(9, 0, 0)] = Fraction(1)
    a.num[(8, 0, 0)] = 1
    b.num.clear()
    zero.num[(7, 0, 0)] = 1
    assert [(r.num, r.den, r.terms, str(r)) for r in results] == expected


# -- normal forms ----------------------------------------------------------------

def _gens(ring, texts):
    return tuple(parse_poly(t, ring) for t in texts)


IDEALS = {
    "sphere": (RING, ("x^2 + y^2 + z^2 - 1",)),
    "torus": (R4, ("x^2 + y^2 - 1", "z^2 + w^2 - 1")),
    "cyclic-4": (R4, ("x + y + z + w", "x*y + y*z + z*w + w*x",
                      "x*y*z + y*z*w + z*w*x + w*x*y", "x*y*z*w - 1")),
    # fractional reducers: 7 elements, denominators up to 32,076
    "katsura-3": (R4, ("x + 2*y + 2*z + 2*w - 1", "x^2 + 2*y^2 + 2*z^2 + 2*w^2 - x",
                       "2*x*y + 2*y*z + 2*z*w - y", "y^2 + 2*x*z + 2*y*w - z")),
}


@cache
def basis(name):
    """The reduced basis of one of ``IDEALS``, built on first use, so that a
    broken basis computation fails the tests that use it and no other."""
    ring, texts = IDEALS[name]
    return buchberger(Ideal(ring, _gens(ring, texts)))


def test_bases_are_canonical_and_monic():
    bases = [basis(name) for name in IDEALS]
    # int tails on sphere, torus and cyclic-4, Fraction tails on katsura-3
    assert [all(g.den == 1 for g in gb.basis) for gb in bases] == [True, True, True, False]
    for gb in bases:
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
@given(st.sampled_from(sorted(IDEALS)), st.data())
def test_normal_forms_match_the_reference_division(name, data):
    gb = basis(name)
    a = data.draw(term_dicts(gb.ring, max_degree=5, max_terms=6))
    p = Polynomial(gb.ring, a)
    got = gb.reduce(p)
    assert_matches(got, reference_reduce(p, gb.basis, gb.order).terms)
    assert_canonical(p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(IDEALS)), st.data())
def test_normal_forms_are_linear(name, data):
    """Division is linear: it commutes with a scalar and with sums."""
    gb = basis(name)
    a = Polynomial(gb.ring, data.draw(term_dicts(gb.ring, max_degree=4)))
    b = Polynomial(gb.ring, data.draw(term_dicts(gb.ring, max_degree=4)))
    c = data.draw(coefficients)
    assert gb.reduce(a * c) == gb.reduce(a) * c
    assert gb.reduce(a + b) == gb.reduce(a) + gb.reduce(b)


def test_a_non_groebner_basis_with_fractional_leading_coefficients():
    gb = GroebnerBasis(RING, grevlex(RING), _gens(RING, ("3*x^2 - 1/2*y", "2*y*z + 5")))
    p = Polynomial(RING, {(4, 1, 1): Fraction(7, 6), (0, 2, 2): Fraction(-1, 4)})
    assert_matches(gb.reduce(p), reference_reduce(p, gb.basis, gb.order).terms)


# -- circle vectors ----------------------------------------------------------------

def reference_act(n, alpha, terms):
    """e_n v_k = (k + alpha n) v_{n+k} + u_{n+k}, e_n u_k = (k + alpha n) u_{n+k}
    + v_{n+k+1}, term by term on a dict of nonzero Fractions."""
    out = {}
    for (sym, k), c in terms.items():
        out = reference_add(out, {(sym, n + k): (k + alpha * n) * c})
        out = reference_add(out, {("u", n + k) if sym == "v" else ("v", n + k + 1): c})
    return out


def reference_window_error(terms):
    """The message for the first key, in order, outside the window; else None."""
    bad = next((k for _, k in terms if abs(k) > WINDOW), None)
    if bad is None:
        return None
    return f"index {bad} outside the support window [-{WINDOW}, {WINDOW}]"


def nonzero(terms):
    return {key: Fraction(c) for key, c in terms.items() if c}


def assert_circle_matches(x, reference):
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int and c != 0 for c in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1
    assert all(type(c) is Fraction for c in x.terms.values())
    assert list(x.terms.items()) == list(reference.items())


alphas = st.one_of(st.sampled_from(ALPHAS), st.fractions(-5, 5, max_denominator=12))
circle_dicts = st.dictionaries(
    st.tuples(st.sampled_from("vu"), st.integers(-WINDOW, WINDOW)),
    st.one_of(coefficients, st.integers(-6, 6)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(alphas, circle_dicts, st.lists(st.integers(-7, 7), min_size=1, max_size=3))
def test_circle_action_matches_the_reference(alpha, terms, word):
    """Each e_n gives the reference terms, or, once an index leaves the
    window, the error text the reference names for the first such key."""
    x = CircleElement(alpha, terms)
    ref = nonzero(terms)
    assert_circle_matches(x, ref)
    for n in word:
        ref = reference_act(n, alpha, ref)
        error = reference_window_error(ref)
        if error is not None:
            with pytest.raises(IndexWindowError) as exc:
                act_e(n, x)
            assert str(exc.value) == error
            return
        x = act_e(n, x)
        assert_circle_matches(x, ref)


@settings(max_examples=150, deadline=None)
@given(alphas, circle_dicts, circle_dicts, st.one_of(coefficients, st.integers(-6, 6)))
def test_circle_sums_scalings_and_equality_match_the_references(alpha, a, b, c):
    x, y = CircleElement(alpha, a), CircleElement(alpha, b)
    ra, rb = nonzero(a), nonzero(b)
    assert_circle_matches(x + y, reference_add(ra, rb))
    assert_circle_matches(x - y, reference_add(ra, reference_scale(rb, -1)))
    assert_circle_matches(x.scale(c), reference_scale(ra, c))
    assert (x == y) == (ra == rb)
    assert x + y == y + x and (x - x).is_zero() and (x - x).den == 1
    assert x != CircleElement(alpha + 1, a)
    half = CircleElement(alpha, {("v", 0): Fraction(1, 2)})
    assert half.num == half.scale(2).num and half != half.scale(2)


@given(alphas, st.integers(WINDOW + 1, 40), st.sampled_from("vu"))
def test_circle_constructor_checks_symbols_and_window(alpha, k, sym):
    with pytest.raises(IndexWindowError) as exc:
        CircleElement(alpha, {(sym, 0): 1, (sym, -k): 0, (sym, k): 1})
    assert str(exc.value) == reference_window_error({(sym, -k): 0})
    with pytest.raises(ValueError, match="unknown symbol 'w'"):
        CircleElement(alpha, {("w", 0): 1})


# -- gl_N words --------------------------------------------------------------------

def test_word_sums_multiply_ints_where_entries_are_integral():
    m = twisted_natural(Fraction(2, 3))
    entries = [x for cols in m.rho.values() for col in cols for x in col.values()]
    assert {type(x) for x in entries} == {int, Fraction}
    assert all(type(x) is Fraction for x in entries if x.denominator != 1)
    assert all(type(c) is int for k in (1, 2, 3) for c in glrep.casimir(k, 3).terms.values())
    assert all(type(c) is int for c in glrep.hat_omega(2, 3).terms.values())
    words = [glrep.casimir(2, 3), glrep.hat_omega(3, 3),
             glrep.casimir(1, 3) * glrep.UEAElement.scalar(Fraction(-5, 7))]
    for el in words:
        got = glrep.evaluate(el, m)
        assert dense(got) == reference_evaluate(el, m)
        assert {type(x) for col in got for x in col.values()} <= {int, Fraction}


# -- work counts -------------------------------------------------------------------

def _fractions_made(monkeypatch, run) -> int:
    made = 0
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    try:
        run()
    finally:
        monkeypatch.undo()
    return made


def test_circle_vectors_and_word_counts_build_few_fractions(monkeypatch):
    """``Fraction.__new__`` calls in the exact_linalg circle scenario (grid 5,
    seed 0) and in ``central_character_table(4)``, the word caches cleared.
    With ``Fraction`` coefficients in circle vectors and word counts they
    were 280,337 and 70,372; the guard allows a tenth of each."""
    scenario = validate_scenario(dict(EXACT_LINALG_CIRCLE))
    circle = _fractions_made(monkeypatch, lambda: run_scenario(scenario, timing=False))
    glrep.casimir.cache_clear()
    glrep.hat_omega.cache_clear()
    table = _fractions_made(monkeypatch, lambda: central_character_table(4))
    assert circle <= 28_033 and table <= 7_037, (circle, table)
