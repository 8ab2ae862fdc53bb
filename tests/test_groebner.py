"""Groebner bases, quotient normal forms, and localized arithmetic."""

import itertools
import random
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods.groebner import (
    GroebnerBasis,
    Ideal,
    Localization,
    LocalizedElement,
    QuotientRing,
    buchberger,
    is_member,
    is_unit_ideal,
    loc_partial,
    s_polynomial,
)
from gaugemods.parser import parse_poly
from gaugemods.polyring import (
    Polynomial,
    PolyRing,
    grevlex,
    leading_term,
    lex,
)

from term_references import assert_same_division, reference_reduce
from test_polyring import RING, SPHERE, X, Y, Z, polynomials

TS_RING = PolyRing(("t", "s"))
T, S = TS_RING.var("t"), TS_RING.var("s")


class TestBuchberger:
    def test_single_generator_is_basis(self):
        gb = buchberger(Ideal(TS_RING, (T * S - 1,)), lex(TS_RING))
        assert gb.basis == (T * S - 1,)

    def test_principal_sphere_ideal(self):
        gb = buchberger(Ideal(RING, (SPHERE,)))
        assert gb.basis == (SPHERE,)

    def test_unit_ideal_reduces_to_one(self):
        gb = buchberger(Ideal(RING, (SPHERE, X**2, Y**2, Z**2)))
        assert gb.basis == (RING.one(),)

    def test_spolys_reduce_to_zero(self):
        for gens, order in [
            ((SPHERE, X**2, Y**2, Z**2), None),
            ((X**2 - Y, X * Y - Z), None),
            ((T * S - 1,), lex(TS_RING)),
        ]:
            ring = gens[0].ring
            gb = buchberger(Ideal(ring, gens), order)
            assert gb.spolys_reduce_to_zero()

    def test_generators_reduce_to_zero(self):
        gens = (X**2 - Y, X * Y - Z, Y * Z - X)
        gb = buchberger(Ideal(RING, gens))
        assert all(gb.reduce(g).is_zero() for g in gens)

    def test_deterministic(self):
        gens = (X * Y - Z**2, X**2 - Y * Z, Y**2 - X * Z)
        a = buchberger(Ideal(RING, gens))
        b = buchberger(Ideal(RING, tuple(gens)))
        assert a.basis == b.basis


class TestNormalForm:
    def test_one_division_step(self):
        gb = buchberger(Ideal(RING, (SPHERE,)))
        assert gb.reduce(X**2 + Y**2 + Z**2) == RING.one()

    def test_generator_reduces_to_zero(self):
        gb = buchberger(Ideal(TS_RING, (T * S - 1,)))
        assert gb.reduce(T * S - 1).is_zero()

    def test_irreducible_stays(self):
        gb = buchberger(Ideal(RING, (SPHERE,)))
        assert gb.reduce(X) == X

    def test_idempotent(self):
        gb = buchberger(Ideal(RING, (SPHERE, X * Y - Z)))
        rng = random.Random(5)
        for _ in range(25):
            p = RING.zero()
            for _ in range(3):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + RING.monomial(exps, Fraction(rng.randint(-3, 3)))
            nf = gb.reduce(p)
            assert gb.reduce(nf) == nf

    def test_residual_membership(self):
        # p - gb.reduce(p) always lies in the ideal
        ideal = Ideal(RING, (SPHERE, X * Y - Z))
        gb = buchberger(ideal)
        rng = random.Random(9)
        for _ in range(20):
            p = RING.monomial(tuple(rng.randint(0, 2) for _ in range(3)),
                              Fraction(rng.randint(1, 4)))
            q = RING.monomial(tuple(rng.randint(0, 1) for _ in range(3)),
                              Fraction(rng.randint(-4, -1)))
            combo = p * ideal.generators[0] + q * ideal.generators[1]
            sample = combo + Y * Z
            assert gb.reduce(sample - gb.reduce(sample)).is_zero()


class TestMembership:
    def test_generator_is_member(self):
        assert is_member(T * S - 1, Ideal(TS_RING, (T * S - 1,)))

    def test_variable_is_not(self):
        assert not is_member(T, Ideal(TS_RING, (T * S - 1,)))

    def test_multiple_of_generator(self):
        assert is_member(Z * SPHERE, Ideal(RING, (SPHERE,)))

    def test_unit_ideal_examples(self):
        two = PolyRing(("x", "y"))
        x, y = two.var("x"), two.var("y")
        assert is_unit_ideal(Ideal(two, (x, 1 - x)))
        assert is_unit_ideal(Ideal(RING, (SPHERE, X**2, Y**2, Z**2)))
        assert not is_unit_ideal(Ideal(two, (x**2, y**2)))


@pytest.fixture(scope="module")
def sphere_loc():
    gb = buchberger(Ideal(RING, (SPHERE,)))
    qring = QuotientRing(gb)
    return Localization(qring, qring.element(Z))


class TestLocalized:
    def test_add_same_power(self, sphere_loc):
        a = sphere_loc.element(X, 1)
        b = sphere_loc.element(Y, 1)
        assert a + b == sphere_loc.element(X + Y, 1)

    def test_mul_adds_powers(self, sphere_loc):
        a = sphere_loc.element(X, 1)
        assert a * a == sphere_loc.element(X**2, 2)

    def test_sphere_relation_identifies(self, sphere_loc):
        assert sphere_loc.element(1 - Z**2) == sphere_loc.element(X**2 + Y**2)

    def test_mixed_powers_cross_multiply(self, sphere_loc):
        # x/z == xz/z^2
        assert sphere_loc.element(X, 1) == sphere_loc.element(X * Z, 2)

    def test_mismatched_localizations_rejected(self, sphere_loc):
        gb = buchberger(Ideal(RING, (SPHERE,)))
        qring = QuotientRing(gb)
        other = Localization(qring, qring.element(X))
        with pytest.raises(ValueError):
            sphere_loc.element(X, 1) + other.element(Y, 1)

    def test_separately_built_equal_rings_compare_equal(self, sphere_loc):
        qring = QuotientRing(buchberger(Ideal(RING, (SPHERE,))))
        twin = Localization(qring, qring.element(Z))
        assert qring is not sphere_loc.qring and qring == sphere_loc.qring
        assert twin is not sphere_loc and twin == sphere_loc
        assert qring.element(X) + sphere_loc.qring.element(Y) == qring.element(X + Y)
        assert twin.element(X, 1) + sphere_loc.element(Y, 1) == sphere_loc.element(X + Y, 1)

    def test_mismatched_quotient_rings_rejected(self, sphere_loc):
        other = QuotientRing(buchberger(Ideal(RING, (X * Y - 1,))))
        assert other != sphere_loc.qring
        with pytest.raises(ValueError):
            other.element(X) + sphere_loc.qring.element(Y)

    def test_equality_is_equivalence(self, sphere_loc):
        rng = random.Random(3)
        elems = []
        for _ in range(6):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            elems.append(sphere_loc.element(
                RING.monomial(exps, Fraction(rng.randint(-2, 2))), rng.randint(0, 2)))
        for a in elems:
            assert a == a
        for a, b in itertools.permutations(elems, 2):
            assert (a == b) == (b == a)
        for a, b, c in itertools.permutations(elems, 3):
            if a == b and b == c:
                assert a == c

    def test_h_one_localization(self):
        gb = GroebnerBasis(RING, grevlex(RING), ())
        qring = QuotientRing(gb)
        loc = Localization(qring, qring.one())
        assert loc.element(X, 3) == loc.element(X)


class TestLocPartial:
    def test_tau_x_of_z_on_sphere(self, sphere_loc):
        # tau_x = d/dx - (x/z) d/dz on the chart h = z
        from gaugemods.groebner import TauDerivation
        tau_x = TauDerivation(sphere_loc, "x",
                              {"z": LocalizedElement(sphere_loc, sphere_loc.qring.element(-X), 1)})
        dz = loc_partial(sphere_loc.element(Z), tau_x)
        assert dz == LocalizedElement(sphere_loc, sphere_loc.qring.element(-X), 1)

    def test_independent_parameter(self, sphere_loc):
        from gaugemods.groebner import TauDerivation
        tau_x = TauDerivation(sphere_loc, "x",
                              {"z": LocalizedElement(sphere_loc, sphere_loc.qring.element(-X), 1)})
        assert loc_partial(sphere_loc.element(Y), tau_x).is_zero()

    def test_chart_parameter_power(self, sphere_loc):
        from gaugemods.groebner import TauDerivation
        tau_x = TauDerivation(sphere_loc, "x",
                              {"z": LocalizedElement(sphere_loc, sphere_loc.qring.element(-X), 1)})
        assert loc_partial(sphere_loc.element(X**2), tau_x) == sphere_loc.element(2 * X)

    def test_quotient_rule_on_denominator(self, sphere_loc):
        # tau_x(1/z) = x/z^3
        from gaugemods.groebner import TauDerivation
        tau_x = TauDerivation(sphere_loc, "x",
                              {"z": LocalizedElement(sphere_loc, sphere_loc.qring.element(-X), 1)})
        got = loc_partial(sphere_loc.element(1, 1), tau_x)
        assert got == sphere_loc.element(X, 3)


def test_spoly_of_coprime_leads_reduces():
    gb = buchberger(Ideal(RING, (X**2 - 1, Y**3 - Z)))
    s = s_polynomial(X**2 - 1, Y**3 - Z, gb.order)
    assert gb.reduce(s).is_zero()


def test_quotient_element_powers():
    q = QuotientRing(buchberger(Ideal(RING, (SPHERE,))))
    a = q.element(X + Z * Fraction(1, 2))
    assert a**0 == q.one()
    assert a**3 == a * a * a
    with pytest.raises(ValueError, match="negative powers"):
        a**-1


def test_ideal_requires_nonzero_generators():
    with pytest.raises(ValueError):
        Ideal(RING, ())
    with pytest.raises(ValueError):
        Ideal(RING, (RING.zero(),))


ORDERS = [grevlex(RING), lex(RING)]


class TestDivisionOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(polynomials(max_degree=3, max_terms=3), min_size=1, max_size=4),
           polynomials(max_degree=5, max_terms=6), st.sampled_from(ORDERS))
    def test_non_groebner_bases(self, basis, p, order):
        basis = [g for g in basis if not g.is_zero()] or [SPHERE]
        assert_same_division(GroebnerBasis(RING, order, basis), p)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(polynomials(max_degree=3, max_terms=3), min_size=1, max_size=4),
           polynomials(max_degree=5, max_terms=6), st.sampled_from(ORDERS))
    def test_nothing_to_divide(self, basis, p, order):
        """An input none of whose terms a leading monomial divides is its own
        remainder: it comes back with its terms in descending order, as the
        reference leaves them, in a dict of its own."""
        gb = GroebnerBasis(RING, order, [g for g in basis if not g.is_zero()] or [SPHERE])
        leads = [leading_term(g, order)[0] for g in gb.basis]
        kept = [e for e in p.terms if not any(all(map(le, ge, e)) for ge in leads)]
        # ascending, so that the remainder has to reorder the terms
        q = Polynomial(RING, {e: p.terms[e] for e in sorted(kept, key=order.key(RING))})
        terms_in = list(q.terms.items())
        got = gb.reduce(q)
        expected = reference_reduce(q, gb.basis, order)
        assert list(got.terms.items()) == list(expected.terms.items())
        assert list(got.terms) == sorted(q.terms, key=order.descending_key(RING))
        assert (q.is_zero() or got.num is not q.num) and list(q.terms.items()) == terms_in
        q.num.clear()
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(polynomials(max_degree=6, max_terms=6), st.sampled_from(ORDERS))
    def test_reduced_bases(self, p, order):
        for gens in [(SPHERE,), (SPHERE, X * Y - Z), (X**2 - Y, X * Y - Z, Y * Z - X)]:
            assert_same_division(buchberger(Ideal(RING, gens), order), p)


def _sympy_basis(gb):
    """sympy's reduced grevlex basis of gb's ideal, monic and sorted as gb.basis is."""
    sympy = pytest.importorskip("sympy")
    ring, order = gb.ring, gb.order
    syms = sympy.symbols(ring.variables)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator) *
                 sympy.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in g.terms.items())
             for g in gb.generators]
    basis = []
    for expr in sympy.groebner(exprs, *syms, order="grevlex").exprs:
        terms = {e: Fraction(int(c.p), int(c.q))
                 for e, c in sympy.Poly(expr, *syms).terms()}
        p = Polynomial(ring, terms)
        basis.append(p * (1 / leading_term(p, order)[1]))
    dkey = order.descending_key(ring)
    return tuple(sorted(basis, key=lambda g: dkey(leading_term(g, order)[0])))


ORACLE_IDEALS = {
    "cyclic-4": (("a", "b", "c", "d"),
                 ["a + b + c + d", "a*b + b*c + c*d + d*a",
                  "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]),
    "sphere": (("x", "y", "z"), ["x^2 + y^2 + z^2 - 1"]),
    "torus": (("x", "y", "z", "w"), ["x^2 + y^2 - 1", "z^2 + w^2 - 1"]),
    "SL2": (("a", "b", "c", "d"), ["a*d - b*c - 1"]),
    # the sphere's chart h = x, presented as I + (h*t - 1)
    "sphere-chart-x": (("x", "y", "z", "t"), ["x^2 + y^2 + z^2 - 1", "x*t - 1"]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_IDEALS))
def test_reduced_basis_matches_sympy(name):
    names, gens = ORACLE_IDEALS[name]
    ring = PolyRing(names)
    gb = buchberger(Ideal(ring, tuple(parse_poly(g, ring) for g in gens)))
    assert gb.basis == _sympy_basis(gb)
