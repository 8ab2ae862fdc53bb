"""Exact polynomial arithmetic: ring axioms, calculus, orders, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods.linalg import BudgetExceededError
from gaugemods.polyring import (
    Polynomial,
    PolyRing,
    RingMismatchError,
    grevlex,
    leading_term,
    lex,
    render,
)

RING = PolyRing(("x", "y", "z"))
X, Y, Z = RING.var("x"), RING.var("y"), RING.var("z")
SPHERE = X**2 + Y**2 + Z**2 - 1


def coefficients():
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polynomials(draw, ring=RING, max_degree=4, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * ring.nvars
        for _ in range(draw(st.integers(0, max_degree))):
            exps[draw(st.integers(0, ring.nvars - 1))] += 1
        terms[tuple(exps)] = draw(coefficients())
    return Polynomial(ring, terms)


class TestArithmetic:
    def test_add_cancellation(self):
        assert (X + Y) + (X - Y) == 2 * X

    def test_add_identity(self):
        p = X**2 + Y
        assert p + RING.zero() == p

    def test_add_sphere_shift(self):
        assert SPHERE + 1 == X**2 + Y**2 + Z**2

    def test_mul_variables(self):
        ring = PolyRing(("t", "s"))
        assert ring.var("t") * ring.var("s") == ring.monomial((1, 1))

    def test_mul_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_variables_and_constants_build_no_fraction(self, monkeypatch):
        """``Fraction.__new__`` calls, counted as in ``test_integer_form``: a
        variable or an int constant is an int numerator over 1."""
        made = 0
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        built = [RING.var("y"), RING.one(), RING.const(3)]
        monkeypatch.undo()
        assert made == 0
        assert [({RING.unpack(e): c for e, c in p.num.items()}, p.den) for p in built] == [
            ({(0, 1, 0): 1}, 1), ({(0, 0, 0): 1}, 1), ({(0, 0, 0): 3}, 1)]
        assert all(type(c) is int for p in built for c in p.num.values())

    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError, match="coefficient -1.0 is not an int or a Fraction"):
            RING.const(-1.0)
        with pytest.raises(TypeError):
            RING.monomial((1, 0, 0), 0.5)

    @pytest.mark.parametrize("op, kind", [
        (lambda: X + 1.5, "float"),
        (lambda: X * 0.5, "float"),
        (lambda: 1.5 - X, "float"),
        (lambda: X * "a", "str"),
    ], ids=["x + 1.5", "x * 0.5", "1.5 - x", "x * 'a'"])
    def test_an_operand_that_is_not_rational_is_refused(self, op, kind):
        with pytest.raises(TypeError, match=f"cannot combine a polynomial with {kind}"):
            op()

    def test_mul_identity(self):
        p = X**3 * Y - Z + 2
        assert p * RING.one() == p

    def test_ring_mismatch_raises(self):
        other = PolyRing(("a", "b"))
        with pytest.raises(RingMismatchError):
            X + other.var("a")

    def test_separately_built_equal_rings_mix(self):
        twin = PolyRing(("x", "y", "z"), degree_cap=8)
        assert twin is not RING and twin == RING
        assert X + twin.var("y") == X + Y
        assert X * twin.var("z") == X * Z
        with pytest.raises(RingMismatchError):
            X * PolyRing(("x", "z", "y")).var("y")

    def test_degree_cap_overflow(self):
        small = PolyRing(("x",), degree_cap=4)
        p = small.var("x") ** 2
        with pytest.raises(BudgetExceededError):
            p * p * p

    def test_pow(self):
        assert (X + 1) ** 2 == X**2 + 2 * X + 1


class TestPartial:
    def test_sphere_jacobian_entry(self):
        assert SPHERE.partial("x") == 2 * X

    def test_constant(self):
        assert RING.const(Fraction(7, 3)).partial("x") == RING.zero()

    def test_power_rule(self):
        assert (X**3 * Y).partial("y") == X**3

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            X.partial("w")


class TestLeadingTerm:
    def test_degree_dominance(self):
        exps, coeff = leading_term(X**2 + Y, grevlex(RING))
        assert exps == (2, 0, 0) and coeff == 1
        # a tie in degree goes to the ring's first variable
        exps, _ = leading_term(X**2 + Z**2, grevlex(RING))
        assert exps == (2, 0, 0)

    def test_lex_on_circle_generator(self):
        ring = PolyRing(("t", "s"))
        ts1 = ring.var("t") * ring.var("s") - 1
        exps, coeff = leading_term(ts1, lex(ring))
        assert exps == (1, 1) and coeff == 1

    def test_single_term(self):
        assert leading_term(Y, grevlex(RING)) == ((0, 1, 0), Fraction(1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term(RING.zero(), grevlex(RING))

    def test_grevlex_one_is_minimal(self):
        key = grevlex(RING).key(RING)
        assert key((0, 0, 0)) < key((1, 0, 0))
        assert key((0, 0, 0)) < key((0, 0, 1))

    def test_single_term_under_both_orders(self):
        for order in (grevlex(RING), lex(RING)):
            assert leading_term(Y, order) == ((0, 1, 0), Fraction(1))


class TestRendering:
    def test_canonical_strings(self):
        assert render(SPHERE) == "x^2 + y^2 + z^2 - 1"
        assert render(-X) == "-x"
        assert render(Fraction(1, 2) * X * Y**2) == "1/2*x*y^2"
        assert render(RING.zero()) == "0"


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), st.sampled_from(["x", "y", "z"]))
def test_leibniz_rule(p, q, v):
    assert (p * q).partial(v) == p.partial(v) * q + p * q.partial(v)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.sampled_from(["x", "y", "z"]), st.sampled_from(["x", "y", "z"]))
def test_partials_commute(p, v, w):
    assert p.partial(v).partial(w) == p.partial(w).partial(v)


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_results_share_no_term_dict(p, q):
    """Changing a dict given to the constructor, or an operand's terms,
    leaves every result unchanged."""
    terms = dict(p.terms)
    made = Polynomial(RING, terms)
    a, b = Polynomial(RING, p.terms), Polynomial(RING, q.terms)
    results = [made, a + b, a - b, a * b, a * Fraction(3, 2), 2 + a, -a,
               a.partial("x"), a**1, a**2]
    expected = [dict(r.terms) for r in results]
    terms[(9, 0, 0)] = Fraction(1)
    a.terms[(8, 0, 0)] = Fraction(1)
    b.terms.clear()
    assert [r.terms for r in results] == expected


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_no_zero_terms_stored(p):
    assert all(c != 0 for c in p.terms.values())
    assert p + (-p) == RING.zero()
