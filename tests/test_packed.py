"""Packed exponents against the tuple-keyed references.

A polynomial keeps each exponent vector as one int (see ``polyring``).
The references here and in ``term_references`` keep exponent tuples and
do the textbook arithmetic and division; on rings of one to six variables
the packed code must give their terms, in their order where the
operation fixes one, with the same rendering, leading term and order.
At the widest cap a ring accepts, a product must still report its true
degree, and a lex division must never carry one field into the next.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods.groebner import GroebnerBasis
from gaugemods.linalg import BudgetExceededError
from gaugemods.polyring import (
    Polynomial,
    PolyRing,
    grevlex,
    leading_term,
    lex,
    render,
)

from term_references import (
    assert_matches,
    assert_same_division,
    reference_add,
    reference_mul,
    reference_partial,
    reference_reduce,
    reference_scale,
    term_dicts,
)

RINGS = [PolyRing(tuple(f"x{i}" for i in range(n))) for n in range(1, 7)]


def widest_cap(nvars: int) -> int:
    """The largest degree cap a ring in nvars variables accepts; the caps
    accepted are 0 to 2^k - 1 for some k."""
    names, cap = tuple(f"x{i}" for i in range(nvars)), 1
    while True:
        try:
            PolyRing(names, 2 * cap + 1)
        except ValueError:
            return cap
        cap = 2 * cap + 1


def orders(ring):
    return [grevlex(ring), lex(ring)]


@st.composite
def exponent_vectors(draw, ring, max_degree):
    e = [0] * ring.nvars
    for _ in range(draw(st.integers(0, 3))):
        room = max_degree - sum(e)
        e[draw(st.integers(0, ring.nvars - 1))] += draw(st.integers(0, room))
    return tuple(e)


@st.composite
def basis_and_polynomial(draw, ring, order):
    basis = [Polynomial(ring, draw(term_dicts(ring, max_degree=3, max_terms=3)))
             for _ in range(draw(st.integers(1, 3)))]
    basis = [g for g in basis if not g.is_zero()] or [ring.var(ring.variables[0]) ** 2 - 1]
    return GroebnerBasis(ring, order, basis), Polynomial(ring, draw(term_dicts(ring)))


def reference_render(ring, terms, order):
    """The text ``render`` gives, from exponent tuples and Fractions."""
    if not terms:
        return "0"
    pieces = []
    for e in sorted(terms, key=order.key(ring), reverse=True):
        c = terms[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(ring.variables, e) if k)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        pieces.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# -- the packing itself -------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7), st.data())
def test_pack_round_trip_and_sums(nvars, data):
    cap = widest_cap(nvars)
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), cap)
    e = data.draw(exponent_vectors(ring, cap))
    f = data.draw(exponent_vectors(ring, cap - sum(e)))
    assert ring.unpack(ring.pack(e)) == e
    assert ring.pack(e) + ring.pack(f) == ring.pack(tuple(map(sum, zip(e, f))))
    assert ring.monomial(e, 3) * ring.monomial(f) == ring.monomial(
        tuple(map(sum, zip(e, f))), 3)


def test_every_ring_takes_the_default_cap():
    assert all(widest_cap(n) >= 64 for n in range(0, 12))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_order_keys_sort_packed_exponents_as_the_tuple_keys(ring, data):
    big = PolyRing(ring.variables, widest_cap(ring.nvars))
    vectors = data.draw(st.lists(exponent_vectors(big, big.degree_cap), max_size=12, unique=True))
    packed = [big.pack(e) for e in vectors]
    for order in orders(big):
        assert sorted(packed, key=order.packed_descending_key(big)) == [
            big.pack(e) for e in sorted(vectors, key=order.key(big), reverse=True)]


# -- arithmetic, rendering, leading terms ---------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_arithmetic_matches_the_references(ring, data):
    a, b = (data.draw(term_dicts(ring, max_degree=4, max_terms=5)) for _ in "ab")
    p, q = Polynomial(ring, a), Polynomial(ring, b)
    assert_matches(p, a)
    assert_matches(p + q, reference_add(a, b))
    assert_matches(p - q, reference_add(a, reference_scale(b, -1)))
    assert_matches(p * q, reference_mul(a, b))
    for i, v in enumerate(ring.variables):
        assert_matches(p.partial(v), reference_partial(a, i))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_rendering_and_leading_terms_match_the_references(ring, data):
    terms = data.draw(term_dicts(ring, max_degree=4, max_terms=5))
    p = Polynomial(ring, terms)
    for order in orders(ring):
        assert render(p, order) == reference_render(ring, terms, order)
        if terms:
            e = max(terms, key=order.key(ring))
            assert leading_term(p, order) == (e, terms[e])
    assert str(p) == reference_render(ring, terms, grevlex(ring))


# -- division and products in A ---------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_division_matches_the_reference(ring, data):
    order = data.draw(st.sampled_from(orders(ring)))
    gb, p = data.draw(basis_and_polynomial(ring, order))
    assert_same_division(gb, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_products_match_the_reference_division(ring, data):
    """reduce_product on monomials new to the basis's table, then on the same
    ones known as standard or reducible, and with a one-term operand: a
    constant shifts a normal form onto monomials that are all standard."""
    order = grevlex(ring)
    gb, p = data.draw(basis_and_polynomial(ring, order))
    q = Polynomial(ring, data.draw(term_dicts(ring, max_degree=3, max_terms=3)))
    m = ring.monomial(data.draw(exponent_vectors(ring, 3)), data.draw(st.integers(-3, 3)))
    nf = gb.reduce(p)
    for a, b in [(p, q), (p, q), (q, p), (m, p), (m, p), (p, m),
                 (ring.const(Fraction(-2, 3)), nf), (nf, ring.const(5))]:
        want = reference_reduce(Polynomial(ring, reference_mul(a.terms, b.terms)),
                                gb.basis, order)
        got = gb.reduce_product(a, b)
        assert (got.terms, got.den) == (want.terms, want.den)
    assert list(gb.reduce_product(ring.one(), nf).terms.items()) == list(nf.terms.items())


# -- malformed keys and the edges of the fields -------------------------------------

@pytest.mark.parametrize("bad", [(1, 2, 3), (-1, 2), (1,), ()])
def test_a_malformed_exponent_key_is_refused(bad):
    ring = PolyRing(("x", "y"))
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial(ring, {bad: 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial(ring, {(0, 1): 2, bad: 0})
    assert Polynomial(ring, {(1, 2): 5, (0, 0): 1}).coefficient(bad) == 0


def test_a_coefficient_past_the_fields_is_zero():
    ring = PolyRing(("x", "y"))
    assert ring.var("x").coefficient((1 << 40, 0)) == 0


@pytest.mark.parametrize("nvars", [1, 2, 3, 6, 7, 9])
def test_a_cap_whose_double_does_not_fit_a_field_is_refused(nvars):
    names, cap = tuple(f"x{i}" for i in range(nvars)), widest_cap(nvars)
    with pytest.raises(ValueError, match="twice the cap must fit"):
        PolyRing(names, cap + 1)
    PolyRing(names, cap)


@pytest.mark.parametrize("nvars", [1, 2, 3, 6, 7, 9])
def test_the_first_result_past_the_widest_cap_names_its_true_degree(nvars):
    """Twice the cap still fits a field, so the product of two monomials at
    the cap is read with its true degree."""
    cap = widest_cap(nvars)
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), cap)
    first, last = ring.var(ring.variables[0]), ring.var(ring.variables[-1])
    at_cap = first ** cap
    message = f"total degree {2 * cap} exceeds the ring cap {cap}"
    gb = GroebnerBasis(ring, grevlex(ring), [last ** 2 - 1])
    for make in (lambda: at_cap * at_cap, lambda: at_cap ** 2,
                 lambda: gb.reduce_product(at_cap, at_cap),
                 lambda: gb.reduce_product(at_cap, at_cap + last)):
        with pytest.raises(BudgetExceededError) as err:
            make()
        assert str(err.value) == message
    with pytest.raises(BudgetExceededError, match=f"total degree {cap + 1} exceeds"):
        first ** (cap + 1)


@pytest.mark.parametrize("nvars", [2, 3, 6, 7])
def test_a_lex_division_past_the_fields_raises_and_never_carries(nvars):
    """Under lex, x0 - x1^cap takes x0^2 to x1^(2 cap): past the field, so
    the division raises at that term.  One step less stays exact."""
    cap = widest_cap(nvars)
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), cap)
    x0, x1 = ring.var("x0"), ring.var("x1")
    gb = GroebnerBasis(ring, lex(ring), [x0 - x1 ** cap])
    assert gb.reduce(x0) == x1 ** cap
    with pytest.raises(BudgetExceededError, match="exceeds the exponent fields"):
        gb.reduce(x0 ** 2)
    with pytest.raises(BudgetExceededError, match="exceeds the exponent fields"):
        gb.reduce(x0 * x1)
