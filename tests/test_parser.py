"""Expression parsing: grammar coverage, error positions, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from gaugemods.parser import ParseError, parse_poly
from gaugemods.polyring import DegreeOverflowError, PolyRing, render

from test_polyring import RING, SPHERE, polynomials


def test_sphere_generator():
    assert parse_poly("x^2+y^2+z^2-1", RING) == SPHERE


def test_circle_generator():
    ring = PolyRing(("t", "s"))
    assert parse_poly("t*s-1", ring) == ring.var("t") * ring.var("s") - 1


def test_unary_minus():
    assert parse_poly("-(x)", RING) == -RING.var("x")
    assert parse_poly("-x^2", RING) == -(RING.var("x") ** 2)
    assert parse_poly("--x", RING) == RING.var("x")


def test_rational_literals():
    assert parse_poly("3/4*x", RING) == Fraction(3, 4) * RING.var("x")
    assert parse_poly("-1/2", RING) == RING.const(Fraction(-1, 2))


def test_precedence_and_parens():
    x, y = RING.var("x"), RING.var("y")
    assert parse_poly("x+y*x^2", RING) == x + y * x**2
    assert parse_poly("(x+y)*(x-y)", RING) == x**2 - y**2


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + w", RING)
    assert "w" in str(err.value) and err.value.position == 4


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y", RING)
    assert err.value.position == 4


def test_division_restricted_to_literals():
    with pytest.raises(ParseError):
        parse_poly("x/2", RING)
    with pytest.raises(ParseError):
        parse_poly("1/x", RING)


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0", RING)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x + y )", RING)


def test_exponent_above_degree_cap_overflows():
    assert RING.degree_cap == 64
    assert parse_poly("2^64", RING) == RING.const(2**64)
    with pytest.raises(DegreeOverflowError):
        parse_poly("2^65", RING)


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_poly("x^y", RING)


@settings(max_examples=300, deadline=None)
@given(polynomials(max_degree=5))
def test_render_parse_round_trip(p):
    assert parse_poly(render(p), RING) == p


def test_round_trip_thousand_seeded_samples():
    import random

    from gaugemods import sampling
    rng = random.Random(12345)
    for _ in range(1000):
        p = sampling.polynomial(rng, RING, max_degree=5, max_terms=5)
        assert parse_poly(render(p), RING) == p
