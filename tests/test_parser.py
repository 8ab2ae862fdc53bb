"""Expression parsing: grammar coverage, error positions, round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parser_reference
from gaugemods.linalg import BudgetExceededError
from gaugemods.parser import ParseError, parse_poly
from gaugemods.polyring import Polynomial, PolyRing, render

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


def test_a_chain_of_minus_signs_of_any_length_parses():
    # the chain is read in a loop: one recursion per sign once overflowed the stack
    assert parse_poly("-" * 5000 + "x", RING) == RING.var("x")
    assert parse_poly("-" * 5001 + "x^2", RING) == -(RING.var("x") ** 2)


def test_parentheses_nest_at_most_100_deep():
    assert parse_poly("(" * 100 + "x" + ")" * 100, RING) == RING.var("x")
    with pytest.raises(ParseError, match=r"^parentheses nested deeper than 100 \(at position "
                                         r"100\)$") as err:
        parse_poly("(" * 101 + "x" + ")" * 101, RING)
    assert err.value.position == 100


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


@pytest.mark.parametrize("text, position", [
    ("1" * 5000 + "*x", 0), ("x + 2/" + "1" * 5000, 6), ("x^" + "1" * 5000, 2)])
def test_an_integer_literal_longer_than_int_takes_is_a_parse_error(text, position):
    # a number, a denominator and an exponent past the interpreter's digit limit
    with pytest.raises(ParseError) as err:
        parse_poly(text, RING)
    assert str(err.value) == f"integer literal too long (at position {position})"


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x + y )", RING)


def test_exponent_above_degree_cap_overflows():
    assert RING.degree_cap == 64
    assert parse_poly("2^64", RING) == RING.const(2**64)
    with pytest.raises(BudgetExceededError):
        parse_poly("2^65", RING)


def test_only_ascii_digits_are_digits():
    # int() rejected a superscript digit with ValueError, and read an
    # Arabic-Indic one as its value
    for text, char, position in [("2\u00b2*x+y-1", "\u00b2", 1), ("x^\u00b2", "\u00b2", 2),
                                 ("\u0661", "\u0661", 0), ("x + 1\u0661", "\u0661", 5)]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, RING)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"
    # a name goes on with any letters and digits, as before
    with pytest.raises(ParseError, match="unknown variable 'x\u00b2'"):
        parse_poly("x\u00b2", RING)


def test_a_variable_overflows_a_ring_of_cap_zero():
    ring = PolyRing(("x", "y"), 0)
    assert parse_poly("7/2 - 3^0", ring) == ring.const(Fraction(5, 2))
    with pytest.raises(BudgetExceededError, match="total degree 1 exceeds the ring cap 0"):
        parse_poly("1 + y", ring)


def test_an_overflowing_power_names_its_first_product_past_the_cap():
    # squaring x^3 gives x^6, x^12, x^24, x^48, and then x^96 raises, before
    # the result, of degree 120, is formed
    with pytest.raises(BudgetExceededError, match="total degree 96 exceeds the ring cap 64"):
        parse_poly("(x^3)^40", RING)
    with pytest.raises(BudgetExceededError, match="total degree 66 exceeds the ring cap 64"):
        parse_poly("(x*y + 1)^33", RING)


def test_parse_builds_one_polynomial(monkeypatch):
    made, own = [], Polynomial._own.__func__

    def count(cls, *args):
        made.append(args)
        return own(cls, *args)

    monkeypatch.setattr(Polynomial, "_own", classmethod(count))
    monkeypatch.setattr(Polynomial, "__init__", None)
    text = "(x + 1/2*y)^3*(z - 2) - 3*x*y^2 + -(x - y)^2 + 2^10"
    p = parse_poly(text, RING)
    assert len(made) == 1
    monkeypatch.undo()
    assert p == parser_reference.parse_poly(text, RING)


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


# Expression text drawn from the grammar: numbers, a/b literals, ring and
# unknown names, sums, products, parentheses, unary minus and powers, then
# edited by up to two stray insertions or deletions.  The small caps let
# products and powers run past them without building large polynomials.
CAPPED = [PolyRing(("x", "y", "z"), cap) for cap in (0, 1, 3, 12)]
NAMES = ("x", "y", "z") * 4 + ("w", "x1", "_t")
STRAY = ("\u00b2", "\u0661", "3", ".", "\u00e9", "$", " ", "\t", "+", "-", "*", "^", "(", ")",
         "/", "x")
_spaces = st.sampled_from(["", "", " ", "  "])
_numbers = st.one_of(
    st.integers(0, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 40)),
)
_atoms = st.one_of(_numbers, st.sampled_from(NAMES))


@st.composite
def _expressions(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(_atoms)
    form, space = draw(st.integers(0, 4)), draw(_spaces)
    if form <= 1:
        parts = [draw(_expressions(depth - 1))]
        for _ in range(draw(st.integers(1, 3))):
            parts += [draw(st.sampled_from("+-*")), draw(_expressions(depth - 1))]
        return space.join(parts)
    inner = draw(_expressions(depth - 1))
    if form == 2:
        return f"({inner})"
    if form == 3:
        return f"-{inner}"
    return f"({inner}){space}^{space}{draw(st.integers(0, 4) | st.integers(0, 14))}"


@st.composite
def expression_texts(draw):
    text = draw(_expressions())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(STRAY)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _outcome(parse, text, ring):
    """The polynomial and its term order, or the error, its text and position."""
    try:
        p = parse(text, ring)
    except (ParseError, BudgetExceededError) as err:
        return type(err), str(err), getattr(err, "position", None)
    return p, list(p.num)


@settings(max_examples=500, deadline=None)
@given(expression_texts(), st.sampled_from(CAPPED))
@example("2\u00b2*x+y-1", RING)
@example("(x^3)^40", RING)
@example("2^64", RING)
@example("x + w", CAPPED[0])
@example("-(1/2*x - 3/4*y)^3 * (z + 1/3) + 5", CAPPED[3])
@example("x*y*(z + 1)*x", CAPPED[2])
@example("((x + y)^2)^3 - 1", CAPPED[3])
@example("((x + y)^2)^4", CAPPED[3])
def test_parse_equals_the_reference_parser(text, ring):
    assert _outcome(parse_poly, text, ring) == _outcome(parser_reference.parse_poly, text, ring)
