"""Seeded samples: the integer-form construction of a random polynomial."""

import random
from fractions import Fraction

import pytest

from gaugemods import sampling
from gaugemods.linalg import add_term
from gaugemods.polyring import Polynomial, PolyRing


def reference_polynomial(rng, ring, max_degree=2, max_terms=3):
    """A dict from exponent tuples to ``Fraction``s, made into a polynomial
    at the end: the same draws, in the order ``polynomial`` makes them."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        add_term(terms, tuple(exps), sampling.rational(rng))
    return Polynomial(ring, terms)


def summed_polynomial(rng, ring, max_degree=2, max_terms=3):
    """The sum of one-term polynomials, drawn in the order ``polynomial`` draws."""
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        p = p + ring.monomial(exps, sampling.rational(rng))
    return p


@pytest.mark.parametrize("variables, max_degree, max_terms",
                         [(("x", "y", "z"), 2, 3), (("t",), 1, 6), (("a", "b"), 4, 8)])
def test_polynomial_matches_the_sum_of_its_terms(variables, max_degree, max_terms):
    ring = PolyRing(variables)
    for seed in range(400):
        mine, theirs = random.Random(seed), random.Random(seed)
        got = sampling.polynomial(mine, ring, max_degree, max_terms)
        expected = summed_polynomial(theirs, ring, max_degree, max_terms)
        assert got == expected and list(got.num) == list(expected.num)
        # the same draws, so every later sample is the same too
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_polynomial_matches_the_fraction_dict_reference(nvars):
    """Equal polynomials, terms in the same order, and the same state of the
    stream after each draw, so that every scenario draws the same samples."""
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)))
    sizes = random.Random(nvars)
    for seed in range(300):
        max_degree, max_terms = sizes.randint(0, 5), sizes.randint(1, 8)
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = sampling.polynomial(mine, ring, max_degree, max_terms)
            expected = reference_polynomial(theirs, ring, max_degree, max_terms)
            assert got == expected and list(got.num) == list(expected.num)
            assert all(type(c) is int for c in got.num.values()) and type(got.den) is int
            assert all(type(c) is Fraction for c in got.terms.values())
            assert mine.getstate() == theirs.getstate()
