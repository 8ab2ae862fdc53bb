"""Seeded samples: the one-dict construction of a random polynomial."""

import random

import pytest

from gaugemods import sampling
from gaugemods.polyring import PolyRing


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
