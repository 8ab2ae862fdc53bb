"""Seeded random generators for property runs.

Everything here is driven by an explicit ``random.Random`` instance so
that scenario runs are reproducible: identical seed, identical samples.
Sizes are kept small on purpose; the checks are exact, so small dense
samples already pin the polynomial identities down.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .groebner import Localization, LocalizedElement
from .linalg import add_term
from .polyring import Polynomial, PolyRing
from .variety import Chart


def rational(rng: random.Random, span: int = 3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def polynomial(rng: random.Random, ring: PolyRing, max_degree: int = 2,
               max_terms: int = 3) -> Polynomial:
    """A sum of up to ``max_terms`` random terms; a repeated monomial adds up."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        add_term(terms, tuple(exps), rational(rng))
    return Polynomial(ring, terms)


def localized(rng: random.Random, loc: Localization, max_degree: int = 2,
              max_terms: int = 2, max_hpower: int = 1) -> LocalizedElement:
    p = polynomial(rng, loc.qring.ring, max_degree, max_terms)
    return loc.element(p, rng.randint(0, max_hpower))


def chart_field(rng: random.Random, chart: Chart, max_degree: int = 2,
                max_terms: int = 2, max_hpower: int = 1) -> list[LocalizedElement]:
    """Random coefficients of a derivation of A_(h) in chart form."""
    loc = chart.localization
    return [localized(rng, loc, max_degree, max_terms, max_hpower)
            for _ in chart.parameters]
