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
from .polyring import Polynomial, PolyRing, _check_degree
from .variety import Chart


_DENOMINATORS = (1, 1, 2, 3)
_SPAN = 3  # numerators are drawn from -_SPAN.._SPAN
_LOCALIZED_DEGREE, _LOCALIZED_TERMS, _LOCALIZED_HPOWER = 2, 2, 1


def rational(rng: random.Random) -> Fraction:
    num = rng.randint(-_SPAN, _SPAN)
    den = rng.choice(_DENOMINATORS)
    return Fraction(num, den)


def polynomial(rng: random.Random, ring: PolyRing, max_degree: int = 2,
               max_terms: int = 3) -> Polynomial:
    """A sum of up to ``max_terms`` random terms; a repeated monomial adds up.

    Each term is drawn as ``rational`` draws its coefficient, and built in
    integer form: its packed exponents, and its numerator over 6, the lcm
    of the denominators drawn."""
    units, nvars = ring._units, ring.nvars
    num: dict[int, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        e = 0
        for _ in range(rng.randint(0, max_degree)):
            e += units[rng.randrange(nvars)]
        c = rng.randint(-_SPAN, _SPAN)
        add_term(num, e, c * (6 // rng.choice(_DENOMINATORS)))
    _check_degree(ring, num)
    return Polynomial._own(ring, num, 6)


def localized(rng: random.Random, loc: Localization) -> LocalizedElement:
    p = polynomial(rng, loc.qring.ring, _LOCALIZED_DEGREE, _LOCALIZED_TERMS)
    return loc.element(p, rng.randint(0, _LOCALIZED_HPOWER))


def chart_field(rng: random.Random, chart: Chart) -> list[LocalizedElement]:
    """Random coefficients of a derivation of A_(h) in chart form."""
    loc = chart.localization
    return [localized(rng, loc) for _ in chart.parameters]
