"""The rank-two circle modules over the Lie algebra of Laurent vector fields.

The module N(alpha) has basis v_k, u_k (k in ZZ) and carries the action

    e_n . v_k = (k + alpha*n) v_{n+k} + u_{n+k}
    e_n . u_k = (k + alpha*n) u_{n+k} + v_{n+k+1}

of the fields e_n = t^(n+1) d/dt.  The same module arises as a gauge
module on the circle t*s = 1: the defining 2x2 matrix of functions is
stated in the scaling frame t*d/dt, and rewriting that connection in
the d/dt chart frame (B -> s*(B - rho(E_11))) makes the general gauge
action reproduce the formulas above exactly; ``gauge_crosscheck``
verifies this on a grid.

All scalars are exact rationals.  Index support is confined to the
window [-WINDOW, WINDOW] so that runaway words fail loudly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from . import gauge as gauge_mod
from .glrep import GlModule, UEAElement
from .groebner import LocalizedElement
from .linalg import BudgetExceededError, IntForm, add_term, echelon, int_form
from .variety import Chart, Variety, circle_variety

Key = tuple[str, int]  # ("v" | "u", index)

WINDOW = 16


class CircleElement(IntForm):
    """A finitely supported rational combination of the v_k and u_k.

    An integer form (see ``linalg``): ``num`` maps keys to int numerators
    over ``den``, and ``terms`` is the rational view, keys to ``Fraction``.
    Equality is equality of ``alpha``, ``num`` and ``den``.  Elements of
    different alpha neither add nor compare equal.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha: Fraction | int, terms: Mapping[Key, int | Fraction]):
        _check_keys(terms)
        self.alpha, self._terms = Fraction(alpha), None
        self.num, self.den = int_form(terms)

    def _like(self, num: dict[Key, int], den: int) -> "CircleElement":
        x = CircleElement.__new__(CircleElement)
        x.alpha = self.alpha
        return x._adopt(num, den)

    def __add__(self, other: "CircleElement") -> "CircleElement":
        return self._sum(self._operand(other), 1)

    def __sub__(self, other: "CircleElement") -> "CircleElement":
        return self._sum(self._operand(other), -1)

    def _operand(self, other: "CircleElement") -> "CircleElement":
        if type(other) is not CircleElement or other.alpha != self.alpha:
            raise ValueError("CircleElement: cannot add elements of different spaces")
        return other

    def scale(self, c: Fraction | int) -> "CircleElement":
        return self._scaled(c)

    def __eq__(self, other: object) -> bool:
        if type(other) is not CircleElement:
            return NotImplemented
        return self.alpha == other.alpha and self.den == other.den and self.num == other.num

    def __str__(self) -> str:
        if not self.num:
            return "0"
        def fmt(key: Key) -> str:
            sym, k = key
            c = self.terms[key]
            base = f"{sym}[{k}]"
            return base if c == 1 else f"({c})*{base}"
        ordering = sorted(self.num, key=lambda key: (key[1], key[0] == "u"))
        return " + ".join(fmt(k) for k in ordering)

    def __repr__(self) -> str:
        return f"CircleElement({self})"


def _check_keys(keys: Iterable[Key]) -> None:
    """Raise for the first key, in order, with an unknown symbol or an index
    outside [-WINDOW, WINDOW]."""
    for sym, k in keys:
        if sym not in ("v", "u"):
            raise ValueError(f"unknown symbol {sym!r}")
        if abs(k) > WINDOW:
            raise BudgetExceededError(
                f"index {k} outside the support window [-{WINDOW}, {WINDOW}]"
            )


def basis_v(alpha: Fraction | int, k: int) -> CircleElement:
    return CircleElement(alpha, {("v", k): 1})


def basis_u(alpha: Fraction | int, k: int) -> CircleElement:
    return CircleElement(alpha, {("u", k): 1})


def act_e(n: int, x: CircleElement) -> CircleElement:
    """Apply the vector field e_n = t^(n+1) d/dt.

    With alpha = a/b, b * e_n.(c v_k) = (k*b + a*n) c v_{n+k} + b c u_{n+k},
    and likewise on u_k, so the numerators stay ints, over den * b."""
    a, b = x.alpha.numerator, x.alpha.denominator
    an = a * n
    out: dict[Key, int] = {}
    for (sym, k), c in x.num.items():
        add_term(out, (sym, n + k), (k * b + an) * c)
        add_term(out, ("u", n + k) if sym == "v" else ("v", n + k + 1), b * c)
    _check_keys(out)
    return x._like(out, x.den * b)


def apply_word(w: UEAElement, x: CircleElement) -> CircleElement:
    """Apply a word sum, rightmost generator first; scalars multiply."""
    total = x._like({}, 1)
    for word, coeff in w.terms.items():
        y = x
        for n in reversed(word):
            y = act_e(n, y)
        total = total + y.scale(coeff)
    return total


# -- distinguished operators ---------------------------------------------------

def sl2_casimir() -> UEAElement:
    """C = e_0^2 + e_0 - e_{-1} e_1; acts on N(alpha) by alpha*(alpha-1)."""
    e0, e1, em1 = (UEAElement.generator(n) for n in (0, 1, -1))
    return e0 * e0 + e0 - em1 * e1


def annihilator_s() -> UEAElement:
    """s = e_{-1} e_0 - 1; annihilates v_0 at alpha = 0."""
    return UEAElement.generator(-1) * UEAElement.generator(0) - UEAElement.scalar(1)


def annihilator_q(alpha: Fraction | int) -> UEAElement:
    """q = e_{-1} e_0^2 - (e_0 + 1 - alpha); annihilates v_0 for every alpha."""
    e0, em1 = UEAElement.generator(0), UEAElement.generator(-1)
    return em1 * e0 * e0 - e0 - UEAElement.scalar(1 - Fraction(alpha))


def operator_p(alpha: Fraction | int) -> UEAElement:
    """p = e_1 - e_0^2 (e_0 + 1 - alpha).

    Under the implemented action p.v_0 evaluates to 2*(alpha-1)*v_1,
    which is nonzero away from alpha = 1; the value is computed and
    reported rather than asserted to vanish.
    """
    e0, e1 = UEAElement.generator(0), UEAElement.generator(1)
    return e1 - e0 * e0 * (e0 + UEAElement.scalar(1 - Fraction(alpha)))


def p_value_on_v0(alpha: Fraction | int) -> CircleElement:
    """The computed value of p on v_0 (expected: 2*(alpha-1)*v_1)."""
    return apply_word(operator_p(alpha), basis_v(alpha, 0))


# -- checks ---------------------------------------------------------------------

def witt_bracket_check(n: int, m: int, x: CircleElement,
                       e_x: Callable[[int], CircleElement] | None = None) -> bool:
    """[e_n, e_m] x == (m - n) e_{n+m} x, exactly.  ``e_x(k)`` gives e_k x:
    a caller checking many (n, m) on one x passes one that remembers."""
    if e_x is None:
        e_x = lambda k: act_e(k, x)
    lhs = act_e(n, e_x(m)) - act_e(m, e_x(n))
    return lhs == e_x(n + m).scale(m - n)


def casimir_scalar_check(alpha: Fraction | int,
                         extra: Iterable[CircleElement] = ()) -> gauge_mod.CheckResult:
    """C x == alpha*(alpha-1) x on v_k and u_k for |k| <= 3 and optional
    extra samples."""
    alpha = Fraction(alpha)
    gamma = alpha * (alpha - 1)
    C = sl2_casimir()
    ks = range(-3, 4)
    samples = [basis_v(alpha, k) for k in ks] + [basis_u(alpha, k) for k in ks]
    samples.extend(extra)
    for x in samples:
        got = apply_word(C, x)
        if got != x.scale(gamma):
            return gauge_mod.CheckResult(
                "casimir_scalar", False,
                f"alpha={alpha}: C({x}) = {got} != {x.scale(gamma)}")
    return gauge_mod.CheckResult("casimir_scalar", True)


class BasisReport(NamedTuple):
    """Extremal-term data for the v_0 orbit family at alpha = 0.

    Orders the basis as ... < u_{-1} < v_0 < u_0 < v_1 < ...; the e_0
    powers are tracked by their highest terms, the e_{-1} powers by
    their lowest terms, and independence is decided by exact rank.
    ``labels_match`` records whether the extremal terms walk upward
    through v_0, u_0, v_1, u_1, ... and downward through u_{-1},
    u_{-2}, ... as expected.
    """

    depth: int
    leading: tuple[str, ...]     # highest terms of v_0, e_0 v_0, ..., e_0^D v_0
    lowest: tuple[str, ...]      # lowest terms of e_{-1} v_0, ..., e_{-1}^D v_0
    labels_match: bool
    independent: bool


def _position(key: Key) -> int:
    sym, k = key
    return 2 * k + (1 if sym == "u" else 0)


def _label(key: Key) -> str:
    return f"{key[0]}[{key[1]}]"


def basis_leading_terms(depth: int) -> BasisReport:
    """Extremal terms and exact independence for the alpha = 0 family."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    alpha = Fraction(0)
    vectors: list[CircleElement] = [basis_v(alpha, 0)]
    x = vectors[0]
    for _ in range(depth):
        x = act_e(0, x)
        vectors.append(x)
    leading = tuple(_label(max(v.terms, key=_position)) for v in vectors)

    down: list[CircleElement] = []
    x = basis_v(alpha, 0)
    for _ in range(depth):
        x = act_e(-1, x)
        down.append(x)
    lowest = tuple(_label(min(v.terms, key=_position)) for v in down)

    expected_leading = tuple(
        _label(("v" if n % 2 == 0 else "u", n // 2)) for n in range(depth + 1))
    expected_lowest = tuple(_label(("u", -n)) for n in range(1, depth + 1))
    labels_match = leading == expected_leading and lowest == expected_lowest

    # each vector's int numerators span its line, so they have its rank
    family = vectors + down
    col: dict[Key, int] = {}
    rows = [{col.setdefault(key, len(col)): c for key, c in v.num.items()} for v in family]
    independent = len(echelon(rows, len(col))[0]) == len(family)
    return BasisReport(depth, leading, lowest, labels_match, independent)


# -- gauge-module realization ----------------------------------------------------

class CircleGauge(NamedTuple):
    """The gauge realization of N(alpha) on the chart with parameter t.

    ``powers`` keeps each Laurent monomial built by ``laurent``, so that one
    element, with the tau derivatives it remembers, serves every use."""

    variety: Variety
    chart: Chart
    module: GlModule
    space: gauge_mod.GaugeModule
    alpha: Fraction
    powers: dict[int, LocalizedElement]

    def laurent(self, k: int) -> LocalizedElement:
        """t^k as a localized element: s^{-k} for negative k (t*s = 1)."""
        out = self.powers.get(k)
        if out is None:
            ring = self.variety.ring
            p = ring.var("t") ** k if k >= 0 else ring.var("s") ** -k
            out = self.powers[k] = self.chart.localization.element(p)
        return out


def circle_gauge(alpha: Fraction | int) -> CircleGauge:
    """Build the circle, its t-parameter chart, U_alpha, and the gauge field.

    The defining matrix [[0, t], [1, 0]] is stated in the scaling frame
    t*d/dt; the d/dt chart frame carries the conjugated connection
    s*(B - rho(E_11)), which is what the general action consumes.
    """
    alpha = Fraction(alpha)
    v = circle_variety()
    chart = next(c for c in v.charts if c.parameters == ("t",))
    loc = chart.localization
    ring = v.ring
    module = GlModule(1, {(1, 1): ({0: alpha}, {1: alpha})},
                      name=f"U_{alpha}", basis_labels=("v", "u"))
    s = loc.element(ring.var("s"))
    t = loc.element(ring.var("t"))
    zero = loc.zero()
    scaling_frame = ((zero, t), (loc.one(), zero))
    chart_frame = tuple(
        tuple(s * (scaling_frame[r][c] - loc.element(alpha if r == c else 0))
              for c in range(2))
        for r in range(2)
    )
    field = gauge_mod.GaugeField(chart, (chart_frame,))
    space = gauge_mod.GaugeModule(chart, module, field)
    return CircleGauge(v, chart, module, space, alpha, {})


def to_gauge_element(cg: CircleGauge, x: CircleElement) -> gauge_mod.GaugeElement:
    """Map sum c * w_k  to  sum c * t^k (x) w in the gauge realization."""
    terms: dict[int, LocalizedElement] = {}
    for (sym, k), c in x.terms.items():
        idx = 0 if sym == "v" else 1
        add_term(terms, idx, cg.laurent(k) * c)
    return cg.space.element(terms)


def gauge_crosscheck(n: int, k: int, symbol: str, cg: CircleGauge) -> bool:
    """The explicit action equals the gauge action of t^(n+1) d/dt on t^k (x) w
    in the realization ``cg``."""
    start = basis_v(cg.alpha, k) if symbol == "v" else basis_u(cg.alpha, k)
    expected = to_gauge_element(cg, act_e(n, start))
    eta = [cg.laurent(n + 1)]
    got = cg.space.act(eta, to_gauge_element(cg, start))
    return got == expected
