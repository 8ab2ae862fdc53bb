"""The de Rham complex of a chart with scalar gauge fields.

Degree-k elements are sums of localized coefficients against basis
wedges indexed by increasing subsets of the chart parameters.  The
differential

    d(g (x) v) = sum_p (tau_p(g) + B_p g) (x) e_p ^ v

raises degree by one; with symmetric-partial gauge fields the maps
square to zero and commute with the vector-field action (but not with
multiplication by functions, and an explicit witness to that is
provided).  The top-degree image obstruction is certified by exact
linear algebra up to a stated polynomial degree bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, NamedTuple, Sequence

from .gauge import CheckResult
from .groebner import LocalizedElement
from .linalg import BudgetExceededError, Combination, add_term, solve_sparse as _solve_exact
from .polyring import Polynomial, PolyRing
from .variety import Chart

Subset = tuple[int, ...]


class FormElement(Combination):
    """A degree-k element: finitely many wedge terms with localized coefficients."""

    __slots__ = ("chart", "degree")

    def __init__(self, chart: Chart, degree: int,
                 terms: Mapping[Subset, LocalizedElement]):
        n = len(chart.parameters)
        if not 0 <= degree <= n:
            raise ValueError(f"degree {degree} out of range for {n} parameters")
        for subset in terms:
            if len(subset) != degree or list(subset) != sorted(set(subset)):
                raise ValueError(f"wedge index {subset} is not an increasing {degree}-subset")
            if any(not 0 <= i < n for i in subset):
                raise ValueError(f"wedge index {subset} out of range")
        self.chart = chart
        self.degree = degree
        super().__init__(terms)

    @property
    def space(self) -> tuple[Chart, int]:
        return self.chart, self.degree

    def _like(self, terms: Mapping[Subset, LocalizedElement]) -> "FormElement":
        return FormElement(self.chart, self.degree, terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        def label(s: Subset) -> str:
            return "1" if not s else "e(" + ",".join(str(i + 1) for i in s) + ")"
        return " + ".join(f"({self.terms[s]})*{label(s)}" for s in sorted(self.terms))

    def __repr__(self) -> str:
        return f"FormElement(deg {self.degree}: {self.render()})"


def wedge_prepend(p: int, subset: Subset) -> tuple[int, Subset] | None:
    """e_p ^ e_subset: None if p repeats, else (sign, merged increasing subset)."""
    if p in subset:
        return None
    smaller = sum(1 for x in subset if x < p)
    merged = tuple(sorted(subset + (p,)))
    return (-1) ** smaller, merged


def exterior_action(p: int, i: int, subset: Subset) -> tuple[int, Subset] | None:
    """E_pi on a basis wedge: replace one factor e_i by e_p, normalized.

    Returns (sign, subset) or None when the result vanishes.  Computed
    combinatorially, independent of the matrix realization used by the
    gauge machinery.
    """
    if i not in subset:
        return None
    if p == i:
        return 1, subset
    # e_i moved to the front past pos factors, then e_p ^ (the rest)
    pos = subset.index(i)
    hit = wedge_prepend(p, subset[:pos] + subset[pos + 1:])
    return None if hit is None else ((-1) ** pos * hit[0], hit[1])


def act_form(B: Sequence[LocalizedElement], eta: Sequence[LocalizedElement],
             x: FormElement) -> FormElement:
    """The vector-field action on A_(h) (x) Lambda^k V with scalar gauge fields."""
    chart = x.chart
    frame = chart.frame
    params = chart.parameters
    out: dict[Subset, LocalizedElement] = {}
    tau_eta = [[frame.derive(p, fi) for p in params] for fi in eta]
    for subset, g in x.terms.items():
        for i, fi in enumerate(eta):
            if not fi.is_zero():
                dg = frame.derive(params[i], g)
                add_term(out, subset, fi * dg + B[i] * fi * g)
            for p in range(len(params)):
                df = tau_eta[i][p]
                if df.is_zero():
                    continue
                hit = exterior_action(p, i, subset)
                if hit is None:
                    continue
                sign, target = hit
                add_term(out, target, g * df * sign)
    return FormElement(chart, x.degree, out)


def d(B: Sequence[LocalizedElement], x: FormElement) -> FormElement:
    """The degree-raising differential d(g (x) v) = sum (tau_p g + B_p g) (x) e_p ^ v."""
    chart = x.chart
    n = len(chart.parameters)
    if x.degree >= n:
        raise ValueError(f"no differential out of top degree {n}")
    frame = chart.frame
    out: dict[Subset, LocalizedElement] = {}
    for subset, g in x.terms.items():
        for p in range(n):
            coeff = frame.derive(chart.parameters[p], g) + B[p] * g
            if coeff.is_zero():
                continue
            hit = wedge_prepend(p, subset)
            if hit is None:
                continue
            sign, merged = hit
            add_term(out, merged, coeff * sign)
    return FormElement(chart, x.degree + 1, out)


def check_complex(B: Sequence[LocalizedElement], x: FormElement) -> CheckResult:
    """d(d(x)) == 0, exactly."""
    ddx = d(B, d(B, x))
    ok = ddx.is_zero()
    return CheckResult("complex", ok, "" if ok else f"d(d(x)) = {ddx.render()}")


def check_morphism(B: Sequence[LocalizedElement], eta: Sequence[LocalizedElement],
                   x: FormElement) -> CheckResult:
    """d(eta.x) == eta.d(x), exactly."""
    lhs = d(B, act_form(B, eta, x))
    rhs = act_form(B, eta, d(B, x))
    ok = lhs == rhs
    witness = "" if ok else f"d(eta.x)={lhs.render()} eta.d(x)={rhs.render()}"
    return CheckResult("morphism", ok, witness)


def witness_not_a_morphism(chart: Chart, B: Sequence[LocalizedElement]) -> tuple:
    """A concrete (f, x) with d(f.x) != f.d(x): multiplication does not commute with d."""
    if not chart.parameters:
        raise ValueError("need at least one chart parameter")
    loc = chart.localization
    f = loc.element(chart.variety.ring.var(chart.parameters[0]))
    x = FormElement(chart, 0, {(): loc.one()})
    lhs = d(B, x.scale(f))
    rhs = d(B, x).scale(f)
    if lhs == rhs:
        raise AssertionError("expected the A-action to fail commuting with d")
    return f, x, lhs, rhs


class ObstructionResult(NamedTuple):
    """Verdict of the degree-bounded top-form membership certificate.

    ``status`` is FEASIBLE (with an explicit witness, re-verified by
    substitution) or INFEASIBLE_UP_TO_D; the verdict never claims more
    than the stated total-degree bound.
    """

    status: str
    N: int
    max_degree: int
    scale: Fraction
    solution: tuple[Polynomial, ...] | None

    @property
    def feasible(self) -> bool:
        return self.status == "FEASIBLE"


# Largest N * C(N+D, N) * C(N+D+1, N), the entries of the system written
# densely, that gaussian_obstruction accepts.  On one core of a shared
# two-core Xeon host the systems just below it, solved at scale -2 and 0 in
# a fresh process, take at most 0.05 s and 17.2 MB peak RSS: (N, D) =
# (1, 1411), 1,995,156 entries, 0.03 s; (2, 42), 0.05 s; (5, 6), 0.03 s.
# (4, 6), the largest bundled-size system, has 277,200 and takes 10 ms.
_OBSTRUCTION_ENTRY_BUDGET = 2_000_000


def gaussian_obstruction(N: int, D: int, scale: Fraction | int = Fraction(-2)) -> ObstructionResult:
    """Decide whether sum_i (df_i/dx_i + scale * x_i * f_i) = 1 has a
    polynomial solution with deg f_i <= D, by exact linear elimination.

    scale = -2 is the Gaussian-weight top-form obstruction; scale = 0 is
    the control problem solved by divergence (f_1 = x_1).  The system has
    N * C(N+D, N) unknowns and at most C(N+D+1, N) equations; a product
    above ``_OBSTRUCTION_ENTRY_BUDGET`` raises ``BudgetExceededError``.
    """
    if N < 1 or D < 0:
        raise ValueError("need N >= 1 and D >= 0")
    entries = N * comb(N + D, N) * comb(N + D + 1, N)
    if entries > _OBSTRUCTION_ENTRY_BUDGET:
        raise BudgetExceededError(f"obstruction for N={N}, D={D} needs {entries} matrix "
                                  f"entries; budget {_OBSTRUCTION_ENTRY_BUDGET}")
    scale = Fraction(scale)
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(N)), max(D + 2, 4))

    monomials = [e for deg in range(D + 1)
                 for e in _exponents_of_degree(N, deg)]
    unknowns = [(i, e) for i in range(N) for e in monomials]
    ncols = len(unknowns)

    # one int row per equation monomial: with scale = a/b every equation is
    # multiplied by b, and the target 1 is the right-hand side b in column
    # ncols, so its equation stays even when no unknown reaches it (D = 0).
    # Each unknown meets a row at most once, so no entry cancels.
    a, b = scale.numerator, scale.denominator
    rows: dict[tuple[int, ...], dict[int, int]] = {(0,) * N: {ncols: b}}
    for c, (i, e) in enumerate(unknowns):
        if e[i] > 0:  # d/dx_i of x^e
            rows.setdefault(e[:i] + (e[i] - 1,) + e[i + 1:], {})[c] = e[i] * b
        if a:  # scale * x_i * x^e
            rows.setdefault(e[:i] + (e[i] + 1,) + e[i + 1:], {})[c] = a

    solution = _solve_exact([rows[e] for e in sorted(rows)], ncols)
    if solution is None:
        return ObstructionResult("INFEASIBLE_UP_TO_D", N, D, scale, None)

    terms: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(N)]
    for c, x in solution.items():
        i, e = unknowns[c]
        terms[i][e] = x
    polys = [Polynomial(ring, t) for t in terms]
    total = ring.zero()
    for i, f in enumerate(polys):
        total = total + f.partial(ring.variables[i]) + scale * ring.var(ring.variables[i]) * f
    if total != ring.one():
        raise AssertionError("solver returned a candidate that fails substitution")
    return ObstructionResult("FEASIBLE", N, D, scale, tuple(polys))


def _exponents_of_degree(n: int, deg: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in _exponents_of_degree(n - 1, deg - first):
            out.append((first,) + rest)
    return out
