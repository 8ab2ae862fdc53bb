"""Smooth affine varieties: Jacobian, charts, tangent frames, vector fields.

A variety is presented by ambient variables and ideal generators.  The
Jacobian rank is computed over the fraction field of A (zero tests are
ideal-membership tests), charts come from the nonzero maximal minors,
and each chart carries the derivations tau_i = d/dx_i + sum f_ij d/dx_j
of A_(h) obtained by Cramer's rule against the chart minor.

An empty generator list models affine space itself: one chart with
minor 1 and every variable a chart parameter.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .groebner import (
    GroebnerBasis,
    Ideal,
    Localization,
    LocalizedElement,
    QuotientElement,
    QuotientRing,
    TauDerivation,
    buchberger,
    is_unit_ideal,
)
from .linalg import det
from .polyring import Polynomial, PolyRing, grevlex, leading_term


class Variety:
    """A smooth irreducible affine variety with cached algebraic data.

    The Groebner basis, Jacobian, rank, and dimension are computed at
    construction; charts are computed on first access and cached.
    Properness of the ideal is enforced here; smoothness is *checked*
    (``smoothness_check``) but not enforced, so singular inputs can still
    be examined and reported.  Irreducibility is the
    caller's responsibility.
    """

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial], name: str = ""):
        self.ring = ring
        self.name = name
        self.order = grevlex(ring)
        self.generators = tuple(generators)
        if self.generators:
            self.ideal: Ideal | None = Ideal(ring, self.generators)
            self.gb = buchberger(self.ideal, self.order)
            if self.gb.is_unit():
                raise ValueError("the ideal is the unit ideal: empty variety")
        else:
            self.ideal = None
            self.gb = GroebnerBasis(ring, self.order, ())
        self.qring = QuotientRing(self.gb)
        self.jacobian = tuple(
            tuple(g.partial(v) for v in ring.variables) for g in self.generators
        )
        self.rank = self._jacobian_rank()
        self.dim = ring.nvars - self.rank
        self._charts: tuple[Chart, ...] | None = None

    # -- Jacobian ---------------------------------------------------------

    def _jacobian_rank(self) -> int:
        """Rank over Frac(A) by fraction-free elimination; zero tests in A.

        Not in ``linalg``: A = QQ[x]/I has no division, which Bareiss needs."""
        rows = [[self.qring.element(p) for p in row] for row in self.jacobian]
        rank = 0
        ncols = self.ring.nvars
        for col in range(ncols):
            pivot = None
            for r in range(rank, len(rows)):
                if not rows[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            pv = rows[rank][col]
            for r in range(rank + 1, len(rows)):
                f = rows[r][col]
                if f.is_zero():
                    continue
                rows[r] = [pv * a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
            if rank == len(rows):
                break
        return rank

    # -- charts -----------------------------------------------------------

    @property
    def charts(self) -> tuple["Chart", ...]:
        if self._charts is None:
            self._charts = self._enumerate_charts()
        return self._charts

    def _enumerate_charts(self) -> tuple["Chart", ...]:
        r = self.rank
        found: list[Chart] = []
        seen: set[tuple[tuple[int, ...], Polynomial]] = set()
        for rows in itertools.combinations(range(len(self.generators)), r):
            for cols in itertools.combinations(range(self.ring.nvars), r):
                minor = self.qring.element(
                    det(self.ring, [[self.jacobian[i][j] for j in cols] for i in rows]))
                if minor.is_zero():
                    continue
                lead_coeff = leading_term(minor.rep, self.order)[1]
                normalized = self.qring.element(minor.rep * (1 / lead_coeff))
                if (cols, normalized.rep) in seen:
                    continue
                seen.add((cols, normalized.rep))
                found.append(Chart(self, rows, cols, minor, normalized))
        return tuple(found)

    def chart(self, selector: "int | str") -> "Chart":
        """Select a chart by index or by the rendered name of its minor."""
        if isinstance(selector, int):
            if not 0 <= selector < len(self.charts):
                raise IndexError(f"no chart {selector}; the variety has "
                                 f"{len(self.charts)} charts")
            return self.charts[selector]
        for c in self.charts:
            if c.name == selector:
                return c
        names = [c.name for c in self.charts]
        raise KeyError(f"no chart named {selector!r}; available: {names}")

    # -- smoothness ---------------------------------------------------------

    def smoothness_check(self) -> bool:
        """True iff I + <h_j over all charts> is the unit ideal: the Jacobian
        smoothness criterion."""
        gens = list(self.generators) + [c.h.rep for c in self.charts if not c.h.rep.is_zero()]
        if not gens:
            return False
        return is_unit_ideal(Ideal(self.ring, tuple(gens)), self.order)

    # -- vector fields ------------------------------------------------------

    def is_vector_field(self, coeffs: Sequence[Polynomial | QuotientElement]) -> bool:
        """Membership in the kernel of the Jacobian over A."""
        elems = [c if isinstance(c, QuotientElement) else self.qring.element(c)
                 for c in coeffs]
        if len(elems) != self.ring.nvars:
            raise ValueError("one coefficient per ambient variable is required")
        for row in self.jacobian:
            total = self.qring.zero()
            for f, dg in zip(elems, row):
                total = total + f * dg
            if not total.is_zero():
                return False
        return True

    def vector_field(self, coeffs: Sequence[Polynomial | QuotientElement],
                     name: str = "") -> "VectorField":
        elems = tuple(c if isinstance(c, QuotientElement) else self.qring.element(c)
                      for c in coeffs)
        if not self.is_vector_field(elems):
            raise ValueError("coefficients do not annihilate the Jacobian rows")
        return VectorField(self, elems, name)


class Chart:
    """A chart N(h): a nonzero maximal minor with its column set.

    Chart parameters are the ambient variables outside the minor's
    columns.  The tangent frame (the tau derivations) is computed on
    first use by Cramer's rule and cached.  ``minor`` is the raw minor,
    kept for certificates, and ``h`` the scalar-normalized (monic) minor.
    """

    def __init__(self, variety: Variety, rows: tuple[int, ...], cols: tuple[int, ...],
                 minor: QuotientElement, h: QuotientElement):
        self.variety, self.rows, self.cols, self.minor, self.h = variety, rows, cols, minor, h
        self.parameters = tuple(v for i, v in enumerate(variety.ring.variables) if i not in cols)

    def _key(self) -> tuple:
        return self.variety, self.rows, self.cols, self.minor, self.h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chart):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def name(self) -> str:
        return str(self.h)

    @cached_property
    def localization(self) -> Localization:
        return Localization(self.variety.qring, self.h)

    @cached_property
    def frame(self) -> "TangentFrame":
        return solve_tau(self.variety, self)

    def __repr__(self) -> str:
        return f"Chart(h={self.name}, parameters={self.parameters})"


class TangentFrame(NamedTuple):
    """The tau derivations of A_(h), one per chart parameter."""

    chart: Chart
    taus: dict[str, TauDerivation]

    def derive(self, param: str, a: "LocalizedElement | QuotientElement | Polynomial") -> LocalizedElement:
        return self.taus[param](a)

    def check(self) -> bool:
        """Every generator satisfies dg/dx_i + sum_j f_ij dg/dx_j = 0 in A_(h)."""
        for g in self.variety.generators:
            for tau in self.taus.values():
                if not tau.apply_poly(g).is_zero():
                    return False
        return True

    @property
    def variety(self) -> Variety:
        return self.chart.variety


def solve_tau(v: Variety, chart: Chart) -> TangentFrame:
    """Solve for the tangent frame of a chart by Cramer's rule.

    For each parameter x_i the corrections (f_ij, j in the minor's
    columns) solve  M f = -(dg_l/dx_i)  where M is the minor submatrix;
    the solution is adj(M) b / det(M) with det(M) the raw minor, so each
    f_ij is a localized element with a single power of h.
    """
    ring = v.ring
    loc = chart.localization
    r = len(chart.cols)
    if r == 0:
        return TangentFrame(chart, {p: TauDerivation(loc, p, {}) for p in chart.parameters})

    sub = [[v.jacobian[i][j] for j in chart.cols] for i in chart.rows]
    lead_coeff = leading_term(chart.minor.rep, v.order)[1]

    taus: dict[str, TauDerivation] = {}
    for param in chart.parameters:
        pi = ring.index(param)
        rhs = [-v.jacobian[i][pi] for i in chart.rows]
        corrections: dict[str, LocalizedElement] = {}
        for jpos, col in enumerate(chart.cols):
            # Cramer: determinant with column jpos replaced by rhs
            replaced = [row[:jpos] + [rhs[i]] + row[jpos + 1:] for i, row in enumerate(sub)]
            # divide by the raw minor = lead_coeff * h
            num = v.qring.element(det(ring, replaced) * (1 / lead_coeff))
            if not num.is_zero():
                corrections[ring.variables[col]] = LocalizedElement(loc, num, 1)
        taus[param] = TauDerivation(loc, param, corrections)

    frame = TangentFrame(chart, taus)
    if not frame.check():
        raise ArithmeticError(
            f"tangent-frame solve failed in chart {chart.name}: minor not invertible?"
        )
    return frame


class VectorField:
    """A derivation of A given by its ambient coefficient tuple."""

    def __init__(self, variety: Variety, coeffs: tuple[QuotientElement, ...], name: str = ""):
        self.variety, self.coeffs, self.name = variety, coeffs, name

    def apply(self, p: Polynomial | QuotientElement) -> QuotientElement:
        """eta(p) = sum_i f_i dp/dx_i, reduced in A."""
        rep = p.rep if isinstance(p, QuotientElement) else p
        out = self.variety.qring.zero()
        for f, var in zip(self.coeffs, self.variety.ring.variables):
            dp = rep.partial(var)
            if not dp.is_zero():
                out = out + f * self.variety.qring.element(dp)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.variety is other.variety and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        parts = [f"({c})*d/d{v}" for c, v in zip(self.coeffs, self.variety.ring.variables)
                 if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def bracket(a: VectorField, b: VectorField) -> VectorField:
    """Ambient-coefficient commutator [a, b]; again a vector field."""
    if a.variety is not b.variety and a.variety.generators != b.variety.generators:
        raise ValueError("vector fields on different varieties")
    v = a.variety
    coeffs = tuple(a.apply(bc) - b.apply(ac) for ac, bc in zip(a.coeffs, b.coeffs))
    return v.vector_field(coeffs)


def to_chart(v: Variety, chart: Chart, vf: VectorField) -> list[LocalizedElement]:
    """Chart coefficients eta(t_i) of a vector field, one per parameter."""
    loc = chart.localization
    return [loc.element(vf.coeffs[v.ring.index(p)]) for p in chart.parameters]


def chart_apply(chart: Chart, coeffs: Sequence[LocalizedElement],
                a: "LocalizedElement | QuotientElement | Polynomial") -> LocalizedElement:
    """Apply a chart-form derivation sum_i f_i tau_i to an element of A_(h);
    a zero f_i costs nothing."""
    frame = chart.frame
    out = chart.localization.zero()
    for f, param in zip(coeffs, chart.parameters):
        if f:
            out = out + f * frame.derive(param, a)
    return out


def sphere_variety() -> Variety:
    """The unit 2-sphere in QQ[x, y, z]."""
    ring = PolyRing(("x", "y", "z"))
    g = ring.var("x") ** 2 + ring.var("y") ** 2 + ring.var("z") ** 2 - 1
    return Variety(ring, [g], name="sphere")


def circle_variety() -> Variety:
    """The hyperbola-model circle t*s = 1 in QQ[t, s]."""
    ring = PolyRing(("t", "s"))
    g = ring.var("t") * ring.var("s") - 1
    return Variety(ring, [g], name="circle")


def affine_space(variables: Iterable[str]) -> Variety:
    """Affine space: no relations, a single chart with minor 1."""
    return Variety(PolyRing(tuple(variables)), [], name="affine")
