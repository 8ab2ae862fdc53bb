"""Gauge fields and the gauge-module action of vector fields.

A configured gauge module is the space A_(h) (x) U for a chart N(h) and
a gl_N module U, together with gauge fields B_1..B_N (matrices over
A_(h), scalars in the rank-one case).  A chart derivation with
coefficients (f_1..f_N) acts on g (x) u by

    sum_i [ f_i tau_i(g) (x) u  +  f_i g (x) B_i u
            + sum_p g tau_p(f_i) (x) rho(E_pi) u ].

The action is computed in matrix form, eta.(g (x) u) = eta(g) (x) u +
g (x) M_eta u, with the connection matrix

    M_eta = sum_i f_i B_i + sum_{p,i} tau_p(f_i) rho(E_pi).

M_eta depends on eta alone, so each column is summed from the small
elements f_i, tau_p(f_i) and the matrix entries before the large
coefficient g is multiplied, once per nonzero entry.

The three gauge-field axioms (linearity over A_(h); commutation with
the gl_N action; flatness of the connection tau_i + B_i) are verified
entrywise and reported with witnesses.  Twisting by a closed 1-form pi
is the flat change B_i -> B_i + pi_i Id of the gauge field; it commutes
with rho, so it disturbs neither the Lie property nor the compatibility
with multiplication by functions.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .glrep import GlModule
from .groebner import Localization, LocalizedElement
from .linalg import Combination, add_term
from .variety import Chart, chart_apply

LocMatrix = tuple[tuple[LocalizedElement, ...], ...]


def _columns(m: Sequence[Sequence]) -> tuple[tuple[tuple[int, object], ...], ...]:
    """For each column of a square matrix, the (row, entry) pairs of its
    nonzero entries."""
    return tuple(tuple((r, row[c]) for r, row in enumerate(m) if row[c])
                 for c in range(len(m)))


class CheckResult(NamedTuple):
    """Outcome of one exact check, with a rendered witness on failure."""

    name: str
    ok: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.ok


class GaugeField:
    """Gauge fields for one chart: a matrix of localized functions per parameter."""

    def __init__(self, chart: Chart, matrices: Sequence[Sequence[Sequence[LocalizedElement]]]):
        self.chart = chart
        if len(matrices) != len(chart.parameters):
            raise ValueError("one matrix per chart parameter is required")
        self.matrices: tuple[LocMatrix, ...] = tuple(
            tuple(tuple(row) for row in m) for m in matrices
        )
        dims = {len(m) for m in self.matrices}
        if len(dims) != 1:
            raise ValueError("gauge matrices of unequal size")
        self.dim = dims.pop()
        for m in self.matrices:
            if any(len(row) != self.dim for row in m):
                raise ValueError("gauge matrices must be square")
        # columns[i][u]: the nonzero entries of B_i applied to basis vector u
        self.columns = tuple(_columns(m) for m in self.matrices)

    @classmethod
    def zero(cls, chart: Chart, dim: int) -> "GaugeField":
        z = chart.localization.zero()
        m = tuple(tuple(z for _ in range(dim)) for _ in range(dim))
        return cls(chart, tuple(m for _ in chart.parameters))

    @classmethod
    def scalar(cls, chart: Chart, values: Sequence[LocalizedElement], dim: int) -> "GaugeField":
        """Scalar gauge fields: B_i = values[i] times the unit matrix."""
        return cls.zero(chart, dim).shifted(values)

    def shifted(self, values: Sequence[LocalizedElement]) -> "GaugeField":
        """The gauge fields B_i + values[i] times the unit matrix."""
        return GaugeField(self.chart, tuple(
            tuple(tuple(b + v if r == c else b for c, b in enumerate(row))
                  for r, row in enumerate(m))
            for m, v in zip(self.matrices, values, strict=True)))

    def validate(self, module: GlModule) -> list[CheckResult]:
        """Check the three gauge-field axioms against a module."""
        if module.dim != self.dim:
            raise ValueError(f"module dim {module.dim} != gauge dim {self.dim}")
        chart = self.chart
        loc = chart.localization
        results = [CheckResult("axiom1_linearity", True,
                               "matrices over A_(h) are A_(h)-linear by construction")]

        dim, params = self.dim, chart.parameters

        def commutation_failures():
            # axiom 2: [B_i, rho(E_pq)] = 0 entrywise
            for i, B in enumerate(self.matrices):
                for (p, q), cols in module.rho.items():
                    for r in range(dim):
                        for c in range(dim):
                            lhs = loc.zero()
                            for k in range(dim):
                                if k in cols[c]:
                                    lhs = lhs + B[r][k] * cols[c][k]
                                if r in cols[k]:
                                    lhs = lhs - cols[k][r] * B[k][c]
                            if not lhs.is_zero():
                                yield f"[B_{i + 1}, rho(E_{p}{q})] entry ({r + 1},{c + 1}) = {lhs}"

        def flatness_failures():
            # axiom 3: tau_i(B_j) - tau_j(B_i) + [B_i, B_j] = 0
            frame = chart.frame
            for i in range(len(params)):
                for j in range(i + 1, len(params)):
                    Bi, Bj = self.matrices[i], self.matrices[j]
                    for r in range(dim):
                        for c in range(dim):
                            entry = frame.derive(params[i], Bj[r][c]) \
                                - frame.derive(params[j], Bi[r][c])
                            for k in range(dim):
                                entry = entry + Bi[r][k] * Bj[k][c] - Bj[r][k] * Bi[k][c]
                            if not entry.is_zero():
                                yield (f"flatness fails for (i,j)=({i + 1},{j + 1})"
                                       f" at entry ({r + 1},{c + 1}): {entry}")

        for name, failures in (("axiom2_glN_commutation", commutation_failures()),
                               ("axiom3_flatness", flatness_failures())):
            witness = next(failures, "")
            results.append(CheckResult(name, not witness, witness))
        return results


class GaugeElement(Combination):
    """A finitely supported sum of coefficients in A_(h) against the U basis."""

    __slots__ = ("loc",)

    def __init__(self, loc: Localization, terms: Mapping[int, LocalizedElement]):
        self.loc = loc
        super().__init__(terms)

    @property
    def space(self) -> Localization:
        return self.loc

    def _like(self, terms: Mapping[int, LocalizedElement]) -> "GaugeElement":
        return GaugeElement(self.loc, terms)

    def render(self, labels: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]})*{labels[k]}" for k in sorted(self.terms))

    def __repr__(self) -> str:
        return f"GaugeElement({ {k: str(v) for k, v in self.terms.items()} })"


class OneForm:
    """A 1-form in chart coordinates; closedness is verified at construction."""

    def __init__(self, chart: Chart, coeffs: Sequence[LocalizedElement]):
        if len(coeffs) != len(chart.parameters):
            raise ValueError("one coefficient per chart parameter is required")
        self.chart = chart
        self.coeffs = tuple(coeffs)
        frame = chart.frame
        params = chart.parameters
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                diff = frame.derive(params[j], self.coeffs[i]) \
                    - frame.derive(params[i], self.coeffs[j])
                if not diff.is_zero():
                    raise ValueError(
                        f"1-form is not closed: d violation between "
                        f"{params[i]} and {params[j]}: {diff}"
                    )

    def negate(self) -> "OneForm":
        return OneForm(self.chart, tuple(-c for c in self.coeffs))


class GaugeModule:
    """A_(h) (x) U with the vector-field action for fixed gauge fields."""

    def __init__(self, chart: Chart, module: GlModule, field: GaugeField):
        if field.chart is not chart:
            raise ValueError("gauge field belongs to a different chart")
        if field.dim != module.dim:
            raise ValueError("gauge field size does not match the module dimension")
        if module.N != len(chart.parameters):
            raise ValueError(f"the module is a gl_{module.N} module, but the chart has "
                             f"{len(chart.parameters)} parameters")
        self.chart = chart
        self.module = module
        self.field = field
        self.loc = chart.localization
        # rho_columns[p][i]: the columns of rho(E_pi), 0-based
        n = module.N
        self.rho_columns = tuple(tuple(module.rho[(p + 1, i + 1)] for i in range(n))
                                 for p in range(n))
        self._connections: dict[tuple[int, ...], _Connection] = {}

    # -- element constructors ------------------------------------------------

    def element(self, terms: Mapping[int, LocalizedElement]) -> GaugeElement:
        for index in terms:
            if not (isinstance(index, int) and 0 <= index < self.module.dim):
                raise ValueError(f"basis index {index!r} is out of range for a module "
                                 f"of dimension {self.module.dim}")
        return GaugeElement(self.loc, terms)

    # -- actions ---------------------------------------------------------------

    def act(self, eta: Sequence[LocalizedElement], x: GaugeElement) -> GaugeElement:
        """Act by the chart derivation with coefficients eta, in the matrix
        form of the module docstring: g at u is multiplied once by each
        nonzero entry of column u of M_eta, and sum_i f_i tau_i(g) is added
        at u."""
        if len(eta) != len(self.chart.parameters):
            raise ValueError("one coefficient per chart parameter is required")
        frame = self.chart.frame
        params = self.chart.parameters
        connection = self._connection(eta)
        fields = connection.fields
        out: dict[int, LocalizedElement] = {}
        for u, g in x.terms.items():
            column = connection.column(u)
            for i, fi in fields:
                dg = frame.derive(params[i], g)
                if dg:
                    add_term(out, u, fi * dg)
            for r, m in column:
                add_term(out, r, g * m)
        return GaugeElement(self.loc, out)

    def _connection(self, eta: Sequence[LocalizedElement]) -> "_Connection":
        """The connection of eta, kept for the last few vector fields: the
        checks act by one field again and again.  A field is known by the
        identity of each coefficient, which never changes, and never by the
        sequence, which can; a kept field keeps its coefficients alive, so
        their ids name them alone."""
        key = tuple(map(id, eta))
        connection = self._connections.get(key)
        if connection is None:
            if len(self._connections) == _KEPT_CONNECTIONS:
                del self._connections[next(iter(self._connections))]
            connection = self._connections[key] = _Connection(self, tuple(eta))
        return connection

    def bracket_coeffs(self, eta: Sequence[LocalizedElement],
                       mu: Sequence[LocalizedElement]) -> list[LocalizedElement]:
        """Chart coefficients of [eta, mu]: eta(mu_i) - mu(eta_i)."""
        return [chart_apply(self.chart, eta, mi) - chart_apply(self.chart, mu, ei)
                for ei, mi in zip(eta, mu)]

    def twist(self, omega: OneForm) -> "GaugeModule":
        """Twist the action by a closed 1-form: B_i -> B_i + omega_i Id."""
        if omega.chart is not self.chart:
            raise ValueError("1-form belongs to a different chart")
        return GaugeModule(self.chart, self.module, self.field.shifted(omega.coeffs))


_KEPT_CONNECTIONS = 4  # a Lie check acts by [eta, mu], mu and eta


class _Connection:
    """M_eta of one vector field eta on one gauge module: the nonzero f_i,
    with the terms of each column of M_eta (see the module docstring)
    summed from them on first use."""

    def __init__(self, gm: GaugeModule, eta: tuple[LocalizedElement, ...]):
        frame = gm.chart.frame
        params = gm.chart.parameters
        # eta is kept so that no other object takes the ids of its coefficients
        self.eta, self.field_columns = eta, gm.field.columns
        self.fields = [(i, fi) for i, fi in enumerate(eta) if fi]
        # (the columns of rho(E_pi), tau_p(f_i)) for each nonzero tau_p(f_i)
        self.rho_terms = [(gm.rho_columns[p][i], df) for i, fi in enumerate(eta)
                          for p, df in enumerate(frame.derive(q, fi) for q in params) if df]
        self._columns: dict[int, tuple[tuple[int, LocalizedElement], ...]] = {}

    def column(self, u: int) -> tuple[tuple[int, LocalizedElement], ...]:
        """The (row, entry) pairs of the nonzero entries of column u."""
        column = self._columns.get(u)
        if column is None:
            entries: dict[int, LocalizedElement] = {}
            for i, fi in self.fields:
                for r, b in self.field_columns[i][u]:
                    add_term(entries, r, fi * b)
            for rho, df in self.rho_terms:
                for r, c in rho[u].items():
                    add_term(entries, r, df * c)
            column = self._columns[u] = tuple(entries.items())
        return column


def check_av_compat(gm: GaugeModule, eta: Sequence[LocalizedElement],
                    f: LocalizedElement, x: GaugeElement) -> CheckResult:
    """eta.(f.x) == eta(f).x + f.(eta.x), exactly."""
    lhs = gm.act(eta, x.scale(f))
    rhs = x.scale(chart_apply(gm.chart, eta, f)) + gm.act(eta, x).scale(f)
    ok = lhs == rhs
    witness = "" if ok else (
        f"lhs={lhs.render(gm.module.basis_labels)} "
        f"rhs={rhs.render(gm.module.basis_labels)}"
    )
    return CheckResult("av_compat", ok, witness)


def check_lie_action(gm: GaugeModule, eta: Sequence[LocalizedElement],
                     mu: Sequence[LocalizedElement], x: GaugeElement) -> CheckResult:
    """act([eta,mu], x) == act(eta, act(mu,x)) - act(mu, act(eta,x)), exactly."""
    lhs = gm.act(gm.bracket_coeffs(eta, mu), x)
    rhs = gm.act(eta, gm.act(mu, x)) - gm.act(mu, gm.act(eta, x))
    ok = lhs == rhs
    witness = "" if ok else (
        f"lhs={lhs.render(gm.module.basis_labels)} "
        f"rhs={rhs.render(gm.module.basis_labels)}"
    )
    return CheckResult("lie_action", ok, witness)
