"""Scenario files: schema validation, construction, and check execution.

A scenario is a JSON object with a ``kind`` of ``variety``, ``gauge``,
``derham``, ``circle``, or ``casimir_table``, plus the data that kind
needs.  Validation happens before any computation; failures raise
``ScenarioError`` with the offending path.  Check execution is
deterministic for a fixed scenario and seed, and every record carries a
status of ``pass``, ``fail``, or ``computed`` (values that are reported
but deliberately not adjudicated).  Each kind has one table: a setup that
builds what its checks share, and its checks by name.  ``run_scenario``
times the setup and each check apart.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from . import circle as circle_mod
from . import derham as derham_mod
from . import sampling
from .gauge import (
    GaugeField,
    GaugeModule,
    OneForm,
    check_av_compat,
    check_lie_action,
    validate_gauge,
)
from .glrep import (
    GlModule,
    check_term_budget,
    custom_module,
    exceptional_check,
    exterior_power,
    symmetric_square,
    trivial_module,
)
from .groebner import LocalizedElement
from .parser import ParseError, parse_poly
from .polyring import PolyRing
from .variety import Chart, Variety

SCHEMA_VERSION = "1"


class ScenarioError(ValueError):
    """A scenario file failed schema validation or reference resolution."""


def _require(obj: dict, key: str, types, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}: missing required field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_scenario(path: str | Path) -> Any:
    """The decoded JSON of a scenario file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc


def load_scenario(path: str | Path) -> dict:
    return validate_scenario(read_scenario(path), str(path))


def validate_scenario(scn: Any, path: str = "scenario") -> dict:
    if not isinstance(scn, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    schema = scn.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"{path}.schema: unsupported version {schema!r}")
    kind = _require(scn, "kind", str, path)
    if kind not in KINDS:
        raise ScenarioError(f"{path}.kind: unknown kind {kind!r}; expected one of {KINDS}")
    if kind == "variety":
        spec = scn.get("variety", scn)
        if not isinstance(spec, dict):
            raise ScenarioError(f"{path}.variety: expected a JSON object")
        _validate_variety(spec, path)
    elif kind in ("gauge", "derham"):
        _validate_variety(_require(scn, "variety", dict, path), f"{path}.variety")
        _require(scn, "chart", (str, int), path)
        if kind == "gauge":
            _validate_module(_require(scn, "module", dict, path), f"{path}.module")
        b = scn.get("B")
        if b is not None and not isinstance(b, list):
            raise ScenarioError(f"{path}.B: expected a list or null")
        if "B_potential" in scn and not isinstance(scn["B_potential"], str):
            raise ScenarioError(f"{path}.B_potential: expected an expression string")
        if kind == "derham" and "maxDegree" in scn and not _is_int(scn["maxDegree"]):
            raise ScenarioError(f"{path}.maxDegree: expected an integer")
    elif kind == "circle":
        alphas = scn.get("alphas", ["0"])
        if not isinstance(alphas, list) or not all(isinstance(a, str) for a in alphas):
            raise ScenarioError(f"{path}.alphas: expected a list of rational strings")
        for a in alphas:
            _fraction(a, f"{path}.alphas")
        if "grid" in scn and not _is_int(scn["grid"]):
            raise ScenarioError(f"{path}.grid: expected an integer")
    elif kind == "casimir_table":
        _require(scn, "N", int, path)
    for key in ("seed", "samples"):
        if key in scn and not _is_int(scn[key]):
            raise ScenarioError(f"{path}.{key}: expected an integer")
    checks = scn.get("checks")
    if checks is not None and (not isinstance(checks, list)
                               or not all(isinstance(c, str) for c in checks)):
        raise ScenarioError(f"{path}.checks: expected a list of check names")
    table = _TABLES[kind][1]
    for i, name in enumerate(checks or ()):
        if name not in table:
            import difflib  # only here: an unknown check name is rare
            close = difflib.get_close_matches(name, table, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {list(table)}"
            raise ScenarioError(f"{path}.checks[{i}]: unknown {kind} check {name!r}; {hint}")
    return scn


def _validate_variety(spec: dict, path: str) -> None:
    variables = _require(spec, "variables", list, path)
    if not variables or not all(isinstance(v, str) for v in variables):
        raise ScenarioError(f"{path}.variables: expected a nonempty list of names")
    generators = _require(spec, "generators", list, path)
    if not all(isinstance(g, str) for g in generators):
        raise ScenarioError(f"{path}.generators: expected a list of expression strings")


def _validate_module(spec: dict, path: str) -> None:
    _require(spec, "N", int, path)
    kind = _require(spec, "kind", str, path)
    if kind not in ("exterior", "trivial", "custom", "sym2"):
        raise ScenarioError(f"{path}.kind: unknown module kind {kind!r}")
    if kind == "exterior":
        _require(spec, "k", int, path)
    if kind == "custom":
        # a JSON float would enter as its binary value and a boolean as 0 or 1
        for i, matrix in enumerate(_require(spec, "matrices", list, path)):
            for r, row in enumerate(matrix if isinstance(matrix, list) else ()):
                for c, x in enumerate(row if isinstance(row, list) else ()):
                    where = f"{path}.matrices[{i}][{r}][{c}]"
                    if isinstance(x, str):
                        _fraction(x, where)
                    elif not _is_int(x):
                        raise ScenarioError(f"{where}: expected an integer or a "
                                            f"rational string, got {type(x).__name__}")


def _fraction(text: str, path: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{path}: bad rational {text!r}: {exc}") from exc


# -- construction -------------------------------------------------------------

def build_variety(spec: dict, path: str = "variety") -> Variety:
    try:
        ring = PolyRing(tuple(spec["variables"]))
    except ValueError as exc:
        raise ScenarioError(f"{path}.variables: {exc}") from exc
    gens = []
    for i, text in enumerate(spec["generators"]):
        try:
            gens.append(parse_poly(text, ring))
        except ParseError as exc:
            raise ScenarioError(f"{path}.generators[{i}]: {exc}") from exc
    try:
        return Variety(ring, gens, name=spec.get("name", ""))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def build_module(spec: dict, path: str = "module") -> GlModule:
    N, kind = spec["N"], spec["kind"]
    try:
        if kind == "exterior":
            return exterior_power(N, spec["k"])
        if kind == "trivial":
            return trivial_module(N)
        if kind == "sym2":
            return symmetric_square(N)
        matrices = spec["matrices"]
        if len(matrices) != N * N:
            raise ScenarioError(
                f"{path}.matrices: expected {N * N} matrices in row-major E_ij order")
        rho = {}
        idx = 0
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                rho[(i, j)] = matrices[idx]
                idx += 1
        return custom_module(N, rho, name=spec.get("name", "custom"))
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _localized_entry(entry, chart: Chart, path: str) -> LocalizedElement:
    loc = chart.localization
    ring = chart.variety.ring
    if isinstance(entry, str):
        try:
            return loc.element(parse_poly(entry, ring))
        except ParseError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    if isinstance(entry, dict):
        num = _require(entry, "num", str, path)
        hpower = entry.get("hpower", 0)
        if not _is_int(hpower) or hpower < 0:
            raise ScenarioError(f"{path}.hpower: expected a non-negative integer")
        try:
            return loc.element(parse_poly(num, ring), hpower)
        except ParseError as exc:
            raise ScenarioError(f"{path}.num: {exc}") from exc
    raise ScenarioError(f"{path}: expected an expression string or {{num, hpower}}")


def build_scalar_gauge(scn: dict, chart: Chart, path: str = "scenario") -> list[LocalizedElement]:
    """The scalar gauge tuple for a scenario: B, B_potential, or zero."""
    loc = chart.localization
    n = len(chart.parameters)
    if scn.get("B_potential") is not None:
        ring = chart.variety.ring
        try:
            g = parse_poly(scn["B_potential"], ring)
        except ParseError as exc:
            raise ScenarioError(f"{path}.B_potential: {exc}") from exc
        return [chart.frame.derive(p, loc.element(g)) for p in chart.parameters]
    b = scn.get("B")
    if b is None:
        return [loc.zero() for _ in range(n)]
    if len(b) != n:
        raise ScenarioError(f"{path}.B: expected {n} entries, one per chart parameter")
    if any(isinstance(e, list) for e in b):
        raise ScenarioError(f"{path}.B: matrix gauge fields are not scalar")
    return [_localized_entry(e, chart, f"{path}.B[{i}]") for i, e in enumerate(b)]


def build_gauge_field(scn: dict, chart: Chart, dim: int, path: str = "scenario") -> GaugeField:
    b = scn.get("B")
    if b is not None and b and isinstance(b[0], list):
        n = len(chart.parameters)
        if len(b) != n:
            raise ScenarioError(f"{path}.B: expected {n} matrices")
        matrices = []
        for i, mat in enumerate(b):
            if (not isinstance(mat, list) or len(mat) != dim
                    or any(not isinstance(row, list) or len(row) != dim for row in mat)):
                raise ScenarioError(f"{path}.B[{i}]: expected a {dim}x{dim} matrix")
            matrices.append(tuple(
                tuple(_localized_entry(e, chart, f"{path}.B[{i}][{r}][{c}]")
                      for c, e in enumerate(row))
                for r, row in enumerate(mat)))
        return GaugeField(chart, tuple(matrices))
    scalars = build_scalar_gauge(scn, chart, path)
    return GaugeField.scalar(chart, scalars, dim)


def select_chart(v: Variety, selector, path: str = "scenario.chart") -> Chart:
    """The selected chart, with its tangent frame built: a chart whose frame
    fails (on a reducible or non-reduced variety, say) is an input error."""
    try:
        chart = v.chart(selector)
    except (KeyError, IndexError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        chart.frame
    except ArithmeticError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return chart


# -- check tables ----------------------------------------------------------------
#
# A kind's setup builds what its checks share (its errors exit 2 before any
# check runs); its table maps each check name to a function from that context
# to (status, witness).  Checks run in table order, so a shared random stream
# is drawn in a fixed order.  Entries call package functions by their module-
# level names at call time, so a wrapper installed on those names sees them.

def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _sampled(samples: int, trial: Callable[[int], str | None]) -> tuple[str, str]:
    """Run ``trial`` on samples 0, 1, ...; the first witness it returns fails the check."""
    for i in range(samples):
        witness = trial(i)
        if witness is not None:
            return "fail", witness
    return "pass", f"{samples} samples"


def _failure(i: int, result) -> str | None:
    return None if result.ok else f"sample {i}: {result.witness}"


# -- variety checks -------------------------------------------------------------

def _variety_charts(v: Variety) -> tuple[str, dict]:
    names = [c.name for c in v.charts]
    return "pass", {"count": len(names), "minors": names}


def _variety_frames(v: Variety) -> tuple[str, dict | None]:
    """Every chart's frame solves; ``solve_tau`` checks it on every generator."""
    for c in v.charts:
        try:
            c.frame
        except ArithmeticError as exc:
            return "fail", {"chart": c.name, "message": str(exc)}
    return "pass", None


_VARIETY_CHECKS = {
    "variety.proper": lambda v: ("pass", f"rank {v.rank}, dimension {v.dim}"),
    "variety.smooth": lambda v: (("pass", None) if v.smoothness_check()
                                 else ("fail", "minor ideal is not the unit ideal")),
    "variety.charts": _variety_charts,
    "variety.frames": _variety_frames,
}


# -- gauge checks ----------------------------------------------------------------

def _setup_gauge(scn: dict) -> SimpleNamespace:
    v = build_variety(scn["variety"], "scenario.variety")
    chart = select_chart(v, scn["chart"])
    n = len(chart.parameters)
    if scn["module"]["N"] != n:
        # checked before a module of any size is built
        raise ScenarioError(f"scenario.module: the module is a gl_{scn['module']['N']} "
                            f"module, but the chart has {n} parameters")
    module = build_module(scn["module"], "scenario.module")
    field = build_gauge_field(scn, chart, module.dim)
    try:
        gm = GaugeModule(chart, module, field)
    except ValueError as exc:
        raise ScenarioError(f"scenario.module: {exc}") from exc
    seed = scn.get("seed", 0)
    # av_compat and then lie_action draw from one stream
    return SimpleNamespace(variety=v, gm=gm, axioms=validate_gauge(gm), seed=seed,
                           samples=scn.get("samples", 50), rng=random.Random(seed))


def _gauge_validate(c: SimpleNamespace) -> tuple[str, Any]:
    bad = [a for a in c.axioms if not a.ok]
    if bad:
        return "fail", {a.name: a.witness for a in bad}
    return "pass", [a.name for a in c.axioms]


_SAMPLED_TERMS = 2  # draws per sampled gauge element or form


def _random_gauge_element(rng: random.Random, gm: GaugeModule):
    loc = gm.chart.localization
    return gm.element({
        rng.randrange(gm.module.dim): sampling.localized(rng, loc)
        for _ in range(_SAMPLED_TERMS)
    })


def _sampled_gauge_check(c: SimpleNamespace, check) -> tuple[str, str]:
    """``check(gm, eta, mu, f, x)`` on random fields, functions and elements."""
    if not all(a.ok for a in c.axioms):
        return "fail", "gauge field failed validation; check skipped"
    gm, rng = c.gm, c.rng

    def trial(i: int) -> str | None:
        eta = sampling.chart_field(rng, gm.chart)
        mu = sampling.chart_field(rng, gm.chart)
        f = sampling.localized(rng, gm.chart.localization)
        return _failure(i, check(gm, eta, mu, f, _random_gauge_element(rng, gm)))
    return _sampled(c.samples, trial)


def _twist_roundtrip(c: SimpleNamespace) -> tuple[str, str]:
    gm, rng = c.gm, random.Random(c.seed + 1)
    loc = gm.chart.localization
    potential = sampling.polynomial(rng, gm.chart.variety.ring, 2, 2)
    omega = OneForm(gm.chart, [gm.chart.frame.derive(p, loc.element(potential))
                               for p in gm.chart.parameters])
    twisted = gm.twist(omega)
    untwisted = twisted.twist(omega.negate())

    def trial(i: int) -> str | None:
        eta = sampling.chart_field(rng, gm.chart)
        x = _random_gauge_element(rng, gm)
        if not (untwisted.act(eta, x) == gm.act(eta, x)):
            return f"sample {i}"
        lie = check_lie_action(twisted, eta, sampling.chart_field(rng, gm.chart), x)
        return None if lie.ok else \
            f"twisted action fails Lie property at sample {i}: {lie.witness}"
    return _sampled(max(10, c.samples // 5), trial)


_GAUGE_CHECKS = {
    "variety.smooth": lambda c: (_status(c.variety.smoothness_check()), None),
    "gauge.validate": _gauge_validate,
    "gauge.av_compat": lambda c: _sampled_gauge_check(
        c, lambda gm, eta, mu, f, x: check_av_compat(gm, eta, f, x)),
    "gauge.lie_action": lambda c: _sampled_gauge_check(
        c, lambda gm, eta, mu, f, x: check_lie_action(gm, eta, mu, x)),
    "gauge.twist_roundtrip": _twist_roundtrip,
}


# -- de Rham checks ----------------------------------------------------------------

def _setup_derham(scn: dict) -> SimpleNamespace:
    chart = select_chart(build_variety(scn["variety"], "scenario.variety"), scn["chart"])
    if not chart.parameters:
        raise ScenarioError(f"scenario.chart: the chart {chart.name!r} has no parameters, "
                            f"so it carries no de Rham complex to check")
    B = build_scalar_gauge(scn, chart)
    seed = scn.get("seed", 0)
    # complex and then morphism draw from one stream
    return SimpleNamespace(chart=chart, B=B, n=len(chart.parameters), seed=seed,
                           samples=scn.get("samples", 50), rng=random.Random(seed),
                           max_degree=scn.get("maxDegree", 4),
                           zero_b=all(b.is_zero() for b in B))


def _random_form(rng: random.Random, chart: Chart, degree: int):
    n = len(chart.parameters)
    loc = chart.localization
    subsets = list(itertools.combinations(range(n), degree))
    return derham_mod.FormElement(chart, degree, {
        rng.choice(subsets): sampling.localized(rng, loc) for _ in range(_SAMPLED_TERMS)
    })


def _derham_complex(c: SimpleNamespace) -> tuple[str, str]:
    if c.n < 2:
        # no degree to sample, so nothing is checked
        return "computed", "no degrees below N-1; vacuous"

    def trial(i: int) -> str | None:
        x = _random_form(c.rng, c.chart, c.rng.randrange(0, c.n - 1))
        return _failure(i, derham_mod.check_complex(c.B, x))
    return _sampled(c.samples, trial)


def _derham_morphism(c: SimpleNamespace) -> tuple[str, str]:
    def trial(i: int) -> str | None:
        x = _random_form(c.rng, c.chart, c.rng.randrange(0, c.n))
        eta = sampling.chart_field(c.rng, c.chart)
        return _failure(i, derham_mod.check_morphism(c.B, eta, x))
    return _sampled(c.samples, trial)


def _not_a_morphism(c: SimpleNamespace) -> tuple[str, str]:
    try:
        f, x, lhs, rhs = derham_mod.witness_not_a_morphism(c.chart, c.B)
    except AssertionError as exc:
        return "fail", str(exc)
    return "pass", f"f={f}, x={x.render()}: d(f.x)={lhs.render()} != f.d(x)={rhs.render()}"


_NEEDS_ZERO_B = ("computed", "witness requires zero gauge fields; skipped")


def _kernel_witness(c: SimpleNamespace) -> tuple[str, str]:
    if not c.zero_b:
        return _NEEDS_ZERO_B
    for k in range(c.n):
        x = derham_mod.FormElement(c.chart, k, {tuple(range(k)): c.chart.localization.one()})
        dx = derham_mod.d(c.B, x)
        if not dx.is_zero():
            return "fail", f"d at degree {k} gave {dx.render()}"
    return "pass", "d(1 (x) e_1..e_k) = 0 for all k < N"


def _image_witness(c: SimpleNamespace) -> tuple[str, str]:
    if not c.zero_b:
        return _NEEDS_ZERO_B
    loc = c.chart.localization
    t1 = loc.element(c.chart.variety.ring.var(c.chart.parameters[0]))
    for k in range(c.n):
        x = derham_mod.FormElement(c.chart, k, {tuple(range(1, k + 1)): t1})
        expected = derham_mod.FormElement(c.chart, k + 1, {tuple(range(k + 1)): loc.one()})
        dx = derham_mod.d(c.B, x)
        if not (dx == expected):
            return "fail", f"degree {k}: {dx.render()}"
    return "pass", "d(t_1 (x) e_2..e_{k+1}) = 1 (x) e_1..e_{k+1} for all k < N"


def _obstruction(c: SimpleNamespace) -> tuple[str, dict]:
    verdict = derham_mod.gaussian_obstruction(c.n, c.max_degree)
    control = derham_mod.gaussian_obstruction(c.n, max(1, c.max_degree), 0)
    return (_status(not verdict.feasible and control.feasible),
            {"gaussian": verdict.status, "maxDegree": c.max_degree,
             "control": control.status})


def _derham_gauge_consistency(c: SimpleNamespace) -> tuple[str, str]:
    """The wedge-combinatorics action must agree with the matrix gauge action."""
    chart, n, rng = c.chart, c.n, random.Random(c.seed + 2)
    modules = {k: exterior_power(n, k) for k in range(n + 1)}

    def trial(i: int) -> str | None:
        k = rng.randrange(0, n + 1)
        module = modules[k]
        gm = GaugeModule(chart, module, GaugeField.scalar(chart, list(c.B), module.dim))
        x = _random_form(rng, chart, k)
        eta = sampling.chart_field(rng, chart)
        index = {s: j for j, s in enumerate(itertools.combinations(range(n), k))}
        via_gauge = gm.act(eta, gm.element({index[s]: a for s, a in x.terms.items()}))
        via_forms = derham_mod.act_form(c.B, eta, x)
        expected = gm.element({index[s]: a for s, a in via_forms.terms.items()})
        return None if via_gauge == expected else f"sample {i} at degree {k}"
    return _sampled(max(10, c.samples // 5), trial)


_DERHAM_CHECKS = {
    "derham.complex": _derham_complex,
    "derham.morphism": _derham_morphism,
    "derham.not_a_morphism": _not_a_morphism,
    "derham.kernel_witness": _kernel_witness,
    "derham.image_witness": _image_witness,
    "derham.obstruction": _obstruction,
    "derham.gauge_consistency": _derham_gauge_consistency,
}


# -- circle checks -----------------------------------------------------------------

def _setup_circle(scn: dict) -> SimpleNamespace:
    alphas = [Fraction(a) for a in scn.get("alphas", ["0", "1", "1/2", "5/3"])]
    basis = [circle_mod.basis_v(a, k) for a in alphas for k in range(-2, 3)] + \
            [circle_mod.basis_u(a, k) for a in alphas for k in range(-2, 3)]
    return SimpleNamespace(alphas=alphas, grid=scn.get("grid", 3), seed=scn.get("seed", 0),
                           basis=basis)


def _witt(c: SimpleNamespace) -> tuple[str, str]:
    grid = c.grid
    # each e_k x, computed when first needed, so in the order of the
    # brackets, and forgotten when the check ends
    acted = [functools.lru_cache(maxsize=None)(lambda k, x=x: circle_mod.act_e(k, x))
             for x in c.basis]
    # m >= n only, so each e_n(e_m x) with n != m is built once: check
    # (m, n) negates both sides of check (n, m), built from the same
    # vectors.  It comes later and needs no new vector, so the first failing
    # pair and the first action to leave the index window are those of the
    # full grid.
    # lazily: a huge grid leaves the index window at its first pair
    for n, m in ((n, m) for n in range(-grid, grid + 1) for m in range(n, grid + 1)):
        bad = next((x for x, e_x in zip(c.basis, acted)
                    if not circle_mod.witt_bracket_check(n, m, x, e_x)), None)
        if bad is not None:
            return "fail", f"[e_{n}, e_{m}] fails on {bad} (alpha={bad.alpha})"
    return "pass", f"n,m in [-{grid},{grid}] on {len(c.basis)} vectors"


def _circle_casimir(c: SimpleNamespace) -> tuple[str, str]:
    rng = random.Random(c.seed)
    for a in c.alphas:
        extra = []
        for _ in range(5):
            combo = circle_mod.CircleElement(a, {})
            for _ in range(3):
                sym = rng.choice(("v", "u"))
                k = rng.randint(-3, 3)
                base = (circle_mod.basis_v if sym == "v" else circle_mod.basis_u)(a, k)
                combo = combo + base.scale(sampling.rational(rng))
            extra.append(combo)
        result = circle_mod.casimir_scalar_check(a, extra)
        if not result.ok:
            return "fail", result.witness
    return "pass", f"alphas {[str(a) for a in c.alphas]}"


def _annihilator_s(c: SimpleNamespace) -> tuple[str, str | None]:
    value = circle_mod.apply_word(circle_mod.annihilator_s(),
                                  circle_mod.basis_v(Fraction(0), 0))
    return ("pass", None) if value.is_zero() else ("fail", f"s.v_0 = {value}")


def _annihilator_q(c: SimpleNamespace) -> tuple[str, str]:
    for a in c.alphas:
        value = circle_mod.apply_word(circle_mod.annihilator_q(a), circle_mod.basis_v(a, 0))
        if not value.is_zero():
            return "fail", f"q.v_0 = {value} at alpha={a}"
    return "pass", f"alphas {[str(a) for a in c.alphas]}"


def _p_operator(c: SimpleNamespace) -> tuple[str, dict]:
    values, stable = {}, True
    for a in c.alphas:
        value = circle_mod.p_value_on_v0(a)
        values[str(a)] = str(value)
        if not (value == circle_mod.basis_v(a, 1).scale(2 * (a - 1))):
            stable = False
    return ("computed" if stable else "fail",
            {"p.v_0": values, "expected_form": "2*(alpha-1)*v[1]"})


def _circle_basis(c: SimpleNamespace) -> tuple[str, dict]:
    report = circle_mod.basis_leading_terms(max(1, c.grid))
    return (_status(report.independent and report.labels_match),
            {"leading": list(report.leading), "lowest": list(report.lowest),
             "independent": report.independent})


def _crosscheck(c: SimpleNamespace) -> tuple[str, str]:
    for a in c.alphas:
        cg = circle_mod.circle_gauge(a)
        for n, k, sym in itertools.product(range(-2, 3), range(-2, 3), ("v", "u")):
            if not circle_mod.gauge_crosscheck(n, k, sym, cg):
                return "fail", f"e_{n} on {sym}_{k} disagrees at alpha={a}"
    return "pass", "n,k in [-2,2], both symbols"


_CIRCLE_CHECKS = {
    "circle.witt": _witt,
    "circle.casimir": _circle_casimir,
    "circle.annihilator_s": _annihilator_s,
    "circle.annihilator_q": _annihilator_q,
    "circle.p_operator": _p_operator,
    "circle.basis": _circle_basis,
    "circle.crosscheck": _crosscheck,
}


# -- Casimir table -----------------------------------------------------------------

def central_character_table(N: int) -> list[dict]:
    """Central characters and P_k scalars of the exterior powers of QQ^N."""
    if N >= 2:
        check_term_budget(N, N)  # the largest symmetrized sum, k = N
    rows = []
    for k in range(N + 1):
        module = exterior_power(N, k)
        report = exceptional_check(module)
        rows.append({
            "module": module.name,
            "k": k,
            "omega": [_fraction_str(c) for c in report.omega],
            "P": {str(j): _fraction_str(c) for j, c in report.p_scalars.items()},
            "verdict": report.verdict,
        })
    return rows


def _fraction_str(c: Fraction | None) -> str:
    return "non-scalar" if c is None else str(c)


def _glrep_table(n: int) -> tuple[str, dict]:
    rows = central_character_table(n)
    ok = all(row["omega"][0] == str(row["k"]) for row in rows) and all(
        all(p == "0" for p in row["P"].values()) for row in rows)
    return _status(ok), {"N": n, "rows": rows}


# -- runner ------------------------------------------------------------------------

_TABLES: dict[str, tuple[Callable[[dict], Any], dict[str, Callable[[Any], tuple]]]] = {
    "variety": (lambda scn: build_variety(scn.get("variety", scn)), _VARIETY_CHECKS),
    "gauge": (_setup_gauge, _GAUGE_CHECKS),
    "derham": (_setup_derham, _DERHAM_CHECKS),
    "circle": (_setup_circle, _CIRCLE_CHECKS),
    "casimir_table": (lambda scn: scn["N"], {"glrep.table": _glrep_table}),
}

KINDS = tuple(_TABLES)


def run_scenario(scn: dict, seed: int | None = None, samples: int | None = None,
                 max_degree: int | None = None, timing: bool = True) -> dict:
    """Execute a validated scenario; returns the report object."""
    scn = dict(scn)
    if seed is not None:
        scn["seed"] = seed
    if samples is not None:
        scn["samples"] = samples
    if max_degree is not None:
        scn["maxDegree"] = max_degree
    # the ranges are checked here so that overrides and file values share one path
    for key, low in (("samples", 1), ("grid", 0), ("maxDegree", 0), ("N", 1)):
        if isinstance(scn.get(key), int) and scn[key] < low:
            raise ScenarioError(f"scenario.{key}: expected at least {low}, got {scn[key]}")

    setup, table = _TABLES[scn["kind"]]
    wanted = scn.get("checks")
    names = [name for name in table if wanted is None or name in wanted]
    started = time.perf_counter()
    context = setup(scn) if names else None
    setup_ms = round((time.perf_counter() - started) * 1000, 3)
    records: list[dict] = []
    for name in names:
        started = time.perf_counter()
        status, witness = table[name](context)
        rec = {"name": name, "status": status}
        if witness is not None:
            rec["witness"] = witness
        if timing:
            rec["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
        records.append(rec)

    records.sort(key=lambda r: r["name"])
    status = "fail" if any(r["status"] == "fail" for r in records) else "pass"
    report = {
        "schema": SCHEMA_VERSION,
        "name": scn.get("name", scn["kind"]),
        "kind": scn["kind"],
        "seed": scn.get("seed", 0),
        "checks": records,
        "status": status,
    }
    if timing:
        report["setup_ms"] = setup_ms
    return report


def bundled_scenario_names() -> list[str]:
    root = resources.files("gaugemods").joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    root = resources.files("gaugemods").joinpath("scenarios")
    data = json.loads(root.joinpath(name).read_text(encoding="utf-8"))
    return validate_scenario(data, f"bundled:{name}")
