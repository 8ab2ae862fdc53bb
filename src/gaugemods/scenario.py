"""Scenario files: schema validation, construction, and check execution.

A scenario is a JSON object with a ``kind`` of ``variety``, ``gauge``,
``derham``, ``circle``, or ``casimir_table``, plus the data that kind
needs.  Validation happens before any computation; failures raise
``ScenarioError`` with the offending path.  Check execution is
deterministic for a fixed scenario and seed, and every record carries a
status of ``pass``, ``fail``, or ``computed`` (values that are reported
but deliberately not adjudicated).  Runners are generators so that each
record can be timed individually.
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
from typing import Any, Callable, Iterator, Sequence

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

KINDS = ("variety", "gauge", "derham", "circle", "casimir_table")


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


def load_scenario(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load scenario {path}: {exc}") from exc
    return validate_scenario(data, str(path))


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
                    if not (_is_int(x) or isinstance(x, str)):
                        raise ScenarioError(
                            f"{path}.matrices[{i}][{r}][{c}]: expected an integer or a "
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
    try:
        return v.chart(selector)
    except (KeyError, IndexError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# -- check records -------------------------------------------------------------

def _record(name: str, status: str, witness=None) -> dict:
    rec = {"name": name, "status": status}
    if witness is not None:
        rec["witness"] = witness
    return rec


# -- variety checks -------------------------------------------------------------

def _run_variety(scn: dict) -> Iterator[dict]:
    spec = scn.get("variety", scn)
    v = build_variety(spec)
    want = _selector(scn)

    if want("variety.proper"):
        yield _record("variety.proper", "pass", f"rank {v.rank}, dimension {v.dim}")
    if want("variety.smooth"):
        ok = v.smoothness_check()
        yield _record("variety.smooth", "pass" if ok else "fail",
                      None if ok else "minor ideal is not the unit ideal")
    if want("variety.charts"):
        names = [c.name for c in v.charts]
        yield _record("variety.charts", "pass",
                      {"count": len(names), "minors": names})
    if want("variety.frames"):
        ok = all(c.frame.check() for c in v.charts)
        yield _record("variety.frames", "pass" if ok else "fail")


def _selector(scn: dict) -> Callable[[str], bool]:
    wanted = scn.get("checks")
    if wanted is None:
        return lambda name: True
    wanted_set = set(wanted)
    return lambda name: name in wanted_set


# -- gauge checks ----------------------------------------------------------------

def _run_gauge(scn: dict) -> Iterator[dict]:
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
    samples = scn.get("samples", 50)
    want = _selector(scn)

    if want("variety.smooth"):
        ok = v.smoothness_check()
        yield _record("variety.smooth", "pass" if ok else "fail")

    axioms = validate_gauge(gm)
    if want("gauge.validate"):
        bad = [a for a in axioms if not a.ok]
        if bad:
            yield _record("gauge.validate", "fail", {a.name: a.witness for a in bad})
        else:
            yield _record("gauge.validate", "pass", [a.name for a in axioms])

    valid_field = all(a.ok for a in axioms)
    rng = random.Random(seed)
    if want("gauge.av_compat"):
        yield _sampled_gauge_check(
            "gauge.av_compat", gm, rng, samples, valid_field,
            lambda gm, eta, mu, f, x: check_av_compat(gm, eta, f, x))
    if want("gauge.lie_action"):
        yield _sampled_gauge_check(
            "gauge.lie_action", gm, rng, samples, valid_field,
            lambda gm, eta, mu, f, x: check_lie_action(gm, eta, mu, x))
    if want("gauge.twist_roundtrip"):
        yield _twist_roundtrip(gm, random.Random(seed + 1), max(10, samples // 5))


def _random_gauge_element(rng: random.Random, gm: GaugeModule, terms: int = 2):
    loc = gm.chart.localization
    return gm.element({
        rng.randrange(gm.module.dim): sampling.localized(rng, loc)
        for _ in range(terms)
    })


def _sampled_gauge_check(name: str, gm: GaugeModule, rng: random.Random,
                         samples: int, valid_field: bool, runner) -> dict:
    if not valid_field:
        return _record(name, "fail", "gauge field failed validation; check skipped")
    loc = gm.chart.localization
    for i in range(samples):
        eta = sampling.chart_field(rng, gm.chart)
        mu = sampling.chart_field(rng, gm.chart)
        f = sampling.localized(rng, loc)
        x = _random_gauge_element(rng, gm)
        result = runner(gm, eta, mu, f, x)
        if not result.ok:
            return _record(name, "fail", f"sample {i}: {result.witness}")
    return _record(name, "pass", f"{samples} samples")


def _twist_roundtrip(gm: GaugeModule, rng: random.Random, samples: int) -> dict:
    loc = gm.chart.localization
    potential = sampling.polynomial(rng, gm.chart.variety.ring, 2, 2)
    coeffs = [gm.chart.frame.derive(p, loc.element(potential))
              for p in gm.chart.parameters]
    omega = OneForm(gm.chart, coeffs)
    twisted = gm.twist(omega)
    untwisted = twisted.twist(omega.negate())
    for i in range(samples):
        eta = sampling.chart_field(rng, gm.chart)
        x = _random_gauge_element(rng, gm)
        if not (untwisted.act(eta, x) == gm.act(eta, x)):
            return _record("gauge.twist_roundtrip", "fail", f"sample {i}")
        lie = check_lie_action(twisted, eta, sampling.chart_field(rng, gm.chart), x)
        if not lie.ok:
            return _record("gauge.twist_roundtrip", "fail",
                           f"twisted action fails Lie property at sample {i}: {lie.witness}")
    return _record("gauge.twist_roundtrip", "pass", f"{samples} samples")


# -- de Rham checks ----------------------------------------------------------------

def _random_form(rng: random.Random, chart: Chart, degree: int, terms: int = 2):
    n = len(chart.parameters)
    loc = chart.localization
    subsets = list(itertools.combinations(range(n), degree))
    return derham_mod.FormElement(chart, degree, {
        rng.choice(subsets): sampling.localized(rng, loc) for _ in range(terms)
    })


def _run_derham(scn: dict) -> Iterator[dict]:
    v = build_variety(scn["variety"], "scenario.variety")
    chart = select_chart(v, scn["chart"])
    B = build_scalar_gauge(scn, chart)
    n = len(chart.parameters)
    seed = scn.get("seed", 0)
    samples = scn.get("samples", 50)
    max_degree = scn.get("maxDegree", 4)
    want = _selector(scn)

    rng = random.Random(seed)
    if want("derham.complex"):
        status, witness = "pass", f"{samples} samples"
        if n < 2:
            witness = "no degrees below N-1; vacuous"
        else:
            for i in range(samples):
                x = _random_form(rng, chart, rng.randrange(0, n - 1))
                result = derham_mod.check_complex(B, x)
                if not result.ok:
                    status, witness = "fail", f"sample {i}: {result.witness}"
                    break
        yield _record("derham.complex", status, witness)

    if want("derham.morphism"):
        status, witness = "pass", f"{samples} samples"
        for i in range(samples):
            x = _random_form(rng, chart, rng.randrange(0, n))
            eta = sampling.chart_field(rng, chart)
            result = derham_mod.check_morphism(B, eta, x)
            if not result.ok:
                status, witness = "fail", f"sample {i}: {result.witness}"
                break
        yield _record("derham.morphism", status, witness)

    if want("derham.not_a_morphism"):
        try:
            f, x, lhs, rhs = derham_mod.witness_not_a_morphism(chart, B)
            yield _record(
                "derham.not_a_morphism", "pass",
                f"f={f}, x={x.render()}: d(f.x)={lhs.render()} != f.d(x)={rhs.render()}")
        except AssertionError as exc:
            yield _record("derham.not_a_morphism", "fail", str(exc))

    zero_b = all(b.is_zero() for b in B)
    if want("derham.kernel_witness"):
        status, witness = "pass", "d(1 (x) e_1..e_k) = 0 for all k < N"
        if not zero_b:
            status, witness = "computed", "witness requires zero gauge fields; skipped"
        else:
            loc = chart.localization
            for k in range(0, n):
                x = derham_mod.FormElement(chart, k, {tuple(range(k)): loc.one()})
                dx = derham_mod.d(B, x)
                if not dx.is_zero():
                    status, witness = "fail", f"d at degree {k} gave {dx.render()}"
                    break
        yield _record("derham.kernel_witness", status, witness)

    if want("derham.image_witness"):
        status = "pass"
        witness = "d(t_1 (x) e_2..e_{k+1}) = 1 (x) e_1..e_{k+1} for all k < N"
        if not zero_b:
            status, witness = "computed", "witness requires zero gauge fields; skipped"
        else:
            loc = chart.localization
            t1 = loc.element(v.ring.var(chart.parameters[0]))
            for k in range(0, n):
                x = derham_mod.FormElement(chart, k, {tuple(range(1, k + 1)): t1})
                expected = derham_mod.FormElement(
                    chart, k + 1, {tuple(range(k + 1)): loc.one()})
                dx = derham_mod.d(B, x)
                if not (dx == expected):
                    status, witness = "fail", f"degree {k}: {dx.render()}"
                    break
        yield _record("derham.image_witness", status, witness)

    if want("derham.obstruction"):
        verdict = derham_mod.gaussian_obstruction(n, max_degree)
        control = derham_mod.gaussian_obstruction(n, max(1, max_degree), 0)
        ok = (not verdict.feasible) and control.feasible
        yield _record(
            "derham.obstruction", "pass" if ok else "fail",
            {"gaussian": verdict.status, "maxDegree": max_degree,
             "control": control.status})

    if want("derham.gauge_consistency"):
        yield _derham_gauge_consistency(chart, B, random.Random(seed + 2),
                                        max(10, samples // 5))


def _derham_gauge_consistency(chart: Chart, B: Sequence[LocalizedElement],
                              rng: random.Random, samples: int) -> dict:
    """The wedge-combinatorics action must agree with the matrix gauge action."""
    n = len(chart.parameters)
    modules = {k: exterior_power(n, k) for k in range(n + 1)}
    for i in range(samples):
        k = rng.randrange(0, n + 1)
        module = modules[k]
        field = GaugeField.scalar(chart, list(B), module.dim)
        gm = GaugeModule(chart, module, field)
        x = _random_form(rng, chart, k)
        eta = sampling.chart_field(rng, chart)
        subsets = list(itertools.combinations(range(n), k))
        index = {s: c for c, s in enumerate(subsets)}
        gx = gm.element({index[s]: c for s, c in x.terms.items()})
        via_gauge = gm.act(eta, gx)
        via_forms = derham_mod.act_form(B, eta, x)
        expected = gm.element({index[s]: c for s, c in via_forms.terms.items()})
        if not (via_gauge == expected):
            return _record("derham.gauge_consistency", "fail",
                           f"sample {i} at degree {k}")
    return _record("derham.gauge_consistency", "pass", f"{samples} samples")


# -- circle checks -----------------------------------------------------------------

def _run_circle(scn: dict) -> Iterator[dict]:
    alphas = [Fraction(a) for a in scn.get("alphas", ["0", "1", "1/2", "5/3"])]
    grid = scn.get("grid", 3)
    seed = scn.get("seed", 0)
    want = _selector(scn)

    basis_grid = [circle_mod.basis_v(a, k) for a in alphas for k in range(-2, 3)] + \
                 [circle_mod.basis_u(a, k) for a in alphas for k in range(-2, 3)]

    if want("circle.witt"):
        status, witness = "pass", f"n,m in [-{grid},{grid}] on {len(basis_grid)} vectors"
        # each e_k x, computed when first needed, so in the order of the
        # brackets, and forgotten when the check ends
        acted = [functools.lru_cache(maxsize=None)(lambda k, x=x: circle_mod.act_e(k, x))
                 for x in basis_grid]
        # lazily: a huge grid leaves the index window at its first pair
        for n, m in ((n, m) for n in range(-grid, grid + 1) for m in range(-grid, grid + 1)):
            bad = next((x for x, e_x in zip(basis_grid, acted)
                        if not circle_mod.witt_bracket_check(n, m, x, e_x)), None)
            if bad is not None:
                status = "fail"
                witness = f"[e_{n}, e_{m}] fails on {bad} (alpha={bad.alpha})"
                break
        del acted
        yield _record("circle.witt", status, witness)

    if want("circle.casimir"):
        rng = random.Random(seed)
        status, witness = "pass", f"alphas {[str(a) for a in alphas]}"
        for a in alphas:
            extra = []
            for _ in range(5):
                combo = circle_mod.CircleElement(a, {})
                for _ in range(3):
                    sym = rng.choice(("v", "u"))
                    k = rng.randint(-3, 3)
                    base = (circle_mod.basis_v if sym == "v" else circle_mod.basis_u)(a, k)
                    combo = combo + base.scale(sampling.rational(rng))
                extra.append(combo)
            result = circle_mod.casimir_scalar_check(a, range(-3, 4), extra)
            if not result.ok:
                status, witness = "fail", result.witness
                break
        yield _record("circle.casimir", status, witness)

    if want("circle.annihilator_s"):
        value = circle_mod.apply_word(circle_mod.annihilator_s(),
                                      circle_mod.basis_v(Fraction(0), 0))
        ok = value.is_zero()
        yield _record("circle.annihilator_s", "pass" if ok else "fail",
                      None if ok else f"s.v_0 = {value}")

    if want("circle.annihilator_q"):
        status, witness = "pass", f"alphas {[str(a) for a in alphas]}"
        for a in alphas:
            value = circle_mod.apply_word(circle_mod.annihilator_q(a),
                                          circle_mod.basis_v(a, 0))
            if not value.is_zero():
                status, witness = "fail", f"q.v_0 = {value} at alpha={a}"
                break
        yield _record("circle.annihilator_q", status, witness)

    if want("circle.p_operator"):
        values = {}
        stable = True
        for a in alphas:
            value = circle_mod.p_value_on_v0(a)
            expected = circle_mod.basis_v(a, 1).scale(2 * (a - 1))
            values[str(a)] = str(value)
            if not (value == expected):
                stable = False
        yield _record(
            "circle.p_operator", "computed" if stable else "fail",
            {"p.v_0": values, "expected_form": "2*(alpha-1)*v[1]"})

    if want("circle.basis"):
        report = circle_mod.basis_leading_terms(max(1, grid))
        ok = report.independent and report.labels_match
        yield _record("circle.basis", "pass" if ok else "fail",
                      {"leading": list(report.leading),
                       "lowest": list(report.lowest),
                       "independent": report.independent})

    if want("circle.crosscheck"):
        status, witness = "pass", "n,k in [-2,2], both symbols"
        for a in alphas:
            cg = circle_mod.circle_gauge(a)
            for n, k, sym in itertools.product(range(-2, 3), range(-2, 3), ("v", "u")):
                if not circle_mod.gauge_crosscheck(n, k, sym, a, cg):
                    status = "fail"
                    witness = f"e_{n} on {sym}_{k} disagrees at alpha={a}"
                    break
            if status == "fail":
                break
        yield _record("circle.crosscheck", status, witness)


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


def _run_casimir_table(scn: dict) -> Iterator[dict]:
    n = scn["N"]
    rows = central_character_table(n)
    ok = all(row["omega"][0] == str(row["k"]) for row in rows) and all(
        all(p == "0" for p in row["P"].values()) for row in rows)
    yield _record("glrep.table", "pass" if ok else "fail", {"N": n, "rows": rows})


# -- runner ------------------------------------------------------------------------

_RUNNERS: dict[str, Callable[[dict], Iterator[dict]]] = {
    "variety": _run_variety,
    "gauge": _run_gauge,
    "derham": _run_derham,
    "circle": _run_circle,
    "casimir_table": _run_casimir_table,
}


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

    records: list[dict] = []
    if scn.get("checks") != []:
        gen = _RUNNERS[scn["kind"]](scn)
        while True:
            started = time.perf_counter()
            try:
                rec = next(gen)
            except StopIteration:
                break
            if timing:
                rec["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
            records.append(rec)

    records.sort(key=lambda r: r["name"])
    status = "fail" if any(r["status"] == "fail" for r in records) else "pass"
    return {
        "schema": SCHEMA_VERSION,
        "name": scn.get("name", scn["kind"]),
        "kind": scn["kind"],
        "seed": scn.get("seed", 0),
        "checks": records,
        "status": status,
    }


def bundled_scenario_names() -> list[str]:
    root = resources.files("gaugemods").joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    root = resources.files("gaugemods").joinpath("scenarios")
    data = json.loads(root.joinpath(name).read_text(encoding="utf-8"))
    return validate_scenario(data, f"bundled:{name}")
