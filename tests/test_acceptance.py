"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line with its elapsed time (run pytest
with ``-s`` or check captured output); runtime ceilings are asserted.
All equality checks are exact rational comparisons; the only
degree-bounded statements are the top-form obstruction certificates,
which are labelled as such by construction.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gaugemods import sampling
from gaugemods.circle import (
    basis_u,
    basis_v,
    circle_gauge,
    gauge_crosscheck,
    p_value_on_v0,
    annihilator_q,
    annihilator_s,
    apply_word,
    sl2_casimir,
    witt_bracket_check,
)
from gaugemods.cli import main
from gaugemods.derham import FormElement, check_complex, check_morphism, d, gaussian_obstruction
from gaugemods.gauge import GaugeField, GaugeModule, check_av_compat, check_lie_action
from gaugemods.glrep import (
    casimir,
    evaluate,
    exterior_power,
    hat_omega,
    scalar_of,
    stabilizer_sum,
    symmetric_square,
)
from gaugemods.groebner import Ideal, buchberger, is_member, is_unit_ideal
from gaugemods.polyring import PolyRing
from gaugemods.variety import bracket, sphere_variety, to_chart

from dense_matrices import dense, is_zero_matrix, mat_commutator

# the recorded report of ``run --bundled --no-timing``; read here, never written
BUNDLED_REPORT = Path(__file__).parents[1] / "perfbench" / "references" / "bundled_report.json"


class _Timer:
    def __init__(self, criterion: int, limit: float, description: str):
        self.criterion = criterion
        self.limit = limit
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion} {status}: {self.description} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its {self.limit}s budget: {elapsed:.2f}s")
        return False


def test_criterion_1_central_character_table(capsys):
    start = time.perf_counter()
    code = main(["casimir", "table", "2", "--no-timing"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: casimir table 2 reproduces the "
              f"central-character table ({elapsed:.2f}s, limit 1s)")
    assert code == 0
    (table,) = json.loads(out)["checks"]
    rows = table["witness"]["rows"]
    assert [r["omega"] for r in rows] == [["0", "0"], ["1", "2"], ["2", "2"]]
    assert all(r["P"]["2"] == "0" for r in rows)
    assert elapsed < 1.0


def test_criterion_2_trace_casimir_scalars():
    with _Timer(2, 1.0, "Omega_1 acts by k on every exterior power, N <= 4"):
        for n in range(1, 5):
            omega1 = casimir(1, n)
            for k in range(n + 1):
                m = exterior_power(n, k)
                assert scalar_of(evaluate(omega1, m)) == k


def test_criterion_3_symmetrized_sums_are_central():
    with _Timer(3, 30.0, "symmetrized central sums commute with every rho(E_ab)"):
        plans = {2: (2, 3, 4), 3: (2, 3)}
        for n, ks in plans.items():
            modules = [exterior_power(n, k) for k in range(n + 1)]
            modules.append(symmetric_square(n))
            for k in ks:
                hat = hat_omega(k, n)
                for m in modules:
                    mat = dense(evaluate(hat, m))
                    for rho in m.rho.values():
                        assert is_zero_matrix(mat_commutator(mat, dense(rho)))


def test_criterion_4_stabilizer_sums():
    from math import factorial
    with _Timer(4, 5.0, "brute-force stabilizer sums match (N+k-1)!/(N-1)!"):
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert stabilizer_sum(n, k) == factorial(n + k - 1) // factorial(n - 1)


def test_criterion_5_sphere_pipeline():
    with _Timer(5, 5.0, "sphere charts, smoothness, frame, fields, bracket"):
        v = sphere_variety()
        assert [c.name for c in v.charts] == ["x", "y", "z"]
        assert v.smoothness_check()
        chart = v.chart("z")
        loc = chart.localization
        x, y, z = (v.ring.var(n) for n in "xyz")
        assert chart.frame.taus["x"].corrections["z"] == loc.element(-x, 1)
        assert v.is_vector_field([z, v.ring.zero(), -x])
        a = v.vector_field([z, v.ring.zero(), -x])
        b = v.vector_field([v.ring.zero(), z, -y])
        assert [q.rep for q in bracket(a, b).coeffs] == [y, -x, v.ring.zero()]


def _gauge_configurations():
    from gaugemods.variety import affine_space
    a1 = affine_space(["x"])
    a2 = affine_space(["x", "y"])
    sph = sphere_variety()
    for variety, chart_sel, nonzero_b in (
        (a1, 0, ["x^2"]),
        (a2, 0, ["y", "x"]),
        (sph, "z", None),  # gradient potential below
    ):
        chart = variety.chart(chart_sel) if isinstance(chart_sel, str) \
            else variety.charts[chart_sel]
        loc = chart.localization
        n = len(chart.parameters)
        zero = [loc.zero()] * n
        if nonzero_b is None:
            from gaugemods.parser import parse_poly
            g = loc.element(parse_poly("x*y", variety.ring))
            nz = [chart.frame.derive(p, g) for p in chart.parameters]
        else:
            from gaugemods.parser import parse_poly
            nz = [loc.element(parse_poly(e, variety.ring)) for e in nonzero_b]
        yield variety, chart, zero
        yield variety, chart, nz


def test_criterion_6_gauge_properties():
    with _Timer(6, 60.0, "Lie action and AV compatibility on 100 samples per config"):
        for variety, chart, B in _gauge_configurations():
            n = len(chart.parameters)
            module = exterior_power(n, 1)
            gm = GaugeModule(chart, module, GaugeField.scalar(chart, B, module.dim))
            assert all(r.ok for r in gm.field.validate(module))
            rng = random.Random(2024)
            loc = chart.localization
            for _ in range(100):
                eta = sampling.chart_field(rng, chart)
                mu = sampling.chart_field(rng, chart)
                f = sampling.localized(rng, loc)
                x = gm.element({i: sampling.localized(rng, loc)
                                for i in range(module.dim)})
                assert check_lie_action(gm, eta, mu, x).ok
                assert check_av_compat(gm, eta, f, x).ok


def test_criterion_7_derham():
    from gaugemods.variety import affine_space
    with _Timer(7, 60.0, "chain complex, morphisms, witnesses, obstruction"):
        configs = [affine_space(["x"]), affine_space(["x", "y"]),
                   affine_space(["x", "y", "z"]), sphere_variety()]
        for variety in configs:
            chart = variety.chart("z") if variety.generators else variety.charts[0]
            loc = chart.localization
            n = len(chart.parameters)
            B = [loc.zero()] * n
            rng = random.Random(77)
            subsets_by_deg = {k: list(itertools.combinations(range(n), k))
                              for k in range(n + 1)}
            for i in range(50):
                deg = rng.randrange(0, n)
                x = FormElement(chart, deg, {
                    rng.choice(subsets_by_deg[deg]): sampling.localized(rng, loc)})
                if deg <= n - 2:
                    assert check_complex(B, x).ok
                eta = sampling.chart_field(rng, chart)
                assert check_morphism(B, eta, x).ok

        # the two explicit evaluations, for N <= 3
        for n in (1, 2, 3):
            variety = affine_space([f"x{i+1}" for i in range(n)])
            chart = variety.charts[0]
            loc = chart.localization
            B = [loc.zero()] * n
            t1 = loc.element(variety.ring.var("x1"))
            for k in range(n):
                assert d(B, FormElement(chart, k, {tuple(range(k)): loc.one()})).is_zero()
                shifted = FormElement(chart, k, {tuple(range(1, k + 1)): t1})
                filled = FormElement(chart, k + 1, {tuple(range(k + 1)): loc.one()})
                assert d(B, shifted) == filled

        assert gaussian_obstruction(1, 6).status == "INFEASIBLE_UP_TO_D"
        assert gaussian_obstruction(2, 4).status == "INFEASIBLE_UP_TO_D"
        assert gaussian_obstruction(1, 1, 0).feasible


def test_criterion_8_circle():
    with _Timer(8, 10.0, "Witt grid, Casimir scalar, annihilators, crosscheck"):
        alphas = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(5, 3)]
        grid = [(sym, k) for sym in ("v", "u") for k in range(-2, 3)]

        def vec(a, sym, k):
            return basis_v(a, k) if sym == "v" else basis_u(a, k)

        for a in alphas:
            gamma = a * (a - 1)
            for n, m in itertools.product(range(-3, 4), repeat=2):
                for sym, k in grid:
                    assert witt_bracket_check(n, m, vec(a, sym, k))
            for sym, k in grid:
                x = vec(a, sym, k)
                assert apply_word(sl2_casimir(), x) == x.scale(gamma)
            assert apply_word(annihilator_q(a), basis_v(a, 0)).is_zero()
            assert p_value_on_v0(a) == basis_v(a, 1).scale(2 * (a - 1))
        assert apply_word(annihilator_s(), basis_v(Fraction(0), 0)).is_zero()

        for a in (Fraction(0), Fraction(1, 2)):
            cg = circle_gauge(a)
            for n, k in itertools.product(range(-2, 3), repeat=2):
                for sym in ("v", "u"):
                    assert gauge_crosscheck(n, k, sym, cg)

        # the p operator value is reported with status "computed", never asserted zero
        report = main(["circle", "verify", "--alpha", "1/2", "--grid", "1", "--no-timing"])
        assert report == 0


def test_criterion_8b_circle_p_status(capsys):
    main(["circle", "verify", "--alpha", "1/2", "--grid", "1", "--no-timing"])
    out = capsys.readouterr().out
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["circle.p_operator"] == "computed"


def test_criterion_9_groebner_self_verification():
    with _Timer(9, 5.0, "S-polynomial closure and membership verdicts"):
        ring = PolyRing(("x", "y", "z"))
        x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
        sphere_gen = x**2 + y**2 + z**2 - 1
        ts_ring = PolyRing(("t", "s"))
        t, s = ts_ring.var("t"), ts_ring.var("s")
        bases = [
            buchberger(Ideal(ring, (sphere_gen,))),
            buchberger(Ideal(ts_ring, (t * s - 1,))),
            buchberger(Ideal(ring, (sphere_gen, x**2, y**2, z**2))),
            buchberger(Ideal(ring, (x * y - z**2, x**2 - y * z, y**2 - x * z))),
        ]
        for gb in bases:
            assert gb.spolys_reduce_to_zero()
            assert all(gb.reduce(g).is_zero() for g in gb.generators)

        assert is_member(t * s - 1, Ideal(ts_ring, (t * s - 1,)))
        assert not is_member(t, Ideal(ts_ring, (t * s - 1,)))
        assert is_member(z * sphere_gen, Ideal(ring, (sphere_gen,)))
        two = PolyRing(("x", "y"))
        assert is_unit_ideal(Ideal(two, (two.var("x"), 1 - two.var("x"))))
        assert is_unit_ideal(Ideal(ring, (sphere_gen, x**2, y**2, z**2)))
        assert not is_unit_ideal(Ideal(two, (two.var("x") ** 2, two.var("y") ** 2)))


def test_criterion_10_determinism(capsys):
    with _Timer(10, 120.0,
                "bundled suite is byte-identical across reruns and to the recorded report"):
        args = ["run", "--bundled", "--no-timing"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.encode("utf-8") == BUNDLED_REPORT.read_bytes(), \
            "the bundled report differs from the recorded one"
        report = json.loads(out1)
        assert report["schema"] == "1" and report["status"] == "pass"
