"""Gauge fields and the vector-field action on A_(h) (x) U."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods import affine_space, circle_gauge, sampling, sphere_variety
from gaugemods.gauge import (
    GaugeField,
    GaugeModule,
    OneForm,
    check_av_compat,
    check_lie_action,
)
from gaugemods.glrep import exterior_power, trivial_module
from gaugemods.linalg import add_term


def _scalar_field(chart, exprs, dim):
    loc = chart.localization
    return GaugeField.scalar(chart, [loc.element(e) for e in exprs], dim)


@pytest.fixture()
def a1_natural(affine1):
    chart = affine1.charts[0]
    module = exterior_power(1, 1)
    return GaugeModule(chart, module, GaugeField.zero(chart, 1))


class TestValidate:
    def test_zero_field_passes(self, affine2):
        chart = affine2.charts[0]
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        assert all(r.ok for r in gm.field.validate(gm.module))

    def test_symmetric_scalar_passes(self, affine2):
        chart = affine2.charts[0]
        ring = affine2.ring
        field = _scalar_field(chart, [ring.var("y"), ring.var("x")], 2)
        assert all(r.ok for r in field.validate(exterior_power(2, 1)))

    def test_antisymmetric_scalar_fails_flatness(self, affine2):
        chart = affine2.charts[0]
        ring = affine2.ring
        field = _scalar_field(chart, [ring.var("y"), -ring.var("x")], 2)
        results = {r.name: r for r in field.validate(exterior_power(2, 1))}
        r3 = results["axiom3_flatness"]
        assert not r3.ok and "(1,2)" in r3.witness

    def test_noncommuting_matrix_fails_axiom2(self, affine1):
        chart = affine1.charts[0]
        loc = chart.localization
        one, zero = loc.one(), loc.zero()
        field = GaugeField(chart, [((zero, one), (zero, zero))])
        # a gl_1 module where rho(E_11) is NOT scalar
        from gaugemods.glrep import custom_module
        m = custom_module(1, {(1, 1): [[1, 0], [0, 2]]})
        results = {r.name: r for r in field.validate(m)}
        assert not results["axiom2_glN_commutation"].ok
        # B_1 rho - rho B_1 at (1,2) is 1*2 - 1*1, the first nonzero entry
        assert results["axiom2_glN_commutation"].witness == "[B_1, rho(E_11)] entry (1,2) = 1"

    def test_matrix_flatness_with_commutator(self, affine2):
        # B_1 = [[0, x],[0, 0]], B_2 = [[0, y],[0, 0]]: d_1 B_2 - d_2 B_1 = 0
        # and [B_1, B_2] = 0, so flatness holds even though B is not scalar
        chart = affine2.charts[0]
        loc = chart.localization
        ring = affine2.ring
        zero = loc.zero()
        b1 = ((zero, loc.element(ring.var("x"))), (zero, zero))
        b2 = ((zero, loc.element(ring.var("y"))), (zero, zero))
        field = GaugeField(chart, [b1, b2])
        results = {r.name: r for r in field.validate(trivial_module_2x2())}
        assert results["axiom3_flatness"].ok


def trivial_module_2x2():
    from gaugemods.glrep import custom_module
    zero = [[0, 0], [0, 0]]
    return custom_module(2, {(i, j): zero for i in (1, 2) for j in (1, 2)},
                         name="zero action")


class TestAct:
    def test_trivial_rep_constant(self, affine1):
        chart = affine1.charts[0]
        gm = GaugeModule(chart, trivial_module(1), GaugeField.zero(chart, 1))
        loc = chart.localization
        x = loc.element(affine1.ring.var("x"))
        assert gm.act([x], gm.element({0: loc.one()})).is_zero()

    def test_euler_field_on_natural(self, a1_natural):
        # act(x d/dx, 1 (x) u) = 1 (x) u from the coefficient-derivative term
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        got = gm.act([x], gm.element({0: loc.one()}))
        assert got == gm.element({0: loc.one()})

    def test_a_action(self, a1_natural):
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        elem = gm.element({0: loc.one()})
        assert elem.scale(loc.one()) == elem
        assert elem.scale(x) == gm.element({0: x})

    def test_a_action_sphere_relation(self, sphere):
        chart = sphere.chart("z")
        loc = chart.localization
        ring = sphere.ring
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        elem = gm.element({0: loc.one()})
        lhs = elem.scale(loc.element(ring.var("x") ** 2 + ring.var("y") ** 2))
        rhs = elem.scale(loc.element(1 - ring.var("z") ** 2))
        assert lhs == rhs


class TestAvCompat:
    def test_f_equal_one(self, a1_natural):
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        elem = gm.element({0: loc.one()})
        assert check_av_compat(gm, [x], loc.one(), elem).ok

    def test_euler_example_both_sides(self, a1_natural):
        # both sides evaluate to 2x (x) u
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        elem = gm.element({0: loc.one()})
        lhs = gm.act([x], elem.scale(x))
        assert lhs == gm.element({0: x * 2})
        assert check_av_compat(gm, [x], x, elem).ok

    def test_sphere_samples(self, sphere):
        chart = sphere.chart("z")
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        rng = random.Random(23)
        for _ in range(30):
            eta = sampling.chart_field(rng, chart)
            f = sampling.localized(rng, chart.localization)
            x = gm.element({0: sampling.localized(rng, chart.localization),
                            1: sampling.localized(rng, chart.localization)})
            assert check_av_compat(gm, eta, f, x).ok


class TestLieAction:
    def test_equal_fields_trivial(self, a1_natural):
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        elem = gm.element({0: loc.one()})
        assert check_lie_action(gm, [x], [x], elem).ok

    def test_sphere_frame_fields(self, sphere):
        # fields h*tau_i have chart coefficients (h, 0) and (0, h)
        chart = sphere.chart("z")
        loc = chart.localization
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        h = loc.element(chart.h)
        zero = loc.zero()
        eta, mu = [h, zero], [zero, h]
        for sym in range(2):
            x = gm.element({sym: loc.element(sphere.ring.var("x"))})
            assert check_lie_action(gm, eta, mu, x).ok

    def test_random_samples_with_nonzero_b(self, affine2):
        chart = affine2.charts[0]
        ring = affine2.ring
        field = _scalar_field(chart, [ring.var("y"), ring.var("x")], 2)
        gm = GaugeModule(chart, exterior_power(2, 1), field)
        rng = random.Random(31)
        for _ in range(30):
            eta = sampling.chart_field(rng, chart)
            mu = sampling.chart_field(rng, chart)
            x = gm.element({0: sampling.localized(rng, chart.localization),
                            1: sampling.localized(rng, chart.localization)})
            assert check_lie_action(gm, eta, mu, x).ok


class TestTwist:
    def test_zero_form_no_change(self, a1_natural):
        gm = a1_natural
        loc = gm.chart.localization
        omega = OneForm(gm.chart, [loc.zero()])
        twisted = gm.twist(omega)
        x = loc.element(gm.chart.variety.ring.var("x"))
        elem = gm.element({0: loc.one()})
        assert twisted.act([x], elem) == gm.act([x], elem)

    def test_exact_form_shift(self, a1_natural):
        # omega = dG with G = t: twisted action adds f * G' * x
        gm = a1_natural
        loc = gm.chart.localization
        x = loc.element(gm.chart.variety.ring.var("x"))
        omega = OneForm(gm.chart, [loc.one()])
        twisted = gm.twist(omega)
        elem = gm.element({0: loc.one()})
        expected = gm.act([x], elem) + elem.scale(x * loc.one())
        assert twisted.act([x], elem) == expected

    def test_nonexact_closed_form_on_circle(self, circle):
        # omega = dt/t: closed but not exact; the twisted action is still a Lie action
        chart = circle.chart("t")
        loc = chart.localization
        gm = GaugeModule(chart, exterior_power(1, 1), GaugeField.zero(chart, 1))
        omega = OneForm(chart, [loc.element(circle.ring.var("s"))])
        twisted = gm.twist(omega)
        rng = random.Random(37)
        for _ in range(20):
            eta = sampling.chart_field(rng, chart)
            mu = sampling.chart_field(rng, chart)
            x = gm.element({0: sampling.localized(rng, loc)})
            assert check_lie_action(twisted, eta, mu, x).ok
            assert check_av_compat(twisted, eta, sampling.localized(rng, loc), x).ok

    def test_non_closed_form_rejected(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        ring = affine2.ring
        with pytest.raises(ValueError):
            OneForm(chart, [loc.element(ring.var("y")), loc.element(-ring.var("x"))])

    def test_twist_untwist_restores(self, sphere):
        chart = sphere.chart("z")
        loc = chart.localization
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        potential = loc.element(sphere.ring.var("x") * sphere.ring.var("y"))
        omega = OneForm(chart, [chart.frame.derive(p, potential)
                                for p in chart.parameters])
        roundtrip = gm.twist(omega).twist(omega.negate())
        rng = random.Random(41)
        for _ in range(10):
            eta = sampling.chart_field(rng, chart)
            x = gm.element({0: sampling.localized(rng, loc)})
            assert roundtrip.act(eta, x) == gm.act(eta, x)


def test_gauge_element_drops_zero_coefficients(affine1):
    chart = affine1.charts[0]
    loc = chart.localization
    gm = GaugeModule(chart, exterior_power(1, 1), GaugeField.zero(chart, 1))
    elem = gm.element({0: loc.zero()})
    assert elem.is_zero() and elem.terms == {}


@pytest.mark.parametrize("index", [5, 2, -1])
def test_basis_index_outside_the_module_is_rejected(affine2, index):
    chart = affine2.charts[0]
    loc = chart.localization
    gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
    message = f"basis index {index} is out of range for a module of dimension 2"
    with pytest.raises(ValueError, match=message):
        gm.element({index: loc.one()})
    with pytest.raises(ValueError, match=message):
        gm.element({index: loc.one()})
    assert gm.element({1: loc.one()}).terms.keys() == {1}


def reference_act(gm, eta, x):
    """The action term by term, as the module docstring's sum reads: g is
    multiplied by f_i once per entry of B_i and by tau_p(f_i) once per
    (p, i)."""
    frame, params = gm.chart.frame, gm.chart.parameters
    columns, rho_columns = gm.field.columns, gm.rho_columns
    out = {}
    tau_eta = [[frame.derive(p, fi) for p in params] for fi in eta]
    for u, g in x.terms.items():
        for i, fi in enumerate(eta):
            if not fi.is_zero():
                dg = frame.derive(params[i], g)
                if not dg.is_zero():
                    add_term(out, u, fi * dg)
                if columns[i][u]:
                    fg = fi * g
                    for r, b in columns[i][u]:
                        add_term(out, r, fg * b)
            for p, df in enumerate(tau_eta[i]):
                column = rho_columns[p][i][u]
                if column and not df.is_zero():
                    gdf = g * df
                    for r, c in column.items():
                        add_term(out, r, gdf * c)
    return gm.element(out)


CIRCLE_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(5, 3))
PLAIN_ORACLES = ("sphere-z flat", "sphere-z grad", "affine1", "affine2") + tuple(
    f"circle {alpha}" for alpha in CIRCLE_ALPHAS)
ORACLE_NAMES = sorted(name + twist for name in PLAIN_ORACLES for twist in ("", " twisted"))


@cache
def oracle_twists():
    """The modules the matrix form is checked on, each with the closed
    1-form that twists it: dG for a potential G, or dt/t on the circle.
    Built on first use, so that collecting the tests builds no variety."""
    sphere = sphere_variety()
    sz = sphere.chart("z")
    x, y = sphere.ring.var("x"), sphere.ring.var("y")
    grad = [sz.frame.derive(p, sz.localization.element(x * y)) for p in sz.parameters]
    line, plane = affine_space(["x"]), affine_space(["x", "y"])
    a1, a2 = line.charts[0], plane.charts[0]
    px, py = plane.ring.var("x"), plane.ring.var("y")
    plain = {
        "sphere-z flat": (GaugeModule(sz, exterior_power(2, 1), GaugeField.zero(sz, 2)),
                          x * y * y),
        "sphere-z grad": (GaugeModule(sz, exterior_power(2, 1),
                                      GaugeField.scalar(sz, grad, 2)), x - y),
        "affine1": (GaugeModule(a1, exterior_power(1, 1),
                                _scalar_field(a1, [line.ring.var("x") ** 2], 1)),
                    line.ring.var("x") ** 3),
        "affine2": (GaugeModule(a2, exterior_power(2, 1), _scalar_field(a2, [py, px], 2)),
                    px * py + py),
    }
    twists = {}
    for name, (gm, potential) in plain.items():
        loc = gm.loc
        twists[name] = gm, OneForm(gm.chart, [gm.chart.frame.derive(p, loc.element(potential))
                                              for p in gm.chart.parameters])
    for alpha in CIRCLE_ALPHAS:
        gm = circle_gauge(alpha).space
        s = gm.chart.variety.ring.var("s")
        twists[f"circle {alpha}"] = gm, OneForm(gm.chart, [gm.loc.element(s)])
    return twists


@cache
def oracle_modules():
    """Each oracle module, plain and twisted."""
    modules = {}
    for name, (gm, omega) in oracle_twists().items():
        modules[name] = gm
        modules[name + " twisted"] = gm.twist(omega)
    return modules


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORACLE_NAMES), st.integers(0, 2**32))
def test_act_is_the_term_by_term_action(name, seed):
    gm = oracle_modules()[name]
    rng = random.Random(seed)
    eta = sampling.chart_field(rng, gm.chart)
    mu = sampling.chart_field(rng, gm.chart)
    x = gm.element({u: sampling.localized(rng, gm.loc) for u in range(gm.module.dim)})
    assert gm.act(eta, x) == reference_act(gm, eta, x)
    assert gm.act(eta, gm.act(mu, x)) == reference_act(gm, eta, reference_act(gm, mu, x))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_NAMES), st.integers(0, 2**32))
def test_a_kept_connection_acts_as_a_new_one(name, seed):
    """Fields acted by again and again, in the order of a Lie check and past
    the number of connections kept, act as the reference does."""
    gm = oracle_modules()[name]
    rng = random.Random(seed)
    fields = [sampling.chart_field(rng, gm.chart) for _ in range(6)]
    x = gm.element({u: sampling.localized(rng, gm.loc) for u in range(gm.module.dim)})
    for k in (0, 1, 0, 1, 2, 3, 4, 5, 0, 5, 1):
        assert gm.act(fields[k], x) == reference_act(gm, fields[k], x)


@pytest.mark.parametrize("name", ["sphere-z grad twisted", "affine2", "circle 1/2 twisted"])
def test_act_by_a_changed_list_is_the_action_of_its_new_coefficients(name):
    """One list acted by twice, with a coefficient replaced in between: the
    second action is the new field's, not the kept connection of the old."""
    gm = oracle_modules()[name]
    rng = random.Random(7)
    eta = sampling.chart_field(rng, gm.chart)
    x = gm.element({u: sampling.localized(rng, gm.loc) for u in range(gm.module.dim)})
    old = gm.act(eta, x)
    eta[0] = eta[0] + gm.loc.element(gm.chart.variety.ring.var(gm.chart.parameters[0]))
    new = gm.act(eta, x)
    assert new == reference_act(gm, eta, x) and new != old


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PLAIN_ORACLES), st.integers(0, 2**32))
def test_a_twist_is_the_gauge_field_shifted(name, seed):
    """Twisting by omega is the field B_i + omega_i Id, so it adds
    (sum_i f_i omega_i) x to the action on x."""
    gm, omega = oracle_twists()[name]
    twisted = gm.twist(omega)
    dim = gm.module.dim
    for b, t, w in zip(gm.field.matrices, twisted.field.matrices, omega.coeffs, strict=True):
        for r in range(dim):
            for c in range(dim):
                assert t[r][c] == (b[r][c] + w if r == c else b[r][c])
    rng = random.Random(seed)
    eta = sampling.chart_field(rng, gm.chart)
    x = gm.element({u: sampling.localized(rng, gm.loc) for u in range(dim)})
    shift = gm.loc.zero()
    for fi, wi in zip(eta, omega.coeffs):
        shift = shift + fi * wi
    assert twisted.act(eta, x) == gm.act(eta, x) + x.scale(shift)


def test_a_scalar_field_keeps_the_given_values(sphere):
    chart = sphere.chart("z")
    loc = chart.localization
    values = [loc.element(sphere.ring.var("x") * sphere.ring.var("y")),
              chart.frame.derive(chart.parameters[0], loc.element(sphere.ring.var("z")))]
    field = GaugeField.scalar(chart, values, 3)
    for m, v in zip(field.matrices, values, strict=True):
        assert all(m[r][r] is v for r in range(3))
        assert all(m[r][c].is_zero() for r in range(3) for c in range(3) if r != c)
