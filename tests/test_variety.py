"""Varieties: Jacobians, charts, tangent frames, vector fields, brackets."""

import random
from fractions import Fraction

import pytest

from gaugemods.polyring import PolyRing, render
from gaugemods.variety import (
    Variety,
    bracket,
    chart_apply,
    solve_tau,
    to_chart,
)

from test_polyring import RING, SPHERE, X, Y, Z


class TestJacobian:
    def test_sphere_row(self, sphere):
        assert sphere.jacobian == ((2 * X, 2 * Y, 2 * Z),)

    def test_circle_row(self, circle):
        t, s = circle.ring.var("t"), circle.ring.var("s")
        assert circle.jacobian == ((s, t),)

    def test_hyperplane(self):
        ring = PolyRing(("x1", "x2", "x3"))
        v = Variety(ring, [ring.var("x1")])
        assert v.jacobian == ((ring.one(), ring.zero(), ring.zero()),)

    def test_ranks(self, sphere, circle):
        assert sphere.rank == 1 and sphere.dim == 2
        assert circle.rank == 1 and circle.dim == 1

    def test_hyperplane_rank(self):
        ring = PolyRing(("x1", "x2", "x3"))
        v = Variety(ring, [ring.var("x1")])
        assert v.rank == 1 and v.dim == 2

    def test_two_generator_rank(self):
        # line x = y = 0 in A^3: Jacobian has rank 2
        ring = PolyRing(("x", "y", "z"))
        v = Variety(ring, [ring.var("x"), ring.var("y")])
        assert v.rank == 2 and v.dim == 1


class TestCharts:
    def test_sphere_minors_normalized(self, sphere):
        assert [c.name for c in sphere.charts] == ["x", "y", "z"]
        # raw minors keep the scalar factor for certificates
        assert [str(c.minor) for c in sphere.charts] == ["2*x", "2*y", "2*z"]

    def test_sphere_parameters_complement(self, sphere):
        by_name = {c.name: c.parameters for c in sphere.charts}
        assert by_name == {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y")}

    def test_circle_two_charts(self, circle):
        names = {c.name: c.parameters for c in circle.charts}
        assert names == {"s": ("s",), "t": ("t",)}

    def test_circle_single_chart_covers(self, circle):
        # both minors are units (t*s = 1), so either chart alone covers:
        # the ideal I + <h> is the unit ideal
        from gaugemods.groebner import Ideal, is_unit_ideal
        for chart in circle.charts:
            gens = circle.generators + (chart.h.rep,)
            assert is_unit_ideal(Ideal(circle.ring, gens))

    def test_sphere_no_single_chart_covers(self, sphere):
        # each sphere chart misses a great circle
        from gaugemods.groebner import Ideal, is_unit_ideal
        for chart in sphere.charts:
            gens = sphere.generators + (chart.h.rep,)
            assert not is_unit_ideal(Ideal(sphere.ring, gens))

    def test_hyperplane_single_chart(self):
        ring = PolyRing(("x1", "x2", "x3"))
        v = Variety(ring, [ring.var("x1")])
        (chart,) = v.charts
        assert chart.name == "1" and chart.parameters == ("x2", "x3")

    def test_chart_selection(self, sphere):
        assert sphere.chart("z") is sphere.charts[2]
        assert sphere.chart(0) is sphere.charts[0]
        with pytest.raises(KeyError):
            sphere.chart("w")


class TestSmoothness:
    def test_sphere_smooth(self, sphere):
        assert sphere.smoothness_check()

    def test_circle_smooth(self, circle):
        assert circle.smoothness_check()

    def test_cone_singular(self):
        v = Variety(RING, [X**2 + Y**2 - Z**2])
        assert not v.smoothness_check()

    def test_affine_space_smooth(self, affine2):
        assert affine2.smoothness_check()
        (chart,) = affine2.charts
        assert chart.name == "1" and chart.parameters == ("x", "y")

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            Variety(RING, [X, 1 - X])


class TestTangentFrame:
    def test_sphere_chart_z(self, sphere):
        frame = solve_tau(sphere, sphere.chart("z"))
        loc = sphere.chart("z").localization
        f_xz = frame.taus["x"].corrections["z"]
        assert f_xz == loc.element(-X, 1)
        f_yz = frame.taus["y"].corrections["z"]
        assert f_yz == loc.element(-Y, 1)

    def test_hyperplane_trivial_frame(self):
        ring = PolyRing(("x1", "x2", "x3"))
        v = Variety(ring, [ring.var("x1")])
        frame = v.charts[0].frame
        assert all(not tau.corrections for tau in frame.taus.values())

    def test_frame_invariant_all_charts(self, sphere, circle):
        for v in (sphere, circle):
            for chart in v.charts:
                assert chart.frame.check()

    def test_h_times_correction_is_polynomial(self, sphere):
        # h * f_ij lands in A itself: cross-multiplication against the
        # hpower-0 numerator must succeed
        for chart in sphere.charts:
            loc = chart.localization
            for tau in chart.frame.taus.values():
                for f in tau.corrections.values():
                    assert loc.element(chart.h) * f == loc.element(f.num)

    def test_taus_commute_on_localized_samples(self, sphere):
        chart = sphere.chart("z")
        frame = chart.frame
        loc = chart.localization
        rng = random.Random(11)
        for _ in range(10):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            a = loc.element(RING.monomial(exps, Fraction(rng.randint(1, 3))),
                            rng.randint(0, 1))
            xy = frame.derive("x", frame.derive("y", a))
            yx = frame.derive("y", frame.derive("x", a))
            assert xy == yx


class TestVectorFields:
    def test_rotation_is_vector_field(self, sphere):
        assert sphere.is_vector_field([Z, RING.zero(), -X])

    def test_bare_partial_is_not(self, sphere):
        assert not sphere.is_vector_field([RING.one(), RING.zero(), RING.zero()])

    def test_circle_euler_field(self, circle):
        t, s = circle.ring.var("t"), circle.ring.var("s")
        assert circle.is_vector_field([t, -s])

    def test_invalid_coefficients_rejected(self, sphere):
        with pytest.raises(ValueError):
            sphere.vector_field([RING.one(), RING.zero(), RING.zero()])


class TestBracket:
    def test_sphere_rotations(self, sphere):
        # oracle: expanding a(b_i) - b(a_i) by hand gives y d/dx - x d/dy
        a = sphere.vector_field([Z, RING.zero(), -X])
        b = sphere.vector_field([RING.zero(), Z, -Y])
        c = bracket(a, b)
        assert [q.rep for q in c.coeffs] == [Y, -X, RING.zero()]

    def test_alternating(self, sphere):
        a = sphere.vector_field([Z, RING.zero(), -X])
        c = bracket(a, a)
        assert all(q.is_zero() for q in c.coeffs)

    def test_circle_witt_relation(self, circle):
        # e_n = t^(n+1) d/dt + (-s t^n) d/ds ambiently; [e_0, e_1] = e_1
        t, s = circle.ring.var("t"), circle.ring.var("s")
        e0 = circle.vector_field([t, -s])
        e1 = circle.vector_field([t**2, -s * t])
        c = bracket(e0, e1)
        assert c == e1

    def test_jacobi_identity(self, sphere):
        a = sphere.vector_field([Z, RING.zero(), -X])
        b = sphere.vector_field([RING.zero(), Z, -Y])
        c = sphere.vector_field([Y, -X, RING.zero()])
        total = [
            q1 + q2 + q3
            for q1, q2, q3 in zip(
                bracket(a, bracket(b, c)).coeffs,
                bracket(b, bracket(c, a)).coeffs,
                bracket(c, bracket(a, b)).coeffs,
            )
        ]
        assert all(q.is_zero() for q in total)


class TestToChart:
    def test_sphere_rotation_chart_z(self, sphere):
        chart = sphere.chart("z")
        vf = sphere.vector_field([Z, RING.zero(), -X])
        coeffs = to_chart(sphere, chart, vf)
        loc = chart.localization
        assert coeffs[0] == loc.element(Z) and coeffs[1].is_zero()

    def test_recovers_coefficient_on_parameter(self, sphere):
        chart = sphere.chart("z")
        vf = sphere.vector_field([Z, RING.zero(), -X])
        coeffs = to_chart(sphere, chart, vf)
        got = chart_apply(chart, coeffs, sphere.qring.element(X))
        assert got == coeffs[0]

    def test_circle_euler_chart_t(self, circle):
        chart = circle.chart("t")
        t, s = circle.ring.var("t"), circle.ring.var("s")
        vf = circle.vector_field([t, -s])
        (coeff,) = to_chart(circle, chart, vf)
        assert coeff == chart.localization.element(t)

    def test_chart_consistency_on_samples(self, sphere):
        # ambient eta(a) must agree with the chart-form action through the frame
        chart = sphere.chart("z")
        vf = sphere.vector_field([Z, RING.zero(), -X])
        coeffs = to_chart(sphere, chart, vf)
        loc = chart.localization
        rng = random.Random(4)
        for _ in range(12):
            exps = tuple(rng.randint(0, 1) for _ in range(3))
            a = RING.monomial(exps, Fraction(rng.randint(-2, 2)))
            if a.is_zero():
                continue
            ambient = loc.element(vf.apply(a))
            chartwise = chart_apply(chart, coeffs, loc.element(a))
            assert ambient == chartwise


def test_render_of_vector_field(sphere):
    vf = sphere.vector_field([Z, RING.zero(), -X])
    assert str(vf) == "(z)*d/dx + (-x)*d/dz"
