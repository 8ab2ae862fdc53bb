"""Localized arithmetic in A_(h) against reference formulas.

The references below are the two-sided formulas: every operand of a sum
is lifted by h^(m - p), even by h^0 = 1; equality multiplies both sides
by the other's h-power, h^0 included; and the quotient rule reduces the
partials of every numerator.  Multiplying a normal form by 1 and reducing
it gives it back, so the one-sided code must build exactly the same
numerator and h-power.  ``reference_loc_partial`` is the quotient rule
product by product, with the one-sided sums; a derivation's table of
per-monomial forms must give its numerator and h-power exactly, whatever
powers of h its corrections are over.
"""

from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods import affine_space, circle_variety, groebner, sphere_variety
from gaugemods.groebner import (GroebnerBasis, Ideal, LocalizedElement, QuotientElement,
                                 QuotientRing, buchberger, loc_partial)
from gaugemods.linalg import BudgetExceededError
from gaugemods.parser import parse_poly
from gaugemods.polyring import PolyRing, lex
from gaugemods.scenario import load_bundled, run_scenario
from gaugemods.variety import Variety

from test_polyring import polynomials


def reference_add(a, b):
    """a/h^p + b/h^q = (a h^(m-p) + b h^(m-q)) / h^m with m = max(p, q)."""
    loc = a.loc
    m = max(a.hpower, b.hpower)
    num = a.num * loc.hpow(m - a.hpower) + b.num * loc.hpow(m - b.hpower)
    return LocalizedElement(loc, num, m)


def reference_eq(a, b):
    """a/h^p == b/h^q iff a h^q == b h^p, both factors multiplied out."""
    return a.num * b.loc.hpow(b.hpower) == b.num * a.loc.hpow(a.hpower)


def reference_apply_poly(tau, p):
    """tau(p) for a Polynomial p, each partial reduced to its normal form."""
    out = tau.loc.element(p.partial(tau.var))
    for name, coeff in tau.corrections.items():
        dp = p.partial(name)
        if not dp.is_zero():
            out = reference_add(out, coeff * tau.loc.element(dp))
    return out


def reference_partial(a, tau):
    """The quotient rule tau(n/h^p) = tau(n)/h^p - p n tau(h)/h^(p+1)."""
    loc = a.loc
    d_num = reference_apply_poly(tau, a.num.rep)
    out = LocalizedElement(loc, d_num.num, d_num.hpower + a.hpower)
    if a.hpower:
        d_h = reference_apply_poly(tau, loc.h.rep)
        out = reference_add(out, LocalizedElement(
            loc, a.num * d_h.num * Fraction(-a.hpower), a.hpower + 1 + d_h.hpower))
    return out


def reference_loc_apply_poly(tau, p):
    """tau(p) for p in A by the one-sided sums: d p/dx_i, then each
    correction f_j d p/dx_j added in turn, the partials used as they are."""
    loc = tau.loc
    lift = lambda dp: LocalizedElement(loc, QuotientElement(loc.qring, dp), 0)
    out = lift(p.rep.partial(tau.var))
    for name, coeff in tau.corrections.items():
        dp = p.rep.partial(name)
        if not dp.is_zero():
            out = out + coeff * lift(dp)
    return out


def reference_loc_partial(a, tau):
    """The quotient rule with the one-sided sums: tau(n)/h^p, then
    - p n tau(h)/h^(p+1) added to it.  The table must give exactly this
    numerator and power of h."""
    loc = a.loc
    d_num = reference_loc_apply_poly(tau, a.num)
    out = LocalizedElement(loc, d_num.num, d_num.hpower + a.hpower)
    if a.hpower:
        d_h = reference_loc_apply_poly(tau, loc.h)
        correction = LocalizedElement(
            loc, a.num * d_h.num * Fraction(-a.hpower), a.hpower + 1 + d_h.hpower)
        out = out + correction
    return out


def form(x):
    """The stored form of a localized element: numerator terms and h-power."""
    return x.num.rep, x.hpower


def _variety(names, gens, name):
    ring = PolyRing(names)
    return Variety(ring, [parse_poly(g, ring) for g in gens], name=name)


# Varieties and bases are built on first use and kept, so that a broken
# basis computation fails the tests that use it, one by one, and no other.
VARIETIES = {
    "sphere": sphere_variety,
    "circle": circle_variety,
    "affine2": lambda: affine_space(["x", "y"]),
    "torus": lambda: _variety(("x", "y", "z", "w"),
                              ["x^2 + y^2 - 1", "z^2 + w^2 - 1"], "torus"),
    "SL2": lambda: _variety(("a", "b", "c", "d"), ["a*d - b*c - 1"], "SL2"),
    "cubic": lambda: _variety(("x", "y"), ["y^2 - x^3 + x"], "cubic"),
    # the chart x - y^2 = 0 solved for x has h = 1 and a correction 2y
    "parabola": lambda: _variety(("x", "y"), ["x - y^2"], "parabola"),
}


@cache
def variety(name):
    return VARIETIES[name]()


CHARTS = {"sphere-z": ("sphere", "z"), "circle-t": ("circle", "t"),
          "affine2": ("affine2", 0), "torus-xz": ("torus", "x*z")}


def named_chart(name):
    """One of ``CHARTS``: a variety's name and the selector of its chart."""
    v, selector = CHARTS[name]
    return variety(v).chart(selector)


@st.composite
def localized(draw, chart, max_hpower=3):
    """A numerator in normal form (zero included) over h^0..h^max_hpower."""
    loc = chart.localization
    num = draw(polynomials(chart.variety.ring, max_degree=3, max_terms=3))
    return loc.element(num, draw(st.integers(0, max_hpower)))


@st.composite
def pairs(draw):
    chart = named_chart(draw(st.sampled_from(sorted(CHARTS))))
    a = draw(localized(chart))
    if draw(st.booleans()):
        b = draw(localized(chart))
    else:
        # the same value written over a higher power of h
        k = draw(st.integers(0, 2))
        b = LocalizedElement(a.loc, a.num * a.loc.hpow(k), a.hpower + k)
    return a, b


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_sum_matches_two_sided_alignment(case):
    a, b = case
    assert form(a + b) == form(reference_add(a, b))
    assert form(b + a) == form(reference_add(b, a))


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_equality_matches_full_cross_multiplication(case):
    a, b = case
    assert (a == b) is reference_eq(a, b)
    assert (b == a) is reference_eq(b, a)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_tau_matches_quotient_rule(data):
    chart = named_chart(data.draw(st.sampled_from(sorted(CHARTS))))
    a = data.draw(localized(chart))
    raw = data.draw(polynomials(chart.variety.ring, max_degree=4, max_terms=3))
    for tau in chart.frame.taus.values():
        assert form(loc_partial(a, tau)) == form(reference_partial(a, tau))
        assert form(tau(a)) == form(reference_partial(a, tau))
        # a raw polynomial still has its partials reduced
        assert form(tau.apply_poly(raw)) == form(reference_apply_poly(tau, raw))
        assert form(tau.apply_poly(a.num)) == form(reference_apply_poly(tau, a.num.rep))
        assert form(tau.tau_h) == form(reference_apply_poly(tau, chart.h.rep))


def test_adding_zero_returns_the_other_operand():
    loc = named_chart("sphere-z").localization
    x = loc.element(loc.qring.ring.var("x"), 2)
    assert (x + loc.zero()) is x
    assert (loc.zero() + x) is x
    assert form(x + 0) == form(x)


def test_normal_form_of_another_quotient_ring_is_rejected():
    chart = named_chart("sphere-z")
    ring = chart.variety.ring
    other = QuotientRing(buchberger(Ideal(ring, (parse_poly("x*y - 1", ring),))))
    tau = chart.frame.taus["x"]
    with pytest.raises(ValueError, match="different quotient ring"):
        tau.apply_poly(other.element(parse_poly("x^2*y", ring)))
    with pytest.raises(ValueError, match="different quotient ring"):
        tau(chart.localization.element(other.element(parse_poly("x^2*y", ring)), 1))


def test_localization_rejects_a_numerator_of_another_quotient_ring():
    loc = named_chart("sphere-z").localization
    ring = loc.qring.ring
    other = QuotientRing(buchberger(Ideal(ring, (parse_poly("x*y - 1", ring),))))
    with pytest.raises(ValueError, match="different quotient ring"):
        loc.element(other.element(parse_poly("x^2*y", ring)), 1)
    # a separately built but equal quotient ring is the same ring
    same = QuotientRing(loc.qring.gb)
    x = parse_poly("x", ring)
    assert form(loc.element(same.element(x), 1)) == form(loc.element(x, 1))


def _basis(names, gens, order=None):
    ring = PolyRing(names)
    return buchberger(Ideal(ring, tuple(parse_poly(g, ring) for g in gens)),
                      order and order(ring))


BASES = {
    "torus": lambda: _basis(("x", "y", "z", "w"), ["x^2 + y^2 - 1", "z^2 + w^2 - 1"]),
    "cyclic-4": lambda: _basis(("a", "b", "c", "d"),
                               ["a + b + c + d", "a*b + b*c + c*d + d*a",
                                "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]),
    # the normal forms of its monomials have denominators 7, 14, 98, 108, 162, ...
    "katsura-3": lambda: _basis(("a", "b", "c", "d"),
                                ["a + 2*b + 2*c + 2*d - 1", "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
                                 "2*a*b + 2*b*c + 2*c*d - b", "b^2 + 2*a*c + 2*b*d - c"]),
    "sphere": lambda: named_chart("sphere-z").localization.qring.gb,
    "affine2 (empty basis)": lambda: named_chart("affine2").localization.qring.gb,
    "twisted cubic, lex": lambda: _basis(("x", "y", "z"), ["y - x^2", "z - x^3"], lex),
}
MULTI_BASES = ("cyclic-4", "katsura-3", "torus")


@cache
def named_basis(name):
    return BASES[name]()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partials_of_normal_forms_are_normal_forms(data):
    # a divisor of a standard monomial is standard
    gb = named_basis(data.draw(st.sampled_from(MULTI_BASES)))
    assert len(gb.basis) > 1
    p = gb.reduce(data.draw(polynomials(gb.ring, max_degree=6, max_terms=5)))
    for v in gb.ring.variables:
        dp = p.partial(v)
        assert gb.reduce(dp) == dp


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_product_is_the_normal_form_of_the_full_product(data):
    gb = named_basis(data.draw(st.sampled_from(sorted(BASES))))
    a, b = (data.draw(polynomials(gb.ring, max_degree=5, max_terms=4)) for _ in "ab")
    if data.draw(st.booleans()):
        a, b = gb.reduce(a), gb.reduce(b)
    got, want = gb.reduce_product(a, b), gb.reduce(a * b)
    assert (got.num, got.den) == (want.num, want.den)


def test_katsura_products_meet_fractional_normal_forms():
    gb = named_basis("katsura-3")
    ring = gb.ring
    monomials = [ring.monomial((i, j, k, 0)) for i in range(3) for j in range(3) for k in range(3)]
    dens = set()
    for a in monomials:
        for b in monomials:
            got = gb.reduce_product(a * 3, b + 1)
            assert got == gb.reduce(a * 3 * (b + 1))
            dens.add(got.den)
    assert dens > {1}


def test_a_product_past_the_degree_cap_raises_as_the_full_product_does():
    for name in ("sphere", "torus", "affine2 (empty basis)"):
        gb = named_basis(name)
        ring = gb.ring
        first, last = ring.variables[0], ring.variables[-1]
        a = parse_poly(f"{last}^30 + {first}^40", ring)
        # the first term pair past the cap has a lower degree than the product
        for b in (parse_poly(f"{first}^35 - 1", ring), parse_poly(f"{first}^25", ring)):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(BudgetExceededError) as full:
                    x * y
                with pytest.raises(BudgetExceededError) as table:
                    gb.reduce_product(x, y)
                assert str(table.value) == str(full.value)
        assert str(full.value) == "total degree 65 exceeds the ring cap 64"
        at_cap = parse_poly(f"{last}^24 - {first}", ring)
        assert gb.reduce_product(a, at_cap) == gb.reduce(a * at_cap)
        assert gb.reduce_product(ring.zero(), a).is_zero()


def test_a_lex_product_is_divided_whole():
    """Under lex a monomial's normal form can pass the degree cap where the
    product's does not: here NF(x^2) = NF(x*y^40) = y^80."""
    gb = _basis(("x", "y"), ["x - y^40"], lex)
    x, y = gb.ring.var("x"), gb.ring.var("y")
    assert gb.reduce_product(x, x - y**40).is_zero()
    with pytest.raises(BudgetExceededError, match="total degree 80"):
        gb.reduce(x * x)


@pytest.mark.parametrize("name", ["sphere", "affine2 (empty basis)"])
def test_a_product_of_another_ring_is_rejected(name):
    gb = named_basis(name)
    other = PolyRing(("x", "y", "w"))
    with pytest.raises(ValueError, match="different ring"):
        gb.reduce_product(other.var("x"), other.var("y"))
    with pytest.raises(ValueError, match="mismatch"):
        gb.reduce_product(gb.ring.var("x"), other.var("y"))


def test_a_power_of_h_past_the_cap_names_the_first_power_past_it():
    # built one factor h at a time, without recursion
    loc = sphere_variety().chart("z").localization
    assert loc.h.rep == loc.qring.ring.var("z")
    with pytest.raises(BudgetExceededError, match="total degree 65 exceeds the ring cap 64"):
        loc.hpow(3000)
    assert loc.hpow(64) == loc.hpow(63) * loc.h


def test_a_power_of_h_equal_to_one_costs_no_product(count_calls):
    loc = named_chart("affine2").localization
    products = count_calls(QuotientElement, "__mul__")
    assert loc.hpow(10**9) == loc.qring.one()
    assert products.calls == 0


def test_sums_and_equality_where_h_is_one_cost_no_product(count_calls):
    loc = named_chart("affine2").localization
    x, y = (loc.qring.ring.var(v) for v in ("x", "y"))
    a, b = loc.element(x, 2), loc.element(y)
    products = count_calls(QuotientElement, "__mul__")
    total = a + b
    assert (total.num.rep, total.hpower) == (x + y, 2)
    assert a == loc.element(x) and a != b
    assert products.calls == 0


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_constants_cost_no_normal_form(name, count_calls):
    loc = named_chart(name).localization
    ring = loc.qring.ring
    normal_forms = count_calls(GroebnerBasis, "reduce")
    assert loc.qring.one() is loc.qring.one() and loc.qring.zero().is_zero()
    for c in (0, 1, -3, Fraction(2, 5)):
        assert loc.element(c).num.rep == ring.const(c)
        assert loc.qring.element(ring.const(c)).rep == ring.const(c)
    assert loc.zero().is_zero() and loc.one().num.rep == ring.one()
    assert normal_forms.calls == 0


def test_a_constant_in_the_unit_ideal_is_zero():
    qring = QuotientRing(_basis(("x",), ["x", "1 - x"]))
    assert qring.one().is_zero() and qring.const(5).is_zero()
    assert qring.element(qring.ring.const(Fraction(1, 3))).is_zero()


def test_sphere_gauge_grad_normal_form_count(count_calls):
    """Work-count guard: the bundled sphere_gauge_grad scenario at its own
    seed takes 209 normal forms.  It took 498 when every constant built in
    A was divided, 5,345 when each product of quotient elements was divided
    afresh, and 6,671 before tau derivatives were remembered and unused
    products skipped; with the two-sided formulas above it took 16,683."""
    normal_forms = count_calls(GroebnerBasis, "reduce")
    report = run_scenario(load_bundled("sphere_gauge_grad.json"), timing=False)
    assert report["status"] == "pass"
    assert 0 < normal_forms.calls <= 209


def test_sphere_gauge_grad_product_count(count_calls):
    """Work-count guard: the bundled sphere_gauge_grad scenario at its own
    seed takes 2,737 products in A.  It took 4,128 when tau of an element
    redid the quotient rule product by product, each vector field's
    connection was rebuilt on every action and the draws built Fraction
    dicts (the count the old docstring gave, 4,161, was 33 above it);
    4,847 when the action multiplied each coefficient once per gauge and
    rho term, and a zero factor still reached the product table."""
    products = count_calls(GroebnerBasis, "reduce_product")
    report = run_scenario(load_bundled("sphere_gauge_grad.json"), timing=False)
    assert report["status"] == "pass"
    assert 0 < products.calls <= 2_737


def test_sphere_gauge_grad_quotient_rule_count(count_calls):
    """Work-count guard: an element remembers its tau derivatives, so the
    bundled sphere_gauge_grad scenario evaluates the quotient rule 693
    times; evaluated on every call it took 1,398.  The bound is 55% of
    that."""
    evaluations = count_calls(groebner, "loc_partial")
    report = run_scenario(load_bundled("sphere_gauge_grad.json"), timing=False)
    assert report["status"] == "pass"
    assert 0 < evaluations.calls <= 1_398 * 55 // 100


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_remembered_derivative_is_the_quotient_rule(data):
    chart = named_chart(data.draw(st.sampled_from(sorted(CHARTS))))
    a = data.draw(localized(chart))
    taus = list(chart.frame.taus.values())
    for tau in data.draw(st.lists(st.sampled_from(taus), min_size=1, max_size=6)):
        got = tau(a)
        assert got is tau(a)
        assert form(got) == form(loc_partial(a, tau)) == form(reference_partial(a, tau))


def test_a_derivative_is_remembered_for_its_own_derivation_only():
    chart = named_chart("sphere-z")
    loc, ring = chart.localization, chart.variety.ring
    x, y, z = (ring.var(v) for v in "xyz")
    tau_x, tau_y = chart.frame.taus["x"], chart.frame.taus["y"]
    a = loc.element(z)
    assert form(tau_x(a)) == form(loc.element(-x, 1))
    assert form(tau_y(a)) == form(loc.element(-y, 1))
    assert form(tau_x(a)) == form(loc.element(-x, 1))
    # tau_x of an equal chart of a separately built sphere: equal, but not shared
    other_x = sphere_variety().chart("z").frame.taus["x"]
    assert other_x.loc == loc and other_x is not tau_x
    assert other_x(a) is not tau_x(a) and form(other_x(a)) == form(tau_x(a))
    # another derivation named x on the same localization: d/dx + d/dy
    plane = named_chart("affine2")
    ploc = plane.localization
    d_x = plane.frame.taus["x"]
    d_xy = groebner.TauDerivation(ploc, "x", {"y": ploc.one()})
    b = ploc.element(ploc.qring.ring.var("y"))
    assert d_x(b).is_zero()
    assert form(d_xy(b)) == form(ploc.one())
    assert d_x(b).is_zero()


def test_an_element_of_an_equal_localization_is_derived_from_the_table(count_calls):
    chart = named_chart("sphere-z")
    tau_x = sphere_variety().chart("z").frame.taus["x"]
    assert tau_x.loc == chart.localization and tau_x.loc is not chart.localization
    x, y = (chart.variety.ring.var(v) for v in "xy")
    a = chart.localization.element(x * y - 2, 2)
    # the images of the monomials of x y - 2 are built on this first call
    want = loc_partial(tau_x.loc.element(x * y - 2, 2), tau_x)
    table_sums = count_calls(groebner._KeptMap, "sum")
    got = loc_partial(a, tau_x)
    # one sum of the images of x^e t, one of h times the numerators of tau(x^e)
    assert table_sums.calls == 2
    assert form(got) == form(want) == form(reference_loc_partial(a, tau_x))


def test_a_derivation_rejects_an_element_of_another_chart():
    """Chart z's tau_x does not apply to chart y's elements: the quotient
    rule with the h of one chart and the tau(h) of the other gives x/y^3
    for 1/y, whose tau_x is 0, and -x/y for z, not -x/z."""
    sphere = variety("sphere")
    tau_x = sphere.chart("z").frame.taus["x"]
    yloc = sphere.chart("y").localization
    for a in (yloc.element(1, 1), yloc.element(sphere.ring.var("z"))):
        with pytest.raises(ValueError, match="different localization"):
            loc_partial(a, tau_x)
        with pytest.raises(ValueError, match="different localization"):
            tau_x(a)


# -- the tau table ----------------------------------------------------------------

ORACLE_VARIETIES = ("sphere", "torus", "SL2", "cubic", "parabola")


@pytest.mark.parametrize("name", ORACLE_VARIETIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_tabled_tau_is_the_quotient_rule(name, data):
    """On every chart, tau of n / h^p for p = 0..3 has the numerator and the
    power of h that the quotient rule leaves, remembered or not."""
    v = variety(name)
    chart = v.charts[data.draw(st.integers(0, len(v.charts) - 1))]
    loc = chart.localization
    num = data.draw(polynomials(v.ring, max_degree=4, max_terms=4))
    a = loc.element(num, data.draw(st.integers(0, 3)))
    for tau in chart.frame.taus.values():
        assert tau.hpower == (1 if tau.corrections else 0)
        want = form(reference_loc_partial(a, tau))
        assert form(loc_partial(a, tau)) == want
        assert form(tau(a)) == want


def test_the_parabola_has_a_chart_with_h_one_and_a_correction():
    chart = variety("parabola").chart("1")
    assert chart.localization.h_is_one and chart.parameters == ("y",)
    assert chart.frame.taus["y"].corrections


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_derivation_with_an_h0_correction_keeps_the_quotient_rule(data):
    """d/dx + d/dy on the plane: its correction 1 is over h^0, and its
    table must leave the quotient rule's numerator and power of h."""
    ploc = named_chart("affine2").localization
    d_xy = groebner.TauDerivation(ploc, "x", {"y": ploc.one()})
    a = data.draw(localized(named_chart("affine2")))
    assert form(d_xy(a)) == form(reference_loc_partial(a, d_xy))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corrections_over_mixed_powers_of_h_keep_the_quotient_rule(data):
    """A hand-built derivation with corrections over h^0, h^1 and h^2 keeps
    them over the largest power of a nonzero one.  tau is the quotient rule
    of the corrections as given in value, and that of the kept corrections
    in stored form."""
    chart = named_chart(data.draw(st.sampled_from(sorted(CHARTS))))
    loc, names = chart.localization, chart.variety.ring.variables
    var = data.draw(st.sampled_from(names))
    corrected = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    given_ = {name: data.draw(localized(chart, max_hpower=2)) for name in corrected}
    tau = groebner.TauDerivation(loc, var, given_)
    m = max((f.hpower for f in given_.values() if f), default=0)
    assert tau.hpower == m
    for name, f in given_.items():
        kept = tau.corrections[name]
        assert kept.hpower == (m if f else 0) and reference_eq(kept, f)
    as_given = SimpleNamespace(loc=loc, var=var, corrections=given_)
    a = data.draw(localized(chart))
    got = tau(a)
    assert reference_eq(got, reference_partial(a, as_given))
    assert form(got) == form(reference_loc_partial(a, tau))


def test_a_correction_of_another_localization_is_rejected():
    sphere = variety("sphere")
    zloc, yloc = sphere.chart("z").localization, sphere.chart("y").localization
    with pytest.raises(ValueError, match="different localization"):
        groebner.TauDerivation(zloc, "x", {"z": yloc.element(1, 1)})


def test_tau_h_over_h0_under_a_correction_over_h2_keeps_the_quotient_rule():
    """d/dz + (y/z^2) d/dy on the sphere chart z: tau(h) = 1 is over h^0
    and the correction over h^2.  tau(y/z) = (y - y z)/z^3, and tau(x/z)
    = -x/z^2 as the quotient rule leaves it, not -x z/z^3: tau(x) = 0 is
    over h^0."""
    chart = named_chart("sphere-z")
    loc, ring = chart.localization, chart.variety.ring
    x, y, z = (ring.var(v) for v in "xyz")
    tau = groebner.TauDerivation(loc, "z", {"y": loc.element(y, 2)})
    assert (tau.hpower, tau.tau_h.hpower) == (2, 0)
    for a, want in ((loc.element(y, 1), (y - y * z, 3)), (loc.element(x, 1), (-x, 2)),
                    (loc.element(x * z, 1), (ring.zero(), 0))):
        assert form(tau(a)) == want == form(reference_loc_partial(a, tau))
