"""Exact linear algebra: linear combinations, cofactor determinants, and
sparse elimination (``echelon``, ``solve_sparse``) over QQ against a dense
reference."""

import copy
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugemods.circle import CircleElement
from gaugemods.derham import FormElement
from gaugemods.gauge import GaugeField, GaugeModule
from gaugemods.glrep import UEAElement, exterior_power
from gaugemods.linalg import add_term, det, echelon, solve_sparse
from gaugemods.variety import Variety, sphere_variety

from test_polyring import RING, SPHERE, X, Y, Z


def test_det_of_empty_matrix_is_one():
    assert det(RING, []) == RING.one()


def test_det_equals_sphere_jacobian_minors(sphere):
    assert len(sphere.charts) == 3
    for chart in sphere.charts:
        block = [[sphere.jacobian[r][c] for c in chart.cols] for r in chart.rows]
        assert sphere.qring.element(det(RING, block)) == chart.minor


def test_det_two_by_two_minors_of_a_curve():
    # the sphere cut by the plane x = y: every 2x2 Jacobian minor by hand
    v = Variety(RING, [SPHERE, X - Y])
    (gx, gy, gz), (hx, hy, hz) = v.jacobian
    expected = {(0, 1): gx * hy - gy * hx, (0, 2): gx * hz - gz * hx,
                (1, 2): gy * hz - gz * hy}
    for cols, value in expected.items():
        assert det(RING, [[row[c] for c in cols] for row in v.jacobian]) == value


def test_det_three_by_three_rule_of_sarrus():
    a = [[X, Y, RING.one()], [Z, X * Y, Y], [RING.const(2), Z, X]]
    sarrus = (a[0][0] * a[1][1] * a[2][2] + a[0][1] * a[1][2] * a[2][0]
              + a[0][2] * a[1][0] * a[2][1] - a[0][2] * a[1][1] * a[2][0]
              - a[0][0] * a[1][2] * a[2][1] - a[0][1] * a[1][0] * a[2][2])
    assert det(RING, a) == sarrus


def reference_echelon(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Dense Gauss-Jordan: reduce m in place to reduced row echelon form,
    pivoting only in the first ``ncols`` columns; returns the pivot columns
    of the leading rows."""
    nrows = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def reference_rank(matrix):
    return len(reference_echelon([row[:] for row in matrix], len(matrix[0]) if matrix else 0))


def reference_solve(matrix, rhs):
    ncols = len(matrix[0]) if matrix else 0
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    pivots = reference_echelon(m, ncols)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        solution[c] = row[ncols]
    return solution


def sparse_row(row):
    return {c: x for c, x in enumerate(row) if x}


def echelon_rank(matrix):
    """The rank by ``echelon`` of a dense matrix."""
    return len(echelon(map(sparse_row, matrix), len(matrix[0]) if matrix else 0)[0])


def solve_dense(matrix, rhs):
    """``solve_sparse`` on a dense matrix and right-hand side, as a dense
    solution in the form ``reference_solve`` returns."""
    ncols = len(matrix[0]) if matrix else 0
    values = solve_sparse([sparse_row([*row, b]) for row, b in zip(matrix, rhs)], ncols)
    if values is None:
        return None
    solution = [Fraction(0)] * ncols
    for c, x in values.items():
        solution[c] = x
    return solution


def test_solve_returns_none_on_inconsistent_system():
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
            {0: Fraction(2), 1: Fraction(2), 2: Fraction(3)}]
    assert solve_sparse(rows, 2) is None


def test_solve_and_rank_of_empty_systems():
    assert solve_sparse([], 0) == {}
    assert echelon([], 0) == ({}, [])


def _planted(seed: int, nrows: int, ncols: int, k: int) -> list[list[Fraction]]:
    """nrows x ncols integer rows spanning a space of dimension exactly k.

    k independent rows are unit vectors on k pivot columns plus arbitrary
    entries off those columns; the other rows are integer combinations
    of them, and the rows are shuffled.
    """
    rng = random.Random(seed)
    pivots = rng.sample(range(ncols), k)
    basis = []
    for p in pivots:
        row = [Fraction(0 if c in pivots else rng.randint(-3, 3)) for c in range(ncols)]
        row[p] = Fraction(1)
        basis.append(row)
    rows = [r[:] for r in basis]
    while len(rows) < nrows:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def _apply(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_planted_rank_and_consistent_solve(seed, nrows, ncols, data):
    k = data.draw(st.integers(0, min(nrows, ncols)))
    matrix = _planted(seed, nrows, ncols, k)
    assert echelon_rank(matrix) == k
    x0 = [Fraction(random.Random(seed + 1).randint(-4, 4)) for _ in range(ncols)]
    rhs = _apply(matrix, x0)
    x = solve_dense(matrix, rhs)
    assert x is not None and _apply(matrix, x) == rhs


def rationals(zero_share: float):
    """Fractions with small numerators and denominators; about ``zero_share`` of them 0."""
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.floats(0, 1).flatmap(
        lambda u: st.just(Fraction(0)) if u < zero_share else nonzero)


@st.composite
def planted_systems(draw):
    """A rational matrix of planted rank k, sparse or dense, with a right-hand
    side that is either in its column space or drawn freely."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(nrows, ncols)))
    entry = rationals(draw(st.sampled_from([0.0, 0.5, 0.85])))
    pivots = draw(st.permutations(range(ncols)))[:k]
    basis = []
    for p in pivots:
        row = [Fraction(0) if c in pivots else draw(entry) for c in range(ncols)]
        row[p] = draw(rationals(0.0))
        basis.append(row)
    rows = [r[:] for r in basis]
    while len(rows) < nrows:
        coeffs = [draw(entry) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                     for j in range(ncols)])
    matrix = draw(st.permutations(rows))
    if draw(st.booleans()):
        rhs = _apply(matrix, [draw(entry) for _ in range(ncols)])
    else:
        rhs = [draw(entry) for _ in range(nrows)]
    return matrix, rhs, k


@settings(max_examples=300, deadline=None)
@given(planted_systems())
def test_rank_and_solve_equal_dense_reference(system):
    matrix, rhs, k = system
    assert echelon_rank(matrix) == reference_rank(matrix) == k
    x = solve_dense(matrix, rhs)
    assert x == reference_solve(matrix, rhs)
    if x is not None:
        assert _apply(matrix, x) == rhs


@st.composite
def sparse_systems(draw):
    """Rational rows over ncols pivot columns and up to two augmented columns
    past them; some rows are combinations of the rows before them."""
    ncols, width = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    width += ncols
    entry = rationals(draw(st.sampled_from([0.0, 0.5, 0.85])))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, 7))):
        if rows and draw(st.booleans()):
            coeffs = [draw(entry) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(width)])
        else:
            rows.append([draw(entry) for _ in range(width)])
    return rows, ncols, width


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
@example(([[Fraction(-2), Fraction(4), Fraction(1, 3)],
           [Fraction(-1, 2), Fraction(0), Fraction(5)]], 2, 3))
def test_echelon_equals_dense_reference(system):
    rows, ncols, width = system
    m = [r[:] for r in rows]
    lead_columns = reference_echelon(m, ncols)
    pivots, rest = echelon([sparse_row(r) for r in rows], ncols)
    expected = {c: sparse_row(m[i]) for i, c in enumerate(lead_columns)}
    assert all(type(x) is Fraction for row in pivots.values() for x in row.values())
    assert len(rest) == len(rows) - len(pivots)
    assert all(c >= ncols for row in rest for c in row)
    # in the first ncols columns the reduced form is unique; past them it is
    # unique up to the other rows, so it is exactly the reference's when
    # those rows vanish, and otherwise all rows span what the input spans
    assert {c: {k: x for k, x in row.items() if k < ncols} for c, row in pivots.items()} \
        == {c: {k: x for k, x in row.items() if k < ncols} for c, row in expected.items()}
    assert any(rest) == any(any(r) for r in m[len(lead_columns):])
    if not any(rest):
        assert pivots == expected

    def spanned(sparse_rows):
        dense_rows = [[Fraction(row.get(c, 0)) for c in range(width)] for row in sparse_rows]
        return [sparse_row(r) for r in dense_rows[:len(reference_echelon(dense_rows, width))]]

    assert spanned([*pivots.values(), *rest]) == spanned(map(sparse_row, rows))


def test_int_entries_give_fractions():
    x = solve_sparse([{0: 2, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 2}], 2)
    assert x == {0: Fraction(1, 5), 1: Fraction(3, 5)}
    assert all(type(c) is Fraction for c in x.values())
    pivots, rest = echelon([{0: 2, 1: 1}, {0: 4, 1: 2}, {0: 1, 1: 3}], 2)
    assert pivots == {0: {0: 1}, 1: {1: 1}} and rest == [{}]
    assert all(type(c) is Fraction for row in pivots.values() for c in row.values())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_int_matrices_equal_their_fraction_copies(seed, nrows, ncols, data):
    k = data.draw(st.integers(0, min(nrows, ncols)))
    matrix = _planted(seed, nrows, ncols, k)
    rhs = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(nrows)]
    ints = [[int(x) for x in row] for row in matrix]
    assert echelon_rank(ints) == echelon_rank(matrix) == k
    x = solve_dense(ints, [int(b) for b in rhs])
    assert x == solve_dense(matrix, rhs)
    assert x is None or all(type(c) is Fraction for c in x)
    pivots, _ = echelon(map(sparse_row, ints), ncols)
    assert all(type(c) is Fraction for row in pivots.values() for c in row.values())


def test_solve_and_rank_leave_arguments_unchanged():
    rows = [sparse_row([*row, Fraction(i)]) for i, row in enumerate(_planted(7, 5, 4, 3))]
    before = copy.deepcopy(rows)
    echelon(rows, 4)
    solve_sparse(rows, 4)
    assert rows == before


# -- Combination: word sums, circle vectors, gauge elements and forms ------------

@functools.cache
def _sphere_chart():
    return sphere_variety().charts[0]


@functools.cache
def _localized_pool():
    """Localized coefficients on a sphere chart, each also written with its
    numerator and denominator multiplied by h, so equal values differ in form."""
    chart = _sphere_chart()
    loc, ring = chart.localization, chart.variety.ring
    h = loc.h.rep
    pool = []
    for c in (1, -1, 2):
        for mono in (ring.one(), ring.var("x"), ring.var("y") * ring.var("z")):
            for p in (0, 1):
                pool.append(loc.element(mono * c, p))
                pool.append(loc.element(mono * h * c, p + 1))
    return pool


def _fraction_space(make, keys):
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return make, keys, coeffs, coeffs, Fraction(0), lambda c: c == 0


def _localized_space(make, keys):
    coeffs = st.sampled_from(_localized_pool())
    scalars = st.one_of(coeffs, st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    return make, keys, coeffs, scalars, _sphere_chart().localization.zero(), \
        lambda c: c.is_zero()


def _space(kind):
    symbols = st.sampled_from([(1, 1), (1, 2), (2, 1)])
    if kind == "uea":
        return _fraction_space(UEAElement, st.lists(symbols, max_size=2).map(tuple))
    if kind == "circle":
        return _fraction_space(lambda t: CircleElement(Fraction(1, 2), t),
                               st.tuples(st.sampled_from("vu"), st.integers(-3, 3)))
    chart = _sphere_chart()
    if kind == "gauge":
        gm = GaugeModule(chart, exterior_power(2, 1), GaugeField.zero(chart, 2))
        return _localized_space(gm.element, st.integers(0, 1))
    return _localized_space(lambda t: FormElement(chart, 1, t),
                            st.sampled_from([(0,), (1,)]))


def _ref_sum(a, b, zero, is_zero):
    out = {k: a.get(k, zero) + b.get(k, zero) for k in a.keys() | b.keys()}
    return {k: c for k, c in out.items() if not is_zero(c)}


def _matches(terms, ref):
    return terms.keys() == ref.keys() and all(terms[k] == ref[k] for k in ref)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["uea", "circle", "gauge", "form"]), st.data())
def test_combination_arithmetic_matches_plain_dicts(kind, data):
    make, keys, coeffs, scalars, zero, is_zero = _space(kind)
    a = data.draw(st.dictionaries(keys, coeffs, max_size=4))
    # b is often a with some coefficients changed, so sums cancel and == can hold
    b = dict(a) if data.draw(st.booleans()) else {}
    b.update(data.draw(st.dictionaries(keys, coeffs, max_size=2)))
    s = data.draw(scalars)
    x, y = make(a), make(b)
    nonzero = {k: c for k, c in a.items() if not is_zero(c)}
    assert _matches(x.terms, nonzero)
    assert _matches((x + y).terms, _ref_sum(a, b, zero, is_zero))
    minus_b = {k: c * -1 for k, c in b.items()}
    assert _matches((x - y).terms, _ref_sum(a, minus_b, zero, is_zero))
    scaled = {k: c * s for k, c in a.items()}
    assert _matches(x.scale(s).terms, _ref_sum(scaled, {}, zero, is_zero))
    assert (x == y) == all(a.get(k, zero) == b.get(k, zero) for k in a.keys() | b.keys())
    assert (x - x).is_zero() and x == make(dict(a))
    assert not any(is_zero(c) for c in (x + y).terms.values())


def test_add_term_skips_zero_and_drops_cancelled_entries():
    out = {"a": Fraction(1)}
    add_term(out, "b", Fraction(0))
    assert out == {"a": 1}
    add_term(out, "a", Fraction(-1))
    assert out == {}
    add_term(out, "c", Fraction(2, 3))
    assert out == {"c": Fraction(2, 3)}


def test_elements_of_two_charts_neither_add_nor_compare_equal(sphere):
    first, second = sphere.charts[:2]
    one1, one2 = first.localization.one(), second.localization.one()
    g1, g2 = (GaugeModule(c, exterior_power(2, 1), GaugeField.zero(c, 2))
              for c in (first, second))
    with pytest.raises(ValueError):
        g1.basis_element(one1, 0) + g2.basis_element(one2, 1)
    with pytest.raises(ValueError):
        g1.zero() - g2.basis_element(one2, 0)
    assert g1.zero() != g2.zero()
    f1 = FormElement(first, 1, {(0,): one1})
    f2 = FormElement(second, 1, {(1,): one2})
    with pytest.raises(ValueError):
        f1 + f2
    with pytest.raises(ValueError):
        FormElement(first, 1, {}) + f2
    assert FormElement(first, 1, {}) != FormElement(second, 1, {})


def test_forms_of_two_degrees_and_circles_of_two_alphas_do_not_mix(sphere):
    chart = sphere.charts[0]
    one = chart.localization.one()
    with pytest.raises(ValueError):
        FormElement(chart, 0, {(): one}) + FormElement(chart, 1, {(0,): one})
    assert FormElement(chart, 0, {}) != FormElement(chart, 1, {})
    with pytest.raises(ValueError):
        CircleElement(Fraction(0), {}) + CircleElement(Fraction(1), {("v", 0): 1})
    assert CircleElement(Fraction(0), {}) != CircleElement(Fraction(1), {})


def test_localized_element_is_true_when_its_numerator_is_nonzero(sphere):
    loc = sphere.charts[0].localization
    x = sphere.ring.var("x")
    assert not loc.zero() and not loc.element(x - x, 3)
    assert loc.one() and loc.element(x, 2)
