"""Exact linear algebra: cofactor determinants, rank and solve over QQ."""

import copy
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugemods.linalg import det, rank, solve
from gaugemods.variety import Variety

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


def test_solve_returns_none_on_inconsistent_system():
    matrix = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(matrix, [Fraction(1), Fraction(3)]) is None


def test_solve_and_rank_of_empty_systems():
    assert solve([], []) == []
    assert rank([]) == 0


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
    assert rank(matrix) == k
    x0 = [Fraction(random.Random(seed + 1).randint(-4, 4)) for _ in range(ncols)]
    rhs = _apply(matrix, x0)
    x = solve(matrix, rhs)
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
    assert rank(matrix) == reference_rank(matrix) == k
    x = solve(matrix, rhs)
    assert x == reference_solve(matrix, rhs)
    if x is not None:
        assert _apply(matrix, x) == rhs


def test_solve_and_rank_leave_arguments_unchanged():
    matrix = _planted(7, 5, 4, 3)
    rhs = [Fraction(i) for i in range(5)]
    before = copy.deepcopy((matrix, rhs))
    rank(matrix)
    solve(matrix, rhs)
    assert (matrix, rhs) == before
