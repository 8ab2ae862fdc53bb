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


def test_solve_and_rank_leave_arguments_unchanged():
    matrix = _planted(7, 5, 4, 3)
    rhs = [Fraction(i) for i in range(5)]
    before = copy.deepcopy((matrix, rhs))
    rank(matrix)
    solve(matrix, rhs)
    assert (matrix, rhs) == before
