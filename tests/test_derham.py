"""The de Rham complex: wedge algebra, differentials, witnesses, obstruction."""

import itertools
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

from gaugemods import derham as derham_mod
from gaugemods import linalg as linalg_mod
from gaugemods import sampling
from gaugemods.derham import (
    FormElement,
    act_form,
    check_complex,
    check_morphism,
    d,
    exterior_action,
    gaussian_obstruction,
    wedge_prepend,
    witness_not_a_morphism,
)
from gaugemods.gauge import GaugeField, GaugeModule
from gaugemods.glrep import exterior_power
from gaugemods.polyring import Polynomial, PolyRing, render

from dense_matrices import dense
from test_linalg import reference_solve


def _zero_b(chart):
    return [chart.localization.zero() for _ in chart.parameters]


def _grad_b(chart, potential):
    g = chart.localization.element(potential)
    return [chart.frame.derive(p, g) for p in chart.parameters]


class TestWedgeAlgebra:
    def test_repeated_index_dies(self):
        assert wedge_prepend(1, (0, 1, 2)) is None

    def test_sign_is_permutation_parity(self):
        # exhaustive for up to 4 parameters: prepending p and bubbling it
        # into place costs one transposition per smaller element
        for n in range(1, 5):
            for k in range(n):
                for subset in itertools.combinations(range(n), k):
                    for p in range(n):
                        hit = wedge_prepend(p, subset)
                        if p in subset:
                            assert hit is None
                            continue
                        sign, merged = hit
                        assert merged == tuple(sorted(subset + (p,)))
                        assert sign == (-1) ** sum(1 for x in subset if x < p)

    def test_exterior_action_signs_are_ints(self):
        # (-1) ** k is the float -1.0 for a negative odd k
        signs = [hit[0] for n in range(1, 5) for k in range(n + 1)
                 for subset in itertools.combinations(range(n), k)
                 for p, i in itertools.product(range(n), repeat=2)
                 if (hit := exterior_action(p, i, subset)) is not None]
        assert {type(s) for s in signs} == {int} and set(signs) == {-1, 1}

    def test_exterior_action_matches_matrix_realization(self):
        # the combinatorial replacement must agree with the wedge matrices
        for n in range(1, 5):
            for k in range(n + 1):
                module = exterior_power(n, k)
                subsets = list(itertools.combinations(range(n), k))
                for p, i in itertools.product(range(n), repeat=2):
                    mat = dense(module.rho[(p + 1, i + 1)])
                    for col, subset in enumerate(subsets):
                        column = {r: mat[r][col] for r in range(module.dim)
                                  if mat[r][col]}
                        hit = exterior_action(p, i, subset)
                        if hit is None:
                            assert column == {}
                        else:
                            sign, target = hit
                            assert column == {subsets.index(target): Fraction(sign)}


class TestDifferential:
    def test_constant_wedge_killed(self, affine3):
        # d(1 (x) e_1..e_k) = 0 with zero gauge fields
        chart = affine3.charts[0]
        loc = chart.localization
        B = _zero_b(chart)
        for k in range(3):
            x = FormElement(chart, k, {tuple(range(k)): loc.one()})
            assert d(B, x).is_zero()

    def test_shifted_wedge_fills_in(self, affine3):
        # d(x_1 (x) e_2..e_{k+1}) = 1 (x) e_1..e_{k+1}
        chart = affine3.charts[0]
        loc = chart.localization
        t1 = loc.element(affine3.ring.var("x"))
        B = _zero_b(chart)
        for k in range(3):
            x = FormElement(chart, k, {tuple(range(1, k + 1)): t1})
            expected = FormElement(chart, k + 1, {tuple(range(k + 1)): loc.one()})
            assert d(B, x) == expected

    def test_gaussian_scalar_field_degree_zero(self, affine1):
        # with B = (-2x): d(1 (x) 1) = -2x (x) e_1
        chart = affine1.charts[0]
        loc = chart.localization
        x = affine1.ring.var("x")
        B = [loc.element(-2 * x)]
        got = d(B, FormElement(chart, 0, {(): loc.one()}))
        assert got == FormElement(chart, 1, {(0,): loc.element(-2 * x)})

    def test_top_degree_rejected(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        top = FormElement(chart, 2, {(0, 1): loc.one()})
        with pytest.raises(ValueError):
            d(_zero_b(chart), top)


class TestComplex:
    def test_zero_b_on_affine2(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        x = FormElement(chart, 0, {(): loc.element(
            affine2.ring.var("x") * affine2.ring.var("y") ** 2)})
        assert check_complex(_zero_b(chart), x).ok

    def test_sphere_localized_sample(self, sphere):
        chart = sphere.chart("z")
        loc = chart.localization
        x = FormElement(chart, 0, {(): loc.element(sphere.ring.var("x"), 1)})
        assert check_complex(_zero_b(chart), x).ok

    def test_invalid_b_breaks_complex(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        ring = affine2.ring
        bad = [loc.element(ring.var("y")), loc.element(-ring.var("x"))]
        result = check_complex(bad, FormElement(chart, 0, {(): loc.one()}))
        assert not result.ok and result.witness

    def test_seeded_samples(self, affine2, affine3, sphere):
        for variety, samples in ((affine2, 25), (affine3, 25), (sphere, 10)):
            chart = variety.charts[0] if not variety.generators else variety.chart("z")
            n = len(chart.parameters)
            rng = random.Random(101)
            for b_choice in range(2):
                B = _zero_b(chart) if b_choice == 0 else _grad_b(
                    chart, variety.ring.var(chart.parameters[0]) ** 2)
                for _ in range(samples):
                    degree = rng.randrange(0, n - 1) if n > 1 else 0
                    if degree > n - 2:
                        continue
                    subsets = list(itertools.combinations(range(n), degree))
                    x = FormElement(chart, degree, {
                        rng.choice(subsets): sampling.localized(rng, chart.localization)})
                    assert check_complex(B, x).ok


class TestMorphism:
    def test_simple_affine2(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        eta = [loc.one(), loc.zero()]
        x = FormElement(chart, 0, {(): loc.element(affine2.ring.var("x"))})
        assert check_morphism(_zero_b(chart), eta, x).ok

    def test_constant_on_constant(self, affine2):
        chart = affine2.charts[0]
        loc = chart.localization
        eta = [loc.element(3), loc.element(Fraction(1, 2))]
        x = FormElement(chart, 0, {(): loc.one()})
        assert check_morphism(_zero_b(chart), eta, x).ok

    def test_seeded_samples(self, affine2, sphere):
        for variety, samples in ((affine2, 25), (sphere, 10)):
            chart = variety.charts[0] if not variety.generators else variety.chart("z")
            n = len(chart.parameters)
            rng = random.Random(103)
            B = _grad_b(chart, variety.ring.var(chart.parameters[0]))
            for _ in range(samples):
                degree = rng.randrange(0, n)
                subsets = list(itertools.combinations(range(n), degree))
                x = FormElement(chart, degree, {
                    rng.choice(subsets): sampling.localized(rng, chart.localization)})
                eta = sampling.chart_field(rng, chart)
                assert check_morphism(B, eta, x).ok


class TestNotAMorphism:
    def test_affine1_witness(self, affine1):
        chart = affine1.charts[0]
        f, x, lhs, rhs = witness_not_a_morphism(chart, _zero_b(chart))
        loc = chart.localization
        assert lhs == FormElement(chart, 1, {(0,): loc.one()})
        assert rhs.is_zero()

    def test_affine2_witness(self, affine2):
        chart = affine2.charts[0]
        f, x, lhs, rhs = witness_not_a_morphism(chart, _zero_b(chart))
        assert not (lhs == rhs)

    def test_zero_dimensional_chart_rejected(self):
        # a point has no chart parameters, so no witness exists
        from gaugemods.variety import Variety
        ring = PolyRing(("x", "y"))
        point = Variety(ring, [ring.var("x"), ring.var("y")])
        (chart,) = point.charts
        assert chart.parameters == ()
        with pytest.raises(ValueError):
            witness_not_a_morphism(chart, [])


class TestGaugeConsistency:
    def test_action_matches_gauge_module(self, affine2, sphere):
        for variety in (affine2, sphere):
            chart = variety.charts[0] if not variety.generators else variety.chart("z")
            n = len(chart.parameters)
            rng = random.Random(107)
            B = _grad_b(chart, variety.ring.var(chart.parameters[0]) ** 2)
            for _ in range(8):
                k = rng.randrange(0, n + 1)
                module = exterior_power(n, k)
                gm = GaugeModule(chart, module,
                                 GaugeField.scalar(chart, B, module.dim))
                subsets = list(itertools.combinations(range(n), k))
                index = {s: c for c, s in enumerate(subsets)}
                x = FormElement(chart, k, {
                    rng.choice(subsets): sampling.localized(rng, chart.localization)})
                eta = sampling.chart_field(rng, chart)
                via_forms = act_form(B, eta, x)
                expected = gm.element({index[s]: c for s, c in via_forms.terms.items()})
                got = gm.act(eta, gm.element({index[s]: c for s, c in x.terms.items()}))
                assert got == expected


class TestObstruction:
    def test_gaussian_infeasible_n1(self):
        assert gaussian_obstruction(1, 6).status == "INFEASIBLE_UP_TO_D"

    def test_gaussian_infeasible_n2(self):
        assert gaussian_obstruction(2, 4).status == "INFEASIBLE_UP_TO_D"

    def test_divergence_control_feasible(self):
        result = gaussian_obstruction(1, 1, 0)
        assert result.feasible
        (f,) = result.solution
        assert render(f) == "x1"

    def test_control_solution_verified_by_substitution(self):
        result = gaussian_obstruction(2, 2, 0)
        assert result.feasible
        ring = result.solution[0].ring
        total = ring.zero()
        for i, f in enumerate(result.solution):
            total = total + f.partial(ring.variables[i])
        assert total == ring.one()

    def test_full_size_gaussian_infeasible_and_control_feasible(self):
        # the benchmark's size: 330 x 840 and 126 x 840 systems
        assert gaussian_obstruction(4, 6).status == "INFEASIBLE_UP_TO_D"
        assert gaussian_obstruction(4, 6, 0).status == "FEASIBLE"

    def test_full_size_control_solution(self):
        # the reduced echelon form, and so the solution with free unknowns
        # zero, is unique, whatever arithmetic the elimination does
        (f1, f2, f3, f4) = gaussian_obstruction(4, 6, 0).solution
        assert f1 == f1.ring.var("x1") and f2.is_zero() and f3.is_zero() and f4.is_zero()

    def test_gaussian_scale_recorded(self):
        result = gaussian_obstruction(1, 2)
        assert result.scale == Fraction(-2) and result.N == 1 and result.max_degree == 2

    @pytest.mark.parametrize("args", [(2, 0), (1, 0, 0)])
    def test_degree_zero_is_infeasible(self, args):
        # no unknown reaches the target 1 at D = 0; its equation must still be there
        assert gaussian_obstruction(*args).status == "INFEASIBLE_UP_TO_D"

    @pytest.mark.parametrize("scale", [-2, 0, Fraction(1, 3), Fraction(-5, 7)])
    @pytest.mark.parametrize("N, D", [(1, 0), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_equals_the_dense_reference_solve(self, N, D, scale):
        solution = _dense_reference_obstruction(N, D, Fraction(scale))
        result = gaussian_obstruction(N, D, scale)
        assert result.feasible == (solution is not None)
        if solution is not None:
            assert [f.terms for f in result.solution] == solution

    def test_solver_gets_sparse_int_rows(self, monkeypatch):
        seen, solve = [], derham_mod._solve_exact

        def record(rows, ncols):
            seen.append((rows, ncols))
            return solve(rows, ncols)

        monkeypatch.setattr(derham_mod, "_solve_exact", record)
        assert not gaussian_obstruction(1, 2, Fraction(-5, 7)).feasible
        [(rows, ncols)] = seen
        assert ncols == 3 and all(isinstance(row, Mapping) for row in rows)
        # f = c0 + c1 x + c2 x^2 in f' - 5/7 x f = 1, times 7, one row per
        # power of x: 7 c1 = 7, 14 c2 - 5 c0 = 0, -5 c1 = 0, -5 c2 = 0
        assert rows == [{1: 7, 3: 7}, {0: -5, 2: 14}, {1: -5}, {2: -5}]
        assert all(type(x) is int for row in rows for x in row.values())

    def test_elimination_work_follows_the_rows(self, monkeypatch):
        # a chain of 302 two-entry rows: eliminating each new pivot from
        # every earlier pivot row that holds its column took 11,475 steps
        steps, seen = [0], []
        eliminate, solve = linalg_mod._eliminate, derham_mod._solve_exact

        def count(*args):
            steps[0] += 1
            return eliminate(*args)

        def record(rows, ncols):
            seen.append(len(rows))
            return solve(rows, ncols)

        monkeypatch.setattr(linalg_mod, "_eliminate", count)
        monkeypatch.setattr(derham_mod, "_solve_exact", record)
        assert not gaussian_obstruction(1, 300).feasible
        assert seen == [302] and steps[0] <= 2 * 302

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_obstruction(0, 3)
        with pytest.raises(ValueError):
            gaussian_obstruction(1, -1)


def _dense_reference_obstruction(N: int, D: int, scale: Fraction):
    """The obstruction system built as a dense Fraction matrix, with the
    unknowns f_i's coefficients in ``gaussian_obstruction``'s order (i, then
    degree, then exponents ascending), and solved by the dense reference
    elimination; the f_i's terms, or None if there is no solution."""
    monomials = [e for deg in range(D + 1)
                 for e in sorted(itertools.product(range(deg + 1), repeat=N)) if sum(e) == deg]
    unknowns = [(i, e) for i in range(N) for e in monomials]
    one = (0,) * N
    equations = sorted({e[:i] + (e[i] + s,) + e[i + 1:] for i, e in unknowns for s in (-1, 1)
                        if e[i] + s >= 0} | {one})
    row = {e: r for r, e in enumerate(equations)}
    matrix = [[Fraction(0)] * len(unknowns) for _ in equations]
    for c, (i, e) in enumerate(unknowns):
        if e[i]:
            matrix[row[e[:i] + (e[i] - 1,) + e[i + 1:]]][c] += e[i]
        matrix[row[e[:i] + (e[i] + 1,) + e[i + 1:]]][c] += scale
    x = reference_solve(matrix, [Fraction(e == one) for e in equations])
    if x is None:
        return None
    terms = [{} for _ in range(N)]
    for c, (i, e) in enumerate(unknowns):
        if x[c]:
            terms[i][e] = x[c]
    return terms


def test_form_element_validation(affine2):
    chart = affine2.charts[0]
    loc = chart.localization
    with pytest.raises(ValueError):
        FormElement(chart, 1, {(0, 1): loc.one()})
    with pytest.raises(ValueError):
        FormElement(chart, 1, {(5,): loc.one()})
    with pytest.raises(ValueError):
        FormElement(chart, 3, {})
