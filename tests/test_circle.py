"""The explicit circle modules: action, operator words, gauge crosscheck."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gaugemods import circle as circle_mod
from gaugemods.circle import (
    CircleElement,
    act_e,
    annihilator_q,
    annihilator_s,
    apply_word,
    basis_leading_terms,
    basis_u,
    basis_v,
    casimir_scalar_check,
    circle_gauge,
    gauge_crosscheck,
    operator_p,
    p_value_on_v0,
    sl2_casimir,
    to_gauge_element,
    witt_bracket_check,
)
from gaugemods.glrep import UEAElement
from gaugemods.linalg import BudgetExceededError
from gaugemods.scenario import run_scenario, validate_scenario

ALPHAS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(5, 3)]

# recorded for the benchmark; read here, never written
EXPECTED = Path(__file__).parents[1] / "perfbench" / "references" / "expected.json"
# the circle scenario of the benchmark's exact_linalg workload at its default seed
EXACT_LINALG_CIRCLE = {"schema": "1", "kind": "circle", "name": "circle",
                       "alphas": ["0", "1", "1/2", "5/3"], "grid": 5, "seed": 0}


class TestAction:
    def test_e0_on_v0(self):
        for a in ALPHAS:
            assert act_e(0, basis_v(a, 0)) == basis_u(a, 0)

    def test_e1_on_v0(self):
        for a in ALPHAS:
            expected = basis_v(a, 1).scale(a) + basis_u(a, 1)
            assert act_e(1, basis_v(a, 0)) == expected

    def test_en_on_uk(self):
        # e_n u_k = (k + alpha n) u_{n+k} + v_{n+k+1}
        a = Fraction(5, 3)
        got = act_e(2, basis_u(a, -1))
        expected = basis_u(a, 1).scale(-1 + 2 * a) + basis_v(a, 2)
        assert got == expected

    def test_zero_element(self):
        zero = CircleElement(Fraction(0), {})
        assert act_e(3, zero).is_zero()

    def test_linearity(self):
        a = Fraction(1, 2)
        x = basis_v(a, 0).scale(Fraction(2, 3)) + basis_u(a, 1).scale(-1)
        lhs = act_e(1, x)
        rhs = act_e(1, basis_v(a, 0)).scale(Fraction(2, 3)) - act_e(1, basis_u(a, 1))
        assert lhs == rhs

    def test_window_guard(self):
        with pytest.raises(BudgetExceededError):
            basis_v(Fraction(0), 40)


class TestWords:
    def test_apply_rightmost_first(self):
        # e_{-1} e_0 applied to v_0 at alpha 0: e_0 first gives u_0,
        # then e_{-1} u_0 = v_0
        w = UEAElement.generator(-1) * UEAElement.generator(0)
        assert apply_word(w, basis_v(0, 0)) == basis_v(0, 0)

    def test_scalar_word(self):
        x = basis_v(Fraction(1, 2), 2)
        assert apply_word(UEAElement.scalar(Fraction(3, 4)), x) == x.scale(Fraction(3, 4))

    def test_s_annihilates_v0_at_alpha_zero(self):
        assert apply_word(annihilator_s(), basis_v(0, 0)).is_zero()

    def test_s_fails_away_from_zero(self):
        got = apply_word(annihilator_s(), basis_v(Fraction(1, 2), 0))
        assert not got.is_zero()

    def test_q_annihilates_v0(self):
        # hand oracle: e_0^2 v_0 = v_1, e_{-1} v_1 = (1-a) v_0 + u_0,
        # and (e_0 + 1 - a) v_0 = u_0 + (1-a) v_0
        for a in [Fraction(1, 3), Fraction(2, 5), Fraction(7)] + ALPHAS:
            assert apply_word(annihilator_q(a), basis_v(a, 0)).is_zero()

    def test_casimir_scalar_on_v0(self):
        for a in ALPHAS:
            got = apply_word(sl2_casimir(), basis_v(a, 0))
            assert got == basis_v(a, 0).scale(a * (a - 1))

    def test_p_value_reported_not_zero(self):
        # the computed value is 2(alpha-1) v_1; nonzero unless alpha = 1
        for a in ALPHAS:
            value = p_value_on_v0(a)
            assert value == basis_v(a, 1).scale(2 * (a - 1))
        assert p_value_on_v0(Fraction(1)).is_zero()
        assert not p_value_on_v0(Fraction(0)).is_zero()


class TestWitt:
    def test_diagonal_trivial(self):
        assert witt_bracket_check(2, 2, basis_v(Fraction(1, 2), 1))

    def test_sl2_pair(self):
        for a in ALPHAS:
            assert witt_bracket_check(1, -1, basis_v(a, 0))

    def test_exhaustive_grid(self):
        for a in ALPHAS:
            vectors = [basis_v(a, k) for k in range(-2, 3)]
            vectors += [basis_u(a, k) for k in range(-2, 3)]
            for n, m in itertools.product(range(-3, 4), repeat=2):
                for x in vectors:
                    assert witt_bracket_check(n, m, x)


class TestCasimirGrid:
    def test_alpha_zero(self):
        assert casimir_scalar_check(Fraction(0)).ok

    def test_alpha_two(self):
        got = apply_word(sl2_casimir(), basis_u(2, 1))
        assert got == basis_u(2, 1).scale(2)

    def test_alpha_half_gamma(self):
        assert casimir_scalar_check(Fraction(1, 2)).ok

    def test_random_combinations(self):
        rng = random.Random(5)
        for a in ALPHAS:
            extras = []
            for _ in range(4):
                x = CircleElement(a, {})
                for _ in range(3):
                    pick = basis_v(a, rng.randint(-3, 3)) if rng.random() < 0.5 \
                        else basis_u(a, rng.randint(-3, 3))
                    x = x + pick.scale(Fraction(rng.randint(-3, 3)))
                extras.append(x)
            assert casimir_scalar_check(a, extras).ok


class TestBasisFamily:
    def test_depth_one(self):
        report = basis_leading_terms(1)
        assert report.leading == ("v[0]", "u[0]")
        assert report.lowest == ("u[-1]",)
        assert report.independent

    def test_depth_three(self):
        report = basis_leading_terms(3)
        assert report.leading == ("v[0]", "u[0]", "v[1]", "u[1]")
        assert report.lowest == ("u[-1]", "u[-2]", "u[-3]")
        assert report.labels_match and report.independent

    def test_depth_zero_single_vector(self):
        report = basis_leading_terms(0)
        assert report.leading == ("v[0]",) and report.independent

    def test_seven_vectors_independent(self):
        assert basis_leading_terms(3).independent  # 7 vectors


class TestGaugeCrosscheck:
    def test_e0_v0_both_give_u0(self):
        cg = circle_gauge(Fraction(0))
        got = cg.space.act(
            [cg.chart.localization.element(cg.variety.ring.var("t"))],
            to_gauge_element(cg, basis_v(0, 0)))
        assert got == to_gauge_element(cg, basis_u(0, 0))

    def test_e1_v0_with_alpha(self):
        a = Fraction(1, 2)
        assert gauge_crosscheck(1, 0, "v", circle_gauge(a))

    def test_exhaustive_grid(self):
        for a in (Fraction(0), Fraction(1, 2)):
            cg = circle_gauge(a)
            for n, k in itertools.product(range(-2, 3), repeat=2):
                for sym in ("v", "u"):
                    assert gauge_crosscheck(n, k, sym, cg)

    def test_a_realization_keeps_each_laurent_monomial(self):
        """One element per t^k and realization, so its remembered tau
        derivatives serve every crosscheck; a new realization builds anew."""
        cg = circle_gauge(Fraction(1, 2))
        loc, ring = cg.chart.localization, cg.variety.ring
        assert cg.laurent(3) is cg.laurent(3) and cg.laurent(-2) is cg.laurent(-2)
        assert cg.laurent(3) == loc.element(ring.var("t") ** 3)
        assert cg.laurent(-2) * cg.laurent(2) == loc.one() == cg.laurent(0)
        assert circle_gauge(Fraction(1, 2)).laurent(3) is not cg.laurent(3)

    def test_gauge_field_axioms_hold(self):
        cg = circle_gauge(Fraction(1, 2))
        assert all(r.ok for r in cg.space.field.validate(cg.space.module))

    def test_lie_action_for_sl2_pair(self):
        # [e_1, e_{-1}] = -2 e_0 through the gauge action, on v_0 and u_0
        from gaugemods.gauge import check_lie_action
        cg = circle_gauge(Fraction(1, 2))
        loc = cg.chart.localization
        t = cg.variety.ring.var("t")
        e1 = [loc.element(t ** 2)]
        em1 = [loc.one()]
        assert cg.space.bracket_coeffs(e1, em1) == [loc.element(-2 * t)]
        for start in (basis_v(Fraction(1, 2), 0), basis_u(Fraction(1, 2), 0)):
            x = to_gauge_element(cg, start)
            assert check_lie_action(cg.space, e1, em1, x).ok


def test_alpha_mismatch_rejected():
    with pytest.raises(ValueError):
        basis_v(0, 0) + basis_v(1, 0)


def test_exact_linalg_circle_scenario_matches_the_recorded_report():
    expected = json.loads(EXPECTED.read_text())
    assert expected["circle_grid"] == EXACT_LINALG_CIRCLE["grid"]
    report = run_scenario(validate_scenario(dict(EXACT_LINALG_CIRCLE)), timing=False)
    assert json.loads(json.dumps(report)) == expected["circle"]


def _witt(scenario: dict) -> dict:
    report = run_scenario(validate_scenario(dict(scenario, checks=["circle.witt"])),
                          timing=False)
    return report["checks"][0]


def test_the_witt_check_acts_once_per_basis_vector_and_generator(count_calls):
    """e_k x is remembered for each basis vector x while the check runs, and
    only brackets with n <= m are built: the grid-5 scenario makes 6,750
    ``act_e`` calls.  It made 11,150 when brackets (n, m) and (m, n) each
    built e_n(e_m x), and 24,830 when every bracket computed its own e_k x."""
    acted = count_calls(circle_mod, "act_e")
    run_scenario(validate_scenario(dict(EXACT_LINALG_CIRCLE)), timing=False)
    assert acted.calls <= 6_750


def test_an_off_by_one_action_fails_the_witt_check(monkeypatch):
    original = act_e
    monkeypatch.setattr(circle_mod, "act_e", lambda n, x: original(n + 1, x))
    assert _witt(EXACT_LINALG_CIRCLE)["status"] == "fail"
    assert not witt_bracket_check(1, 2, basis_v(Fraction(1, 2), 0))


def test_a_wrong_action_on_one_basis_vector_names_the_first_failing_bracket(monkeypatch):
    original, bad = act_e, basis_u(Fraction(1, 2), -1)

    def wrong(n, x):
        y = original(n, x)
        return y + basis_v(x.alpha, 0) if n == 2 and x == bad else y

    monkeypatch.setattr(circle_mod, "act_e", wrong)
    assert _witt(EXACT_LINALG_CIRCLE) == {
        "name": "circle.witt", "status": "fail",
        "witness": "[e_-5, e_2] fails on u[-1] (alpha=1/2)"}


@pytest.mark.parametrize("grid, index", [(7, 17), (8, -18)])
def test_a_grid_too_wide_for_the_window_fails_at_the_same_action(grid, index):
    # the same action as when every bracket computed its own e_k x
    with pytest.raises(BudgetExceededError,
                       match=rf"^index {index} outside the support window \[-16, 16\]$"):
        _witt({"schema": "1", "kind": "circle", "name": "circle",
               "alphas": ["0", "1/2"], "grid": grid, "seed": 0})
