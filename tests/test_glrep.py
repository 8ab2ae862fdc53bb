"""gl_N modules, Casimirs, symmetrized central sums, central characters."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugemods.glrep import (
    GlModule,
    GlModuleError,
    NonScalarActionError,
    UEAElement,
    casimir,
    central_character,
    custom_module,
    evaluate,
    exceptional_check,
    exterior_power,
    hat_omega,
    p_poly_matrix,
    scalar_of,
    stabilizer_sum,
    symmetric_square,
    trivial_module,
)
from gaugemods.linalg import BudgetExceededError
from gaugemods.scenario import central_character_table

from dense_matrices import (
    as_matrix,
    dense,
    identity,
    is_zero_matrix,
    mat_add,
    mat_commutator,
    mat_mul,
    mat_scale,
    mat_sub,
    zero_matrix,
)

# Casimir tables recorded for the benchmark; read here, never written
EXPECTED = Path(__file__).parents[1] / "perfbench" / "references" / "expected.json"


def reference_evaluate(el, m):
    """Word by word: each word a product of dense rho matrices."""
    total = zero_matrix(m.dim)
    for word, coeff in el.terms.items():
        acc = identity(m.dim)
        for (i, j) in word:
            if not (1 <= i <= m.N and 1 <= j <= m.N):
                raise ValueError(f"symbol E_{i}{j} out of range for N={m.N}")
            acc = mat_mul(acc, dense(m.rho[(i, j)]))
        total = mat_add(total, mat_scale(acc, coeff))
    return total


def reference_failure(N, rho):
    """The first (i, j, k, l), in product order, whose commutator relation
    fails on the dense matrices; None if all hold."""
    dim = len(rho[(1, 1)])
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        rhs = zero_matrix(dim)
        if j == k:
            rhs = mat_add(rhs, rho[(i, l)])
        if l == i:
            rhs = mat_sub(rhs, rho[(k, j)])
        if mat_commutator(rho[(i, j)], rho[(k, l)]) != rhs:
            return (i, j, k, l)
    return None


def twisted_natural(alpha):
    """The natural gl_3 module twisted by alpha times the trace and conjugated
    by p: rho(E_ij) = p (E_ij + alpha d_ij I) p^-1, with non-integer entries."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = as_matrix([[1, half, 0], [0, 1, -third], [0, 0, 1]])
    p_inv = as_matrix([[1, -half, -half * third], [0, 1, third], [0, 0, 1]])
    assert mat_mul(p, p_inv) == identity(3)
    rho = {}
    for (i, j), columns in exterior_power(3, 1).rho.items():
        mat = dense(columns)
        shifted = mat_add(mat, mat_scale(identity(3), alpha)) if i == j else mat
        rho[(i, j)] = mat_mul(mat_mul(p, shifted), p_inv)
    return custom_module(3, rho, name="twisted natural")


WORD_MODULES = [exterior_power(3, k) for k in range(4)] + [
    symmetric_square(2),
    symmetric_square(3),
    twisted_natural(Fraction(2, 3)),
]


@st.composite
def word_sums(draw, N):
    """Word sums whose words extend a few shared prefixes and end in a few
    shared suffixes, with fractional coefficients; the empty word may
    appear, as a word, as a prefix or as a suffix."""
    symbol = st.tuples(st.integers(1, N), st.integers(1, N))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    affixes = st.lists(st.lists(symbol, max_size=3).map(tuple), min_size=1, max_size=3)
    prefixes, suffixes = draw(affixes), draw(affixes)
    words = {}
    for _ in range(draw(st.integers(0, 10))):
        middle = tuple(draw(st.lists(symbol, max_size=2)))
        words[draw(st.sampled_from(prefixes)) + middle + draw(st.sampled_from(suffixes))] = \
            draw(coeff)
    return UEAElement(words)


class TestExteriorPower:
    def test_natural_module_action(self):
        nat = exterior_power(2, 1)
        # E_ij e_k = delta_jk e_i
        assert dense(nat.rho[(1, 2)]) == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
        assert dense(nat.rho[(1, 1)]) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))

    def test_trivial_module(self):
        triv = exterior_power(2, 0)
        assert triv.dim == 1
        assert all(dense(m) == ((Fraction(0),),) for m in triv.rho.values())

    def test_determinant_module(self):
        det = exterior_power(3, 3)
        assert det.dim == 1
        for i, j in itertools.product(range(1, 4), repeat=2):
            expected = Fraction(1 if i == j else 0)
            assert dense(det.rho[(i, j)]) == ((expected,),)

    def test_dimensions(self):
        for n in range(1, 5):
            for k in range(n + 1):
                from math import comb
                assert exterior_power(n, k).dim == comb(n, k)

    def test_identity_acts_by_k(self):
        for n in range(1, 5):
            for k in range(n + 1):
                m = exterior_power(n, k)
                total = zero_matrix(m.dim)
                for i in range(1, n + 1):
                    total = tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(total, dense(m.rho[(i, i)])))
                assert total == mat_scale(identity(m.dim), k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exterior_power(2, 3)
        with pytest.raises(ValueError):
            exterior_power(2, -1)


class TestCustomModule:
    def test_scalar_gl1_module(self):
        alpha = Fraction(1, 2)
        m = custom_module(1, {(1, 1): [[alpha, 0], [0, alpha]]})
        assert m.dim == 2

    def test_symmetric_pair_rejected(self):
        eye = [[1, 0], [0, 1]]
        zero = [[0, 0], [0, 0]]
        with pytest.raises(GlModuleError) as err:
            custom_module(2, {(1, 1): zero, (1, 2): eye, (2, 1): eye, (2, 2): zero})
        assert "(i,j,k,l)" in str(err.value)

    def test_all_zero_matrices_valid(self):
        zero = [[0, 0], [0, 0]]
        m = custom_module(2, {(i, j): zero for i in (1, 2) for j in (1, 2)})
        assert m.dim == 2

    def test_fraction_entries_are_kept_and_ints_converted(self):
        half, zero = Fraction(1, 2), Fraction(0)
        m = custom_module(1, {(1, 1): ((half, zero), (0, 2))})
        assert dense(m.rho[(1, 1)]) == ((half, zero), (zero, Fraction(2)))
        (col0, col1), = m.rho.values()
        assert col0 == {0: half} and col0[0] is half
        assert col1 == {1: 2} and type(col1[1]) is int
        m = GlModule(1, {(1, 1): ({0: Fraction(3)}, {1: 3, 0: 0})})
        assert m.rho[(1, 1)] == ({0: 3}, {1: 3})
        assert {type(x) for col in m.rho[(1, 1)] for x in col.values()} == {int}

    def test_missing_matrices_rejected(self):
        with pytest.raises(GlModuleError):
            custom_module(2, {(1, 1): [[1]]})

    def test_twisted_natural_module_valid(self):
        m = WORD_MODULES[-1]
        assert any(x.denominator > 1 for mat in m.rho.values() for row in dense(mat) for x in row)
        assert scalar_of(evaluate(casimir(1, 3), m)) == 1 + 3 * Fraction(2, 3)

    @pytest.mark.parametrize("key", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_every_perturbed_entry_rejected_at_first_failing_relation(self, key):
        # each single-entry change of Sym^2 QQ^2 breaks some relation, and the
        # error names the first one in (i, j, k, l) order
        base = symmetric_square(2)
        for r, c in itertools.product(range(base.dim), repeat=2):
            rho = {k: [list(row) for row in dense(mat)] for k, mat in base.rho.items()}
            rho[key][r][c] += Fraction(1, 2)
            failing = reference_failure(2, {k: as_matrix(mat) for k, mat in rho.items()})
            assert failing is not None
            with pytest.raises(GlModuleError) as err:
                custom_module(2, rho)
            assert f"(i,j,k,l)=({','.join(map(str, failing))})" in str(err.value)


class TestEvaluate:
    def test_single_generator(self):
        nat = exterior_power(2, 1)
        got = evaluate(UEAElement.generator((1, 1)), nat)
        assert dense(got) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))

    def test_omega1_on_exterior_powers(self):
        for n in range(1, 5):
            for k in range(n + 1):
                m = exterior_power(n, k)
                assert scalar_of(evaluate(casimir(1, n), m)) == k

    def test_omega2_on_natural(self):
        assert dense(evaluate(casimir(2, 2), exterior_power(2, 1))) == mat_scale(identity(2), 2)

    def test_empty_word_is_identity(self):
        nat = exterior_power(2, 1)
        assert dense(evaluate(UEAElement.scalar(3), nat)) == mat_scale(identity(2), 3)

    def test_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            evaluate(UEAElement.generator((3, 1)), exterior_power(2, 1))

    def test_out_of_range_symbol_after_shared_prefix(self):
        words = {((1, 2), (2, 1)): Fraction(1), ((1, 2), (1, 3)): Fraction(1, 2)}
        with pytest.raises(ValueError):
            evaluate(UEAElement(words), exterior_power(2, 1))

    @pytest.mark.parametrize("m, word", [
        # every rho(E_ij) is 0 on Lambda^0, and rho(E_21)^2 is 0 on QQ^2
        (exterior_power(2, 0), ((3, 1), (1, 1))),
        (exterior_power(2, 1), ((3, 1), (2, 1), (2, 1))),
    ])
    def test_out_of_range_symbol_behind_a_zero_path(self, m, word):
        with pytest.raises(ValueError, match=r"symbol \(3, 1\) out of range for N=2"):
            evaluate(UEAElement({word: 1, ((1, 1),): 1}), m)

    def test_empty_element_is_zero_matrix(self):
        for m in (exterior_power(3, 2), symmetric_square(2)):
            assert dense(evaluate(UEAElement({}), m)) == zero_matrix(m.dim)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WORD_MODULES).flatmap(
        lambda m: st.tuples(st.just(m), word_sums(m.N))))
    # on Lambda^0 every path is zero, and on Lambda^N every path through
    # an E_ij with i != j
    @example((exterior_power(3, 0), hat_omega(3, 3)))
    @example((exterior_power(3, 3), hat_omega(3, 3)))
    @example((exterior_power(4, 0), casimir(4, 4) + UEAElement.scalar(Fraction(1, 2))))
    @example((exterior_power(4, 4), hat_omega(4, 4)))
    def test_equals_word_by_word_reference(self, case):
        m, el = case
        got = evaluate(el, m)
        assert dense(got) == reference_evaluate(el, m)
        assert len(got) == m.dim and all(x for col in got for x in col.values())


class TestCasimir:
    def test_k1_definition(self):
        assert casimir(1, 2) == UEAElement.generator((1, 1)) + UEAElement.generator((2, 2))

    def test_k2_words(self):
        assert casimir(2, 2).terms == {
            ((1, 1), (1, 1)): Fraction(1),
            ((1, 2), (2, 1)): Fraction(1),
            ((2, 1), (1, 2)): Fraction(1),
            ((2, 2), (2, 2)): Fraction(1),
        }

    def test_centrality_by_evaluation(self):
        modules = [exterior_power(2, k) for k in range(3)] + [symmetric_square(2)]
        for m in modules:
            for k in (1, 2, 3):
                mat = dense(evaluate(casimir(k, 2), m))
                for (i, j), rho in m.rho.items():
                    assert is_zero_matrix(mat_commutator(mat, dense(rho)))


class TestHatOmega:
    def test_formal_identity_k2(self):
        # expanding S_2 gives the identity word-sum plus the transposition sum
        for n in (1, 2, 3):
            o1, o2 = casimir(1, n), casimir(2, n)
            assert hat_omega(2, n) == o1 * o1 + o2

    def test_trivial_module_evaluation(self):
        assert is_zero_matrix(dense(evaluate(hat_omega(2, 2), trivial_module(2))))

    def test_centrality_on_modules(self):
        cases = {2: [2, 3, 4], 3: [2, 3]}
        for n, ks in cases.items():
            modules = [exterior_power(n, k) for k in range(n + 1)]
            modules.append(symmetric_square(n))
            for k in ks:
                hat = hat_omega(k, n)
                for m in modules:
                    mat = dense(evaluate(hat, m))
                    for rho in m.rho.values():
                        assert is_zero_matrix(mat_commutator(mat, dense(rho)))

    def test_budget_guard(self):
        # 5^5 * 5! = 375,000 terms, refused before any expansion
        with pytest.raises(BudgetExceededError, match="375000 exceeds the term budget 200000"):
            hat_omega(5, 5)


class TestPPoly:
    def test_p2_closed_form(self):
        # P_2 = Omega_2 + Omega_1^2 - (N+1) Omega_1, checked by evaluation
        for n in (1, 2, 3):
            o1, o2 = casimir(1, n), casimir(2, n)
            explicit = o2 + o1 * o1 - o1.scale(n + 1)
            for k in range(n + 1):
                m = exterior_power(n, k)
                assert dense(p_poly_matrix(2, m)) == dense(evaluate(explicit, m))

    def test_pk_is_the_symmetrized_sum_minus_scaled_omega1(self):
        # P_k = hat_omega(k) - ((N+k-1)!/N!) Omega_1, each part evaluated densely
        from math import factorial
        for n in (2, 3):
            modules = [exterior_power(n, j) for j in range(n + 1)] + [symmetric_square(n)]
            for k in range(2, n + 1):
                c = factorial(n + k - 1) // factorial(n)
                for m in modules:
                    hat = reference_evaluate(hat_omega(k, n), m)
                    omega1 = reference_evaluate(casimir(1, n), m)
                    assert dense(p_poly_matrix(k, m)) == mat_sub(hat, mat_scale(omega1, c))

    def test_p2_vanishes_on_exterior_powers(self):
        for k in range(3):
            assert is_zero_matrix(dense(p_poly_matrix(2, exterior_power(2, k))))

    def test_p2_on_symmetric_square(self):
        # oracle by hand: Omega_1 = 2, Omega_2 = 6, so P_2 = 6 + 4 - 6 = 4
        assert scalar_of(p_poly_matrix(2, symmetric_square(2))) == 4


class TestCentralCharacter:
    def test_natural_module(self):
        assert central_character(exterior_power(2, 1)) == [1, 2]

    def test_top_power(self):
        assert central_character(exterior_power(2, 2)) == [2, 2]

    def test_block_module_rejected(self):
        # natural (+) trivial: Omega_1 = diag(1, 1, 0) is not scalar
        nat = exterior_power(2, 1)
        rho = {}
        for key, columns in nat.rho.items():
            m = dense(columns)
            rho[key] = [[m[0][0], m[0][1], 0], [m[1][0], m[1][1], 0], [0, 0, 0]]
        block = custom_module(2, rho, name="natural+trivial")
        with pytest.raises(NonScalarActionError) as err:
            central_character(block)
        assert err.value.k == 1


class TestExceptionalCheck:
    def test_exterior_powers_possibly_exceptional(self):
        for k in range(3):
            report = exceptional_check(exterior_power(2, k))
            assert report.verdict == "possibly exceptional"
            assert report.omega1 == k and report.omega1_in_range

    def test_symmetric_square_not_exceptional(self):
        report = exceptional_check(symmetric_square(2))
        assert report.verdict == "not exceptional"
        assert report.p_scalars[2] == 4

    def test_trivial_module_any_n(self):
        for n in (1, 2, 3):
            assert exceptional_check(trivial_module(n)).verdict == "possibly exceptional"

    def test_out_of_range_scalar(self):
        # gl_1 scalar module with alpha = 1/2: not an integer in {0, 1}
        m = custom_module(1, {(1, 1): [[Fraction(1, 2)]]})
        report = exceptional_check(m)
        assert not report.omega1_in_range
        assert report.verdict == "not exceptional"


def test_central_character_table_n4_matches_recorded_reference():
    expected = json.loads(EXPECTED.read_text())["tables"]["4"]
    assert central_character_table(4) == expected


class TestStabilizerSum:
    def test_n2_k2(self):
        # tuples (1,1),(2,2) have stabilizer 2; (1,2),(2,1) have 1
        assert stabilizer_sum(2, 2) == 6

    def test_single_letter(self):
        from math import factorial
        for k in (1, 2, 3, 4):
            assert stabilizer_sum(1, k) == factorial(k)

    def test_n3_k3_brute_force(self):
        # 6 distinct-entry tuples (stab 1) + 18 two-equal (stab 2) + 3 constant (stab 6)
        assert stabilizer_sum(3, 3) == 6 + 36 + 18 == 60

    def test_closed_form_grid(self):
        from math import factorial
        for n in (1, 2, 3):
            for k in (1, 2, 3, 4):
                assert stabilizer_sum(n, k) == factorial(n + k - 1) // factorial(n - 1)

    def test_budget(self):
        # 5^5 * 5! = 375,000 terms, refused before any counting
        with pytest.raises(BudgetExceededError, match="375000 exceeds the term budget 200000"):
            stabilizer_sum(5, 5)

    def test_a_huge_rank_is_refused_without_counting_terms(self):
        # 2^k for k = 10^9 would take 125 MB; the bit-length guard refuses first
        message = "needs more than 200000 expansion terms"
        with pytest.raises(BudgetExceededError, match=message):
            stabilizer_sum(2, 10**9)
        with pytest.raises(BudgetExceededError, match=message):
            hat_omega(10**9, 2)
