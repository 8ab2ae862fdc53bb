"""Finite-dimensional gl_N representations and central-element machinery.

A module is a family of dim x dim rational matrices rho(E_ij), kept as
sparse columns, satisfying the elementary-matrix commutation relations,
validated at construction.
On top of that sit the cyclic Casimir elements Omega_k, the fully
symmetrized central sums, their central combinations P_k, central
characters, and the test for the finitely many modules whose gauge
modules can degenerate over the vector-field Lie algebra.

Formal elements of the enveloping algebra are plain word sums; no PBW
normalization is performed, and symbolic identities are certified by
exact evaluation on families of modules.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .linalg import BudgetExceededError, Combination, Row, add_term

TERM_BUDGET = 200_000


def check_term_budget(N: int, k: int) -> None:
    """Raise unless the N^k*k! terms of a sum over index tuples and S_k fit
    in the budget."""
    if N >= 2 and k >= TERM_BUDGET.bit_length():
        # N^k >= 2^k > budget, without building N^k for a huge k
        raise BudgetExceededError(
            f"N^k*k! for N={N}, k={k} needs more than {TERM_BUDGET} expansion terms")
    count = (N ** k) * math.factorial(k)
    if count > TERM_BUDGET:
        raise BudgetExceededError(f"N^k*k! = {count} exceeds the term budget {TERM_BUDGET}")


class GlModuleError(ValueError):
    """Raised when candidate matrices violate the gl_N relations."""


class NonScalarActionError(ValueError):
    """Raised when a central element fails to act by a scalar."""

    def __init__(self, k: int, columns: Columns):
        super().__init__(f"Omega_{k} does not act as a scalar matrix")
        self.k = k
        self.columns = columns


# -- sparse matrices -----------------------------------------------------------
#
# A matrix is kept as its columns: column c maps each row r to the nonzero
# entry (r, c), an int where the entry is integral and a Fraction otherwise,
# so that word products multiply ints.

Columns = tuple[Row, ...]


def scalar_of(columns: Columns) -> Fraction | None:
    """The scalar c with columns == c*I, or None if there is none."""
    c = columns[0].get(0, 0)
    for j, col in enumerate(columns):
        if col != ({j: c} if c else {}):
            return None
    return Fraction(c)


def sparse_sum(n: int,
               terms: Iterable[tuple[Fraction | int, Columns, Columns]]) -> Columns:
    """The n x n sum of c * a * b over the (c, a, b) in terms, every matrix
    given by its sparse rows, which are the columns of its transpose.

    Each product costs one step per pair of nonzeros that meet."""
    acc: list[Row] = [{} for _ in range(n)]
    for c, a, b in terms:
        for out, row in zip(acc, a):
            for k, x in row.items():
                cx = x if c == 1 else c * x
                for j, y in b[k].items():
                    if j in out:
                        out[j] += cx * y
                    else:
                        out[j] = cx * y
    return tuple({j: x for j, x in row.items() if x} for row in acc)


# -- modules -----------------------------------------------------------------

class GlModule:
    """A gl_N module given by the columns of the matrices rho(E_ij),
    indices 1-based.

    The commutation relations
        [rho(E_ij), rho(E_kl)] = d_jk rho(E_il) - d_li rho(E_kj)
    are verified at construction; a violation raises ``GlModuleError``
    naming the failing index quadruple.
    """

    def __init__(self, N: int, rho: Mapping[tuple[int, int], Columns],
                 name: str = "", basis_labels: Sequence[str] | None = None):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N
        # an int stays an int, and an integral Fraction becomes one
        self.rho = {key: tuple({r: x.numerator if x.denominator == 1 else x
                                for r, x in col.items() if x} for col in cols)
                    for key, cols in rho.items()}
        dims = {len(cols) for cols in self.rho.values()}
        if len(dims) != 1:
            raise GlModuleError("matrices of unequal size")
        self.dim = dims.pop()
        if self.dim == 0:
            raise GlModuleError("a module needs dimension at least 1")
        if any(not 0 <= r < self.dim for cols in self.rho.values() for col in cols
               for r in col):
            raise GlModuleError("non-square matrix")
        expected = {(i, j) for i in range(1, N + 1) for j in range(1, N + 1)}
        if set(self.rho) != expected:
            raise GlModuleError("need exactly the matrices rho(E_ij), 1 <= i,j <= N")
        self.name = name or f"gl{N}-module(dim {self.dim})"
        self.basis_labels = tuple(basis_labels) if basis_labels else tuple(
            f"b{i}" for i in range(self.dim))
        self._validate()

    def _validate(self) -> None:
        rho, one = self.rho, tuple({i: 1} for i in range(self.dim))
        # R(k,l,i,j) = -R(i,j,k,l) and R(i,j,i,j) = 0, so only (i,j) < (k,l)
        # is checked, in (i,j,k,l) order: a failing (i,j) > (k,l) has its
        # mirror earlier in that order
        pairs = itertools.product(range(1, self.N + 1), repeat=2)
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            # ab - ba - d_jk rho(E_il) + d_li rho(E_kj) must vanish; the
            # columns are the rows of the transposes, so ab is b^T a^T
            a, b = rho[(i, j)], rho[(k, l)]
            terms = [(1, b, a), (-1, a, b)]
            if j == k:
                terms.append((-1, rho[(i, l)], one))
            if l == i:
                terms.append((1, rho[(k, j)], one))
            if any(sparse_sum(self.dim, terms)):
                raise GlModuleError(
                    f"commutator relation fails for (i,j,k,l)=({i},{j},{k},{l})"
                )

    def __repr__(self) -> str:
        return f"GlModule({self.name}, N={self.N}, dim={self.dim})"


def exterior_power(N: int, k: int) -> GlModule:
    """The k-th exterior power of the natural N-dimensional module.

    Basis: increasing k-subsets of {1..N} in lexicographic order.  The
    sum of the E_ii acts by the scalar k; k = 0 is the trivial module.
    """
    if not 0 <= k <= N:
        raise ValueError(f"k must satisfy 0 <= k <= N, got k={k}, N={N}")
    basis = list(itertools.combinations(range(1, N + 1), k))
    index = {s: c for c, s in enumerate(basis)}
    rho: dict[tuple[int, int], Columns] = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            cols: list[Row] = [{} for _ in basis]
            for col, subset in enumerate(basis):
                for pos, elem in enumerate(subset):
                    if elem != j:
                        continue
                    # e_j at this slot becomes e_i; kill repeats, sort with sign
                    rest = subset[:pos] + subset[pos + 1:]
                    if i in rest:
                        continue
                    merged = tuple(sorted(rest + (i,)))
                    smaller = sum(1 for x in rest if x < i)
                    cols[col][index[merged]] = -1 if (pos - smaller) % 2 else 1
            rho[(i, j)] = tuple(cols)
    labels = ["1"] if k == 0 else ["e(" + ",".join(map(str, s)) + ")" for s in basis]
    return GlModule(N, rho, name=f"Lambda^{k} QQ^{N}", basis_labels=labels)


def trivial_module(N: int) -> GlModule:
    return exterior_power(N, 0)


def custom_module(N: int, matrices: Mapping[tuple[int, int], Sequence[Sequence]],
                  name: str = "custom") -> GlModule:
    """Build a module from user matrices, each a list of rows; relations
    are fully validated.  An entry that is a Fraction already is kept."""
    rho = {}
    for key, m in matrices.items():
        if any(len(row) != len(m) for row in m):
            raise GlModuleError("non-square matrix")
        rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in m]
        rho[key] = tuple({r: row[c] for r, row in enumerate(rows) if row[c]}
                         for c in range(len(rows)))
    return GlModule(N, rho, name=name)


def symmetric_square(N: int) -> GlModule:
    """Sym^2 of the natural module, acting by derivations on e_a e_b."""
    basis = list(itertools.combinations_with_replacement(range(1, N + 1), 2))
    index = {s: c for c, s in enumerate(basis)}
    rho: dict[tuple[int, int], Columns] = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            cols: list[Row] = [{} for _ in basis]
            for col, (a, b) in enumerate(basis):
                for slot, other in ((a, b), (b, a)):
                    if slot == j:
                        target = tuple(sorted((i, other)))
                        add_term(cols[col], index[target], 1)
            rho[(i, j)] = tuple(cols)
    return GlModule(N, rho, name=f"Sym^2 QQ^{N}",
                    basis_labels=[f"e{a}e{b}" for a, b in basis])


# -- enveloping-algebra word sums ---------------------------------------------

Word = tuple[Hashable, ...]


class UEAElement(Combination):
    """A finite rational combination of words in hashable symbols.

    The symbol (i, j) stands for E_ij of gl_N (see ``evaluate``); the
    circle modules use the integer n for the Witt generator e_n.  A
    word is read left to right; the empty word is the scalar 1.
    ``evaluate`` keeps the words' suffix trie on the element, built on
    first use: like ``terms`` of a cached ``casimir``, never change it.
    """

    __slots__ = ("_trie",)

    def __init__(self, terms: Mapping[Word, Fraction | int]) -> None:
        super().__init__(terms)
        self._trie: "tuple[_Node, tuple[Hashable, ...]] | None" = None

    @classmethod
    def generator(cls, symbol: Hashable) -> "UEAElement":
        return cls({(symbol,): Fraction(1)})

    @classmethod
    def scalar(cls, c: Fraction | int) -> "UEAElement":
        return cls({(): Fraction(c)})

    def __mul__(self, other: "UEAElement") -> "UEAElement":
        out: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                add_term(out, wa + wb, ca * cb)
        return UEAElement(out)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"UEAElement({len(self.terms)} words)"


# a suffix-trie node, [c, children]: c is the coefficient of the word that
# ends here (0 if none), and children maps each symbol that the words
# through here have before it to a node
_Node = list


def _suffix_trie(words: Mapping[Word, Fraction | int]) -> tuple[_Node, tuple[Hashable, ...]]:
    """The words read from their last symbol, as a trie, and every symbol."""
    root: _Node = [0, {}]
    symbols: dict[Hashable, None] = {}
    for word, coeff in words.items():
        symbols.update(dict.fromkeys(word))
        node = root
        for a in reversed(word):
            node = node[1].setdefault(a, [0, {}])
        node[0] = coeff
    return root, tuple(symbols)


def evaluate(el: UEAElement, m: GlModule) -> Columns:
    """Evaluate a word sum on a module, one basis vector v at a time:
    E(S) v = c_() * v + sum over symbols a of E(S_a)(rho(a) v),
    where S_a holds the words of S ending in a, with that a taken off.
    A path whose vector is zero is dropped with its whole subtree, but
    every symbol is checked against the module first.  Returns the
    columns of the value, as ``GlModule.rho`` keeps them."""
    if el._trie is None:
        el._trie = _suffix_trie(el.terms)
    root, symbols = el._trie
    rho = m.rho
    for a in symbols:
        if a not in rho:
            raise ValueError(f"symbol {a!r} out of range for N={m.N}")
    columns = []
    for j in range(m.dim):
        out: Row = {}
        _apply(root, {j: 1}, rho, out)
        columns.append(out)
    return tuple(columns)


def _apply(node: _Node, v: Row, rho: Mapping[Hashable, Columns], out: Row) -> None:
    """out += E(S) v, for S the words of the trie below node; v is nonzero."""
    coeff, children = node
    if coeff:
        for i, x in v.items():
            add_term(out, i, coeff * x)
    for a, child in children.items():
        cols = rho[a]
        w: Row = {}
        for k, x in v.items():
            for i, y in cols[k].items():
                w[i] = w[i] + x * y if i in w else x * y
        w = {i: x for i, x in w.items() if x}
        if w:
            _apply(child, w, rho, out)


@functools.lru_cache
def casimir(k: int, N: int) -> UEAElement:
    """Omega_k: the cyclic sum over index tuples of E_{i1 i2}...E_{ik i1}.

    Cached: the result is shared, so never change its terms.  The word
    counts are ints."""
    if k < 1:
        raise ValueError("k must be at least 1")
    words: dict[Word, int] = {}
    for idx in itertools.product(range(1, N + 1), repeat=k):
        word = tuple((idx[a], idx[(a + 1) % k]) for a in range(k))
        words[word] = words.get(word, 0) + 1
    return UEAElement(words)


@functools.lru_cache
def hat_omega(k: int, N: int) -> UEAElement:
    """The fully symmetrized central sum over index tuples and permutations.

    Cached, like ``casimir``: every module of a table evaluates the same sums."""
    if k < 2:
        raise ValueError("k must be at least 2")
    check_term_budget(N, k)
    words: dict[Word, int] = {}
    perms = list(itertools.permutations(range(k)))
    for idx in itertools.product(range(1, N + 1), repeat=k):
        for sigma in perms:
            word = tuple((idx[sigma[a]], idx[a]) for a in range(k))
            words[word] = words.get(word, 0) + 1
    return UEAElement(words)


@functools.lru_cache
def p_poly(k: int, N: int) -> UEAElement:
    """The central combination P_k = (symmetrized sum) - ((N+k-1)!/N!) * Omega_1,
    which vanishes exactly on the exterior powers of the natural module.

    Cached, like ``casimir``."""
    hat = hat_omega(k, N)
    return hat - casimir(1, N).scale(math.factorial(N + k - 1) // math.factorial(N))


def p_poly_matrix(k: int, m: GlModule) -> Columns:
    """Evaluate the central combination P_k on a module."""
    return evaluate(p_poly(k, m.N), m)


def central_character(m: GlModule) -> list[Fraction]:
    """Scalars of Omega_1..Omega_N; raises if any acts non-scalarly."""
    out = []
    for k in range(1, m.N + 1):
        columns = evaluate(casimir(k, m.N), m)
        c = scalar_of(columns)
        if c is None:
            raise NonScalarActionError(k, columns)
        out.append(c)
    return out


class ExceptionalReport(NamedTuple):
    """Outcome of the exceptional-module test for one module.

    ``verdict`` is "possibly exceptional" when the trace Casimir scalar
    lies in {0..N} and every P_k vanishes; simplicity of the module is
    assumed, not decided, so the verdict is never stronger than
    "possibly".
    """

    module: str
    N: int
    omega: tuple[Fraction, ...]
    omega1_in_range: bool
    p_scalars: dict[int, Fraction | None]
    verdict: str

    @property
    def omega1(self) -> Fraction:
        return self.omega[0]


def exceptional_check(m: GlModule) -> ExceptionalReport:
    chi = central_character(m)  # propagates NonScalarActionError
    omega1 = chi[0]
    in_range = omega1.denominator == 1 and 0 <= omega1 <= m.N
    p_scalars: dict[int, Fraction | None] = {}
    all_zero = True
    for k in range(2, m.N + 1):
        pk = scalar_of(p_poly_matrix(k, m))
        p_scalars[k] = pk
        if pk != 0:
            all_zero = False
    verdict = "possibly exceptional" if (in_range and all_zero) else "not exceptional"
    return ExceptionalReport(m.name, m.N, tuple(chi), in_range, p_scalars, verdict)


def stabilizer_sum(N: int, k: int) -> int:
    """Brute-force sum of |Stab(i)| over index tuples under the S_k action.

    Asserted equal to (N+k-1)!/(N-1)! -- the closed form the orbit count
    gives; a mismatch raises, since it would falsify the combinatorics
    the central combinations rely on.
    """
    check_term_budget(N, k)
    total = 0
    perms = list(itertools.permutations(range(k)))
    for idx in itertools.product(range(1, N + 1), repeat=k):
        total += sum(1 for sigma in perms
                     if all(idx[sigma[a]] == idx[a] for a in range(k)))
    expected = math.factorial(N + k - 1) // math.factorial(N - 1)
    if total != expected:
        raise AssertionError(
            f"stabilizer sum {total} != (N+k-1)!/(N-1)! = {expected} for N={N}, k={k}"
        )
    return total
