"""Dense exact matrix helpers used only by the tests, for reference
computations and commutator checks on ``glrep`` matrices, which the
package keeps as sparse columns; ``dense`` gives their dense view."""

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def dense(columns) -> Matrix:
    """The matrix whose column c maps each row r to its entry; every
    entry a Fraction."""
    zero = Fraction(0)
    return tuple(tuple(Fraction(col[r]) if r in col else zero for col in columns)
                 for r in range(len(columns)))


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zero_matrix(n: int) -> Matrix:
    zero = Fraction(0)
    return tuple((zero,) * n for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i, row in enumerate(a):
        oi = out[i]
        for k, aik in enumerate(row):
            if aik:
                bk = b[k]
                for j in range(m):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return tuple(tuple(r) for r in out)


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)
