"""Exact linear algebra over the integers and the rationals.

Small dense matrices only (dimensions here never exceed a few dozen).
Matrices are lists of lists of Fraction or int; vectors are lists of
Fraction or int.  Integers stay integers: products of integer matrices and
vectors are ints, `clear` puts rational entries over one common
denominator, and rank, solve, integer_kernel and inverse share one
fraction-free elimination on rows cleared to integers one at a time.  A
Fraction is built only where a value is handed back, by one division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; booleans are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a boolean, not a number")
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def frac_matrix(rows):
    return [[frac(x) for x in row] for row in rows]


def clear(entries):
    """(q, ints): q the lcm of the denominators of a sequence of ints and
    Fractions, ints the entries times q."""
    q = lcm(*[x.denominator for x in entries])
    return q, [x.numerator * (q // x.denominator) for x in entries]


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat_vec(x, a, y):
    """x^T a y for vectors x, y."""
    return sum(xi * sum(aij * yj for aij, yj in zip(row, y)) for xi, row in zip(x, a))


def mat_add(a, b):
    return [[a[i][j] + b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def mat_sub(a, b):
    return [[a[i][j] - b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def mat_eq(a, b) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0])))


def _bareiss(rows, ncols):
    """Fraction-free echelon form of integer rows, in place; the pivot columns.

    Bareiss elimination (Math. Comp. 22, 1968).  Pivots are sought in the
    first ncols columns, first nonzero row first, and every column of the
    rows is eliminated below each pivot.  After each pivot every remaining
    entry is a minor of the input, so the division by the previous pivot is
    exact and the entries stay integers.  Columns without a pivot are
    skipped; the minors are then taken over the pivot columns found so far,
    and the division stays exact.  A row exchange negates the row moved
    down, so the last pivot is the determinant of the pivot rows and
    columns of the input.
    """
    n = len(rows)
    pivots, prev = [], 1
    for col in range(ncols):
        rk = len(pivots)
        if rk == n:
            break
        pivot = next((i for i in range(rk, n) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rk:
            rows[rk], rows[pivot] = rows[pivot], [-x for x in rows[rk]]
        top = rows[rk]
        p = top[col]
        for i in range(rk + 1, n):
            row = rows[i]
            a = row[col]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots


def _back(rows, pivots, rhs):
    """(D, y): y[i] = D x[pivots[i]] for the echelon system rows x = rhs.

    Free variables are zero and D is the last pivot (1 without pivots).  x
    solves the pivot rows and columns of the input, whose determinant is
    D, so D x is an integer vector by Cramer's rule and every division
    here is exact.
    """
    k = len(pivots)
    d = rows[k - 1][pivots[-1]] if k else 1
    y = [0] * k
    for i in reversed(range(k)):
        row = rows[i]
        s = d * rhs[i] - sum(row[pivots[j]] * y[j] for j in range(i + 1, k))
        y[i] = s // row[pivots[i]]
    return d, y


def _cleared(mat):
    """The rows of mat as ints, each times the lcm of its own denominators."""
    return [clear(row)[1] for row in mat]


def rank(mat) -> int:
    """Exact rank, by fraction-free elimination."""
    if not mat or not mat[0]:
        return 0
    return len(_bareiss(_cleared(mat), len(mat[0])))


def solve(mat, rhs, den: int = 1):
    """One exact solution of mat x = rhs / den, or None if inconsistent.

    Free variables are set to zero.  An integer right side over a common
    denominator den is eliminated as it is and divided by den only in the
    solution.
    """
    m = len(mat[0]) if mat else 0
    rows = _cleared([*row, b if type(b) is int else frac(b)] for row, b in zip(mat, rhs))
    pivots = _bareiss(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    d, y = _back(rows, pivots, [row[m] for row in rows])
    x = [Fraction(0)] * m
    for col, v in zip(pivots, y):
        x[col] = Fraction(v, d * den)
    return x


def integer_kernel(mat):
    """Primitive integer basis of the null space, ordered lexicographically.

    One echelon kernel vector per free column, scaled to integers by the
    last pivot D and then made primitive on its own, first nonzero > 0.
    The basis spans ker(mat) over Q but may span only a sublattice of
    ker(mat) meet Z^n (index 2 or 3 for some conjugates of
    diag(1, 1, -1, -1) on Z^4).
    """
    m = len(mat[0]) if mat else 0
    rows = _cleared(mat)
    pivots = _bareiss(rows, m)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        d, y = _back(rows, pivots, [-row[free] for row in rows])
        v = [0] * m
        v[free] = d
        for col, val in zip(pivots, y):
            v[col] = val
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return sorted(basis)


def inverse(mat):
    n = len(mat)
    rows = _cleared([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat))
    pivots = _bareiss(rows, n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols = [_back(rows, pivots, [row[n + j] for row in rows]) for j in range(n)]
    return [[Fraction(y[i], d) for d, y in cols] for i in range(n)]


def is_integer_vector(v) -> bool:
    return all(frac(x).denominator == 1 for x in v)
