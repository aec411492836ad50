"""Exact linear algebra over the integers and the rationals.

Small dense matrices only (dimensions here never exceed a few dozen), so
plain fraction arithmetic with Gauss elimination is fast enough and avoids
any floating point contamination in the integer/rational code paths.

Matrices are lists of lists of Fraction or int; vectors are lists of
Fraction or int.  Products of integer matrices and vectors stay integers,
and the rank of an integer matrix is found by fraction-free elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def frac_vector(entries):
    return [frac(x) for x in entries]


def zeros(n: int, m: int):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


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


def rref(mat):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    r = [row[:] for row in mat]
    n = len(r)
    m = len(r[0]) if n else 0
    pivots = []
    row = 0
    for col in range(m):
        pivot = None
        for i in range(row, n):
            if r[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        r[row], r[pivot] = r[pivot], r[row]
        inv = Fraction(1) / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(n):
            if i != row and r[i][col] != 0:
                factor = r[i][col]
                r[i] = [a - factor * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return r, pivots


def rank(mat) -> int:
    """Exact rank; integer matrices take the fraction-free Bareiss route."""
    if not mat or not mat[0]:
        return 0
    if all(type(x) is int for row in mat for x in row):
        return _bareiss_rank(mat)
    _, pivots = rref(mat)
    return len(pivots)


def _bareiss_rank(mat) -> int:
    """Rank of an integer matrix by Bareiss elimination (Math. Comp. 1968).

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact and the entries stay integers.
    Columns without a pivot are skipped; the minors are then taken over the
    pivot columns found so far, and the division stays exact.
    """
    r = [list(row) for row in mat]
    n = len(r)
    rk, prev = 0, 1
    for col in range(len(r[0])):
        pivot = next((i for i in range(rk, n) if r[i][col]), None)
        if pivot is None:
            continue
        r[rk], r[pivot] = r[pivot], r[rk]
        top = r[rk]
        p = top[col]
        for i in range(rk + 1, n):
            row = r[i]
            a = row[col]
            r[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        rk += 1
        if rk == n:
            break
    return rk


def det(mat) -> Fraction:
    n = len(mat)
    r = [row[:] for row in mat]
    out = Fraction(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if r[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            r[col], r[pivot] = r[pivot], r[col]
            out = -out
        out *= r[col][col]
        inv = Fraction(1) / r[col][col]
        for i in range(col + 1, n):
            if r[i][col] != 0:
                factor = r[i][col] * inv
                r[i] = [a - factor * b for a, b in zip(r[i], r[col])]
    return out


def solve(mat, rhs):
    """One exact solution of mat x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    aug = [mat[i][:] + [frac(rhs[i])] for i in range(n)]
    r, pivots = rref(aug)
    # pivot in the rhs column means inconsistency
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    prow = 0
    for col in pivots:
        x[col] = r[prow][m]
        prow += 1
    return x


def kernel(mat):
    """Basis of the rational null space, one vector per free column."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    if m == 0:
        return []
    if n == 0:
        return [[Fraction(1 if i == j else 0) for i in range(m)] for j in range(m)]
    r, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(m):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -r[prow][free]
        basis.append(v)
    return basis


def _primitive_integer(v):
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    denoms = [x.denominator for x in v]
    mult = 1
    for d in denoms:
        mult = mult * d // gcd(mult, d)
    ints = [int(x * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def integer_kernel(mat):
    """Primitive integer basis of the null space, ordered lexicographically.

    Each echelon kernel vector is made primitive on its own, so the basis
    spans ker(mat) over Q but may span only a sublattice of ker(mat) meet
    Z^n (index 2 or 3 for some conjugates of diag(1, 1, -1, -1) on Z^4).
    """
    return sorted(_primitive_integer(v) for v in kernel(mat))


def inverse(mat):
    n = len(mat)
    aug = [mat[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def is_integer_vector(v) -> bool:
    return all(frac(x).denominator == 1 for x in v)
