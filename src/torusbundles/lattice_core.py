"""Integer bundle data and the nilpotent lattice group law.

A bundle datum consists of integers m, d and a family of 2d antisymmetric
integer matrices of size 2m x 2m, one matrix per coordinate of the fiber
lattice Z^(2d).  The family encodes an alternating bilinear form A on
Z^(2m) with values in Z^(2d).

The associated group lives on pairs (y, x) with y in R^(2d), x in R^(2m).
Writing A = T- minus its transpose for the strictly lower triangular part
T-, the product is

    (y, x) (y', x') = (y + y' + T-(x, x'), x + x'),

a two step nilpotent extension whose commutators land in the center and
equal the form values A(x, x').  The quadratic correction

    S = -(T- + transpose(T-)) / 4

conjugates the coordinate action of the lattice into the normalized action

    (y, x) . gamma = (y + A(x, gamma) + 2 S(gamma, gamma), x + gamma)

via the change of coordinates Psi(y, x) = (2 (y + S(x, x)), x).

Everything in this module is exact: integer data stays in Python ints, and
rational data is exact Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _rational as ratl


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class BundleDatum:
    """Integers m >= 1, d >= 1 and 2d antisymmetric 2m x 2m integer matrices.

    components[k][i][j] is the k-th coordinate of A(e_i, e_j).
    """

    m: int
    d: int
    components: tuple

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be positive integers")
        comps = tuple(tuple(tuple(entry for entry in row) for row in mat) for mat in self.components)
        if len(comps) != 2 * self.d:
            raise ValueError(
                f"expected {2 * self.d} component matrices, got {len(comps)}"
            )
        n = 2 * self.m
        for k, mat in enumerate(comps):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"components[{k}] must be {n}x{n}")
            for i in range(n):
                for j in range(n):
                    entry = mat[i][j]
                    if not isinstance(entry, int) or isinstance(entry, bool):
                        raise ValueError(
                            f"components[{k}][{i}][{j}] is not an integer"
                        )
                    if mat[i][j] != -mat[j][i]:
                        raise ValueError(
                            f"components[{k}][{i}][{j}] breaks antisymmetry"
                        )
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class NormalizationDatum:
    """Strictly lower triangular splitting T- of A and the symmetric S.

    T_minus has integer entries, S has entries in (1/4) Z.
    """

    T_minus: tuple
    S: tuple

    def __post_init__(self):
        tm = tuple(tuple(tuple(x for x in row) for row in mat) for mat in self.T_minus)
        s = tuple(
            tuple(tuple(ratl.frac(x) for x in row) for row in mat) for mat in self.S
        )
        for k, mat in enumerate(tm):
            for i in range(len(mat)):
                for j in range(i, len(mat)):
                    if mat[i][j] != 0:
                        raise ValueError(
                            f"T_minus[{k}][{i}][{j}] must vanish on and above the diagonal"
                        )
        object.__setattr__(self, "T_minus", tm)
        object.__setattr__(self, "S", s)


@dataclass(frozen=True)
class GroupElement:
    """Element (y, x) of the extension group, y central part, x base part."""

    y: tuple
    x: tuple
    is_lattice: bool = False

    def __post_init__(self):
        y = tuple(ratl.frac(v) for v in self.y)
        x = tuple(ratl.frac(v) for v in self.x)
        if self.is_lattice:
            if not ratl.is_integer_vector(y) or not ratl.is_integer_vector(x):
                raise ValueError("lattice elements need integer coordinates")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)


# ---------------------------------------------------------------------------
# splitting and group law


def lower_triangular_split(datum: BundleDatum) -> NormalizationDatum:
    """Split each component A_k = T-_k - transpose(T-_k) and build S.

    T-_k keeps the strictly lower triangular entries of A_k.  The symmetric
    correction S_k = -(T-_k + transpose(T-_k)) / 4 has entries in (1/4) Z and
    satisfies 2 S_k(gamma, gamma) = T-_k(gamma, gamma) in Z for integer gamma.
    """
    n = 2 * datum.m
    t_minus = []
    s = []
    for mat in datum.components:
        tm = [[mat[i][j] if i > j else 0 for j in range(n)] for i in range(n)]
        sk = [
            [Fraction(-(tm[i][j] + tm[j][i]), 4) for j in range(n)]
            for i in range(n)
        ]
        t_minus.append(tuple(tuple(row) for row in tm))
        s.append(tuple(tuple(row) for row in sk))
    return NormalizationDatum(T_minus=tuple(t_minus), S=tuple(s))


def form_values(datum: BundleDatum, x, y):
    """The vector (A_1(x, y), ..., A_2d(x, y)) of exact form values."""
    return _bilinear_values(datum.components, x, y)


def _bilinear_values(mats, x, y):
    """The exact values x^T M y for each square matrix M in mats.

    int entries stay ints, so integer data gives integer values.
    """
    xf = [v if type(v) is int else ratl.frac(v) for v in x]
    yf = [v if type(v) is int else ratl.frac(v) for v in y]
    return tuple(ratl.vec_mat_vec(xf, mat, yf) for mat in mats)


def group_identity(datum: BundleDatum) -> GroupElement:
    return GroupElement(y=(0,) * (2 * datum.d), x=(0,) * (2 * datum.m), is_lattice=True)


def group_multiply(g: GroupElement, h: GroupElement, norm: NormalizationDatum) -> GroupElement:
    """(y, x)(y', x') = (y + y' + T-(x, x'), x + x')."""
    tvals = _bilinear_values(norm.T_minus, g.x, h.x)
    y = tuple(a + b + t for a, b, t in zip(g.y, h.y, tvals))
    x = tuple(a + b for a, b in zip(g.x, h.x))
    return GroupElement(y=y, x=x, is_lattice=g.is_lattice and h.is_lattice)


def group_inverse(g: GroupElement, norm: NormalizationDatum) -> GroupElement:
    """(y, x)^(-1) = (-y + T-(x, x), -x)."""
    tvals = _bilinear_values(norm.T_minus, g.x, g.x)
    y = tuple(-a + t for a, t in zip(g.y, tvals))
    x = tuple(-a for a in g.x)
    return GroupElement(y=y, x=x, is_lattice=g.is_lattice)


def group_commutator(g: GroupElement, h: GroupElement, norm: NormalizationDatum) -> GroupElement:
    """g h g^(-1) h^(-1), always central with y part A(x_g, x_h)."""
    gh = group_multiply(g, h, norm)
    gi = group_inverse(g, norm)
    hi = group_inverse(h, norm)
    return group_multiply(group_multiply(gh, gi, norm), hi, norm)


def t_minus_action(p: GroupElement, gamma_hat: GroupElement, norm: NormalizationDatum) -> GroupElement:
    """Right translation by the zero-lift of a lattice vector in raw coordinates."""
    if not gamma_hat.is_lattice:
        raise ValueError("action is only defined for lattice elements")
    tvals = _bilinear_values(norm.T_minus, p.x, gamma_hat.x)
    y = tuple(a + g + t for a, g, t in zip(p.y, gamma_hat.y, tvals))
    x = tuple(a + b for a, b in zip(p.x, gamma_hat.x))
    return GroupElement(y=y, x=x, is_lattice=p.is_lattice)


def psi(p: GroupElement, norm: NormalizationDatum) -> GroupElement:
    """Psi(y, x) = (2 (y + S(x, x)), x)."""
    svals = _bilinear_values(norm.S, p.x, p.x)
    y = tuple(2 * (a + s) for a, s in zip(p.y, svals))
    return GroupElement(y=y, x=p.x, is_lattice=False)


def psi_inverse(p: GroupElement, norm: NormalizationDatum) -> GroupElement:
    svals = _bilinear_values(norm.S, p.x, p.x)
    y = tuple(a / 2 - s for a, s in zip(p.y, svals))
    return GroupElement(y=y, x=p.x, is_lattice=False)


def normalized_action(
    p: GroupElement,
    gamma_hat: GroupElement,
    datum: BundleDatum,
    norm: NormalizationDatum | None = None,
) -> GroupElement:
    """Right action in normalized coordinates, gamma_hat a raw lattice lift.

    Conjugating the raw translation by Psi gives, for a lift (g_y, gamma),

    (y, x) . gamma_hat = (y + 2 g_y + A(x, gamma) + 2 S(gamma, gamma), x + gamma),

    so the canonical zero lift acts by y + A(x, gamma) + 2 S(gamma, gamma).
    The correction 2 S(gamma, gamma) is an integer vector for integer gamma
    and the action preserves lattice points.
    """
    if not gamma_hat.is_lattice:
        raise ValueError("action is only defined for lattice elements")
    if norm is None:
        norm = lower_triangular_split(datum)
    avals = form_values(datum, p.x, gamma_hat.x)
    svals = _bilinear_values(norm.S, gamma_hat.x, gamma_hat.x)
    y = tuple(
        a + 2 * gy + av + 2 * sv
        for a, gy, av, sv in zip(p.y, gamma_hat.y, avals, svals)
    )
    x = tuple(a + b for a, b in zip(p.x, gamma_hat.x))
    return GroupElement(y=y, x=x, is_lattice=p.is_lattice)


# ---------------------------------------------------------------------------
# nondegeneracy


def is_nondegenerate(datum: BundleDatum) -> bool:
    """True when no nonzero vector is killed by every component matrix.

    Exact integer rank of the 2d matrices stacked into a (2d * 2m) x 2m
    matrix.
    """
    stacked = [list(row) for mat in datum.components for row in mat]
    return ratl.rank(stacked) == 2 * datum.m


# ---------------------------------------------------------------------------
# pfaffians and real roots of the pfaffian pencil


def pfaffian(mat):
    """Exact pfaffian of an antisymmetric matrix of even size, a Fraction.

    Rational entries are first scaled to integers by their common
    denominator c, using Pf(c A) = c^(n/2) Pf(A).
    """
    f = ratl.frac_matrix(mat)
    n = len(f)
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size")
    if any(len(row) != n for row in f) or any(
        f[i][j] != -f[j][i] for i in range(n) for j in range(i, n)
    ):
        raise ValueError("pfaffian needs an antisymmetric matrix")
    den, ints = ratl.clear([x for row in f for x in row])
    return Fraction(_int_pfaffian([ints[i * n:(i + 1) * n] for i in range(n)]), den ** (n // 2))


def _int_pfaffian(mat) -> int:
    """Pfaffian of an antisymmetric integer matrix in O(n^3) integer steps.

    Fraction-free skew elimination, the pfaffian analogue of Bareiss: after
    the pivot pairs (0, 1), ..., (2k - 2, 2k - 1) the entry (i, j) of the
    trailing block is the pfaffian of the principal submatrix on rows
    0..2k-1, i, j, and the leading pfaffian P_k of rows 0..2k-1 divides
    every entry of the next step exactly.  A zero pivot swaps in the first
    nonzero column of its row, which flips the sign; a zero row means a
    zero pfaffian.
    """
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(0, n, 2):
        row = a[k]
        j = next((j for j in range(k + 1, n) if row[j]), None)
        if j is None:
            return 0
        if j != k + 1:
            a[j], a[k + 1] = a[k + 1], a[j]
            for r in a:
                r[j], r[k + 1] = r[k + 1], r[j]
            sign = -sign
        r1, r2 = a[k], a[k + 1]
        p = r1[k + 1]
        for i in range(k + 2, n):
            ri = a[i]
            u, v = ri[k], ri[k + 1]
            for c in range(k + 2, n):
                ri[c] = (p * ri[c] - v * r1[c] + u * r2[c]) // prev
        prev = p
    return sign * prev


def pfaffian_binary_form(datum: BundleDatum):
    """Coefficients of Pf(s A_1 + t A_2) as a binary form in (s, t), d = 1 only.

    Returns (c_0, ..., c_m) with Pf(s A_1 + t A_2) = sum_j c_j s^j t^(m - j),
    so c_m = Pf(A_1) and c_0 = Pf(A_2).  Computed by exact interpolation of
    the degree m polynomial Pf(s A_1 + A_2) at s = 0, ..., m.
    """
    if datum.d != 1:
        raise ValueError("pfaffian pencil is defined for d = 1")
    a1, a2 = datum.components
    m = datum.m
    samples = [
        _int_pfaffian([[t * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)])
        for t in range(m + 1)
    ]
    # Vandermonde solve: sum_j c_j t^j = samples[t]
    vand = [[t**j for j in range(m + 1)] for t in range(m + 1)]
    coeffs = ratl.solve(vand, samples)
    return tuple(coeffs)


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return [Fraction(i) * p[i] for i in range(1, len(p))]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        factor = a[i + len(b) - 1] * inv_lead
        q[i] = factor
        for j in range(len(b)):
            a[i + j] -= factor * b[j]
    return _poly_trim(q), _poly_trim(a)


def _sign_variations(signs):
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def sturm_distinct_real_roots(coeffs) -> int:
    """Number of distinct real roots of a polynomial, ascending coefficients.

    Classical Sturm chain with exact remainders; multiple roots are counted
    once because the chain terminates at the gcd with the derivative.
    """
    p = _poly_trim([ratl.frac(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    if not chain[-1]:
        chain.pop()
    # signs at +inf follow the leading coefficients; at -inf flip by parity
    at_pos = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg = [
        (1 if q[-1] > 0 else -1) * (1 if (len(q) - 1) % 2 == 0 else -1) for q in chain
    ]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


def pfaffian_reality(datum: BundleDatum, method: str = "auto") -> bool:
    """Whether the pfaffian binary form has a nonzero real root, d = 1 only.

    Exact decision.  The form always has a real root when it vanishes
    identically or when the pure first-direction coefficient is zero; in the
    remaining case the dehomogenized polynomial has full degree m and the
    answer is a Sturm count.  For m = 2 the discriminant decides directly,
    and both routes are kept as a cross check.
    """
    coeffs = pfaffian_binary_form(datum)
    if method == "auto":
        method = "discriminant" if datum.m == 2 else "sturm"
    if method == "discriminant":
        if datum.m != 2:
            raise ValueError("discriminant route needs m = 2")
        c0, c1, c2 = coeffs
        if c0 == 0 and c1 == 0 and c2 == 0:
            return True
        if c2 == 0:
            return True
        return c1 * c1 - 4 * c0 * c2 >= 0
    if method != "sturm":
        raise ValueError(f"unknown method {method!r}")
    if all(c == 0 for c in coeffs):
        return True
    if coeffs[-1] == 0:
        # (1, 0) is a projective root
        return True
    return sturm_distinct_real_roots(list(coeffs)) > 0
