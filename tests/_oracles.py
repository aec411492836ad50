"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately primitive: brute force grids, dense sweeps
and direct formula evaluation, kept free of the library's own solver logic
(Gauss-Jordan over Fractions stands in for the fraction-free elimination)
so the two sides of each comparison stay independent.  The one exception is
eager_connect, which keeps the library's routes and walks and replaces only
the order in which connect searches them.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import numpy as np

import torusbundles.solver_explorer as se


# ---------------------------------------------------------------------------
# random generators


def random_antisymmetric(rng: random.Random, n: int, lo: int = -3, hi: int = 3):
    """Random antisymmetric n x n integer matrix as nested lists."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            mat[i][j] = v
            mat[j][i] = -v
    return mat


def random_rational(rng: random.Random, num: int = 20, den: int = 7) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_rational_vector(rng: random.Random, n: int):
    return [random_rational(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# pfaffian by expansion along the first row, (2m - 1)!! terms


def pfaffian_expansion(mat) -> Fraction:
    """Pfaffian of an antisymmetric matrix by its defining row expansion."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    sign = 1
    for j in range(1, n):
        if mat[0][j] != 0:
            rows = [i for i in range(1, n) if i != j]
            minor = [[mat[a][b] for b in rows] for a in rows]
            total += sign * mat[0][j] * pfaffian_expansion(minor)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Fractions, entry by entry


def rref(mat):
    """Reduced row echelon form over Fractions. Returns (R, pivot_columns)."""
    r = [[Fraction(x) for x in row] for row in mat]
    n = len(r)
    m = len(r[0]) if n else 0
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((i for i in range(row, n) if r[i][col] != 0), None)
        if pivot is None:
            continue
        r[row], r[pivot] = r[pivot], r[row]
        inv = 1 / r[row][col]
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


def rref_rank(mat) -> int:
    return len(rref(mat)[1]) if mat and mat[0] else 0


def rref_solve(mat, rhs):
    """The solution of mat x = rhs with free variables 0, or None."""
    m = len(mat[0]) if mat else 0
    r, pivots = rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for prow, col in enumerate(pivots):
        x[col] = r[prow][m]
    return x


def rref_kernel(mat):
    """Null space basis, one vector per free column, which carries a 1."""
    m = len(mat[0]) if mat else 0
    r, pivots = rref(mat)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -r[prow][free]
        basis.append(v)
    return basis


def rref_inverse(mat):
    """The inverse, or None for a singular matrix."""
    n = len(mat)
    r, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    return [row[n:] for row in r] if pivots == list(range(n)) else None


def fraction_det(mat) -> Fraction:
    """Determinant by Gauss elimination over Fractions."""
    n = len(mat)
    r = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if r[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            r[col], r[pivot] = r[pivot], r[col]
            out = -out
        out *= r[col][col]
        for i in range(col + 1, n):
            factor = r[i][col] / r[col][col]
            r[i] = [a - factor * b for a, b in zip(r[i], r[col])]
    return out


# ---------------------------------------------------------------------------
# the integral conditions and orbifold translations, entry by entry


def random_involution(rng: random.Random, n: int):
    """U diag(+-1) U^-1 for a unimodular U of 3n random row moves, as int tuples."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    ui = rref_inverse(u)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(
        tuple(int(sum(u[i][k] * signs[k] * ui[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def _form(comps, x, y):
    """The vector of x^T A_k y over Fractions."""
    return [
        sum(Fraction(x[r]) * a[r][s] * Fraction(y[s]) for r in range(len(x)) for s in range(len(y)))
        for a in comps
    ]


def _apply(mat, v):
    return [sum(Fraction(a) * Fraction(b) for a, b in zip(row, v)) for row in mat]


def fraction_square_translation(rs):
    """(L d2 + A1 d1 + d1, A2 d2 + d2)."""
    fiber = [a + b + c for a, b, c in zip(_apply(rs.L, rs.d2), _apply(rs.A1, rs.d1), rs.d1)]
    base = [a + b for a, b in zip(_apply(rs.A2, rs.d2), rs.d2)]
    return fiber, base


def fraction_i4_failing_generator(datum, rs):
    """The first j with L e_j - A(d2, A2 e_j) not integral, or None."""
    for j in range(2 * datum.m):
        a2_col = [row[j] for row in rs.A2]
        vals = _form(datum.components, rs.d2, a2_col)
        if any((Fraction(row[j]) - v).denominator != 1 for row, v in zip(rs.L, vals)):
            return j
    return None


def fraction_i7_witness(datum, rs):
    """The rref solution gamma of A(e_i, gamma) = -(L A2 + A1 L) e_i, or None."""
    n = 2 * datum.m
    rows, rhs = [], []
    for k, comp in enumerate(datum.components):
        for i in range(n):
            l_a2 = sum(Fraction(rs.L[k][s]) * rs.A2[s][i] for s in range(n))
            a1_l = sum(rs.A1[k][t] * Fraction(rs.L[t][i]) for t in range(len(rs.A1)))
            rows.append(list(comp[i]))
            rhs.append(-(l_a2 + a1_l))
    return rref_solve(rows, rhs)


def fraction_generator_translations(datum, rs, lifts):
    """t_j = -A1 A(A2 d2, A2 e_j) + L e_j + A1 l_j for every base generator."""
    a2d2 = _apply(rs.A2, rs.d2)
    out = []
    for j in range(2 * datum.m):
        term = _apply(rs.A1, _form(datum.components, a2d2, [row[j] for row in rs.A2]))
        al = _apply(rs.A1, lifts[j])
        out.append([-t + Fraction(row[j]) + a for t, row, a in zip(term, rs.L, al)])
    return out


# ---------------------------------------------------------------------------
# dense sweep over the projective line for binary forms


def projective_sweep_has_real_root(coeffs, points: int = 10_000) -> bool:
    """Detect a real projective root of a binary form by a dense angle sweep.

    coeffs[j] multiplies s^j t^(m - j).  Samples (s, t) = (cos a, sin a) on a
    half turn, declares a root on a sign change or a relative near-zero.  The
    relative threshold 1e-7 is sized for small integer coefficient forms of
    degree two: a double root leaves a dip below 1.3e-8 of the maximum at
    this grid spacing, while a rootless integer form stays above roughly
    1/(16 max_coeff^2) of the maximum.
    """
    c = np.array([float(x) for x in coeffs])
    m = len(c) - 1
    ang = np.linspace(0.0, np.pi, points, endpoint=False)
    s = np.cos(ang)
    t = np.sin(ang)
    vals = np.zeros_like(ang)
    for j, cj in enumerate(c):
        vals += cj * s**j * t ** (m - j)
    top = np.max(np.abs(vals))
    if top == 0.0:
        return True
    if np.min(np.abs(vals)) <= 1e-7 * top:
        return True
    # wrap around: (cos pi, sin pi) = -(cos 0, sin 0), values flip by (-1)^m
    closed = np.append(vals, vals[0] * (-1.0) ** m)
    return bool(np.any(np.sign(closed[:-1]) * np.sign(closed[1:]) < 0))


# ---------------------------------------------------------------------------
# grid oracle for the m = 1 compatibility equations


def kodaira_grid_solutions(l_pp, l_pm, l_mp, l_mm, step: float = 0.01, tol: float = 1e-6):
    """Brute force solution search on the open square (0, 10]^2.

    Evaluates the two scalar compatibility residuals on the full grid,
    collects loose candidates, polishes each with a local Newton iteration
    on the polynomial form of the system, and keeps polished points that
    meet tol on the original residuals.  Returns a list of (b1, b2) pairs.
    """
    b1 = np.arange(step, 10.0 + step / 2, step)
    b2 = np.arange(step, 10.0 + step / 2, step)
    g1, g2 = np.meshgrid(b1, b2, indexing="ij")
    r1 = np.abs(l_pp * g2 + g1 * l_mm)
    # cleared polynomial form keeps the gradient bounded near the b2 axis
    r2 = np.abs(l_pm - g1 * g2 * l_mp)
    res = np.maximum(r1, r2)
    if res.max() <= tol:
        # no constraints survive: every grid node is a solution
        return [
            (float(x), float(y))
            for x, y in zip(g1.ravel()[::9973], g2.ravel()[::9973])
        ]
    # candidate net scaled to the worst residual slope across one cell
    loose = 2.0 * step * (abs(l_pp) + abs(l_mm) + 21.0 * abs(l_mp) + 1.0)
    mask = res < loose
    # polish only grid-local minima (plus the boundary frame)
    interior = np.zeros_like(mask)
    core = res[1:-1, 1:-1]
    interior[1:-1, 1:-1] = (
        (core <= res[:-2, 1:-1])
        & (core <= res[2:, 1:-1])
        & (core <= res[1:-1, :-2])
        & (core <= res[1:-1, 2:])
    )
    frame = np.zeros_like(mask)
    frame[0, :] = frame[-1, :] = True
    frame[:, 0] = frame[:, -1] = True
    mask &= interior | frame
    cand = np.stack([g1[mask], g2[mask]], axis=1)
    found = []
    for p in cand:
        q = _newton_polish_m1(p, l_pp, l_pm, l_mp, l_mm)
        if q is None:
            continue
        x, y = q
        # interior margin: roots drifting to the open-region boundary are
        # artifacts of the tolerance ball, not solutions in {b > 0}
        if not (1e-3 <= x <= 10.0 + 1e-9 and 1e-3 <= y <= 10.0 + 1e-9):
            continue
        if max(abs(l_pp * y + x * l_mm), abs(l_pm / y - x * l_mp)) <= tol:
            found.append((x, y))
    # deduplicate on a coarse key; exact coordinates are irrelevant here
    seen = {}
    for x, y in found:
        seen[(round(x, 4), round(y, 4))] = (x, y)
    return list(seen.values())


def kodaira_equations(l_pp, l_pm, l_mp, l_mm, b1: float, b2: float) -> np.ndarray:
    """Polynomial form of the m = 1 system at (b1, b2), independent evaluation."""
    return np.array([l_pp * b2 + b1 * l_mm, l_pm - b1 * b2 * l_mp])


def _newton_polish_m1(p, l_pp, l_pm, l_mp, l_mm, iters: int = 40):
    x = np.array(p, dtype=float)
    for _ in range(iters):
        f = np.array([l_pp * x[1] + x[0] * l_mm, l_pm - x[0] * x[1] * l_mp])
        jac = np.array([[l_mm, l_pp], [-x[1] * l_mp, -x[0] * l_mp]])
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        if not np.all(np.isfinite(delta)):
            return None
        x = x + delta
        if x[0] <= 0 or x[1] <= 0:
            return None
        if np.linalg.norm(delta) < 1e-14:
            break
    return (float(x[0]), float(x[1]))


# ---------------------------------------------------------------------------
# multistart oracle for the m = 2 compatibility equations


def threefold_equations(sysdata, b: float, B: np.ndarray) -> np.ndarray:
    """Polynomial equality stack for the m = 2 system, independent evaluation."""
    l_pp, l_pm, l_mp, l_mm, a_plus, a_minus, D = sysdata
    detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    DB = D @ B
    bprime = DB[0, 1] - DB[1, 0]
    out = np.empty(5)
    out[0:2] = l_pp @ B + b * l_mm
    out[2:4] = b * (l_mp @ B) - l_pm
    out[4] = a_minus - detB * a_plus + b * bprime
    return out


def threefold_multistart_solutions(sysdata, tries: int = 400, seed: int = 0, tol: float = 1e-6):
    """Newton from widely spread deterministic starts over b in (0, 40].

    Returns verified in-region solutions (b, B); used only for emptiness
    agreement, so completeness in practice is what matters and is achieved
    with many starts.
    """
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(tries):
        b = float(rng.uniform(0.05, 40.0))
        B = rng.uniform(-20.0, 20.0, size=(2, 2))
        point = _newton_polish_m2(sysdata, b, B)
        if point is None:
            continue
        b, B = point
        detB = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        if b > 1e-9 and detB > 1e-9:
            if np.max(np.abs(threefold_equations(sysdata, b, B))) <= tol:
                found.append((b, B))
    return found


def _newton_polish_m2(sysdata, b, B, iters: int = 80):
    x = np.concatenate([[b], B.ravel()])
    for _ in range(iters):
        f = threefold_equations(sysdata, x[0], x[1:].reshape(2, 2))
        if np.max(np.abs(f)) < 1e-13:
            break
        jac = _numeric_jacobian(sysdata, x)
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        if not np.all(np.isfinite(delta)):
            return None
        step = 1.0
        base = np.linalg.norm(f)
        for _ in range(30):
            xn = x + step * delta
            fn = threefold_equations(sysdata, xn[0], xn[1:].reshape(2, 2))
            if np.linalg.norm(fn) < base:
                x = xn
                break
            step /= 2
        else:
            return None
    return float(x[0]), x[1:].reshape(2, 2)


def _numeric_jacobian(sysdata, x, h: float = 1e-7):
    f0 = threefold_equations(sysdata, x[0], x[1:].reshape(2, 2))
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (threefold_equations(sysdata, xp[0], xp[1:].reshape(2, 2)) - f0) / h
    return jac


# ---------------------------------------------------------------------------
# D1, D7 and D8 as float memberships in the projected lattices


def _float_member(frame, ambient, tol):
    """Integer coordinates of the projection of an ambient vector over the
    projected standard lattice, by a float solve and rounding, or None."""
    pi = frame.plus_coords(np.eye(frame.J.shape[0]))
    coords = frame.plus_coords(np.asarray(ambient, dtype=complex))
    z = np.linalg.solve(np.vstack([pi.real, pi.imag]), np.concatenate([coords.real, coords.imag]))
    return np.round(z).astype(int) if np.max(np.abs(z - np.round(z))) <= tol else None


def float_lattice_labels(dec, rs, tol: float = 1e-8) -> dict:
    """D1, D7 and D8 decided in the frames of a decomposition, in floats.

    D1: the images A conj(p(e)) of the lattice generators are projected
    lattice vectors with a unimodular coordinate matrix.  D7, D8: the
    projections of A2 d2 + d2 and A1 d1 + L d2 + d1 are projected lattice
    vectors.
    """
    f1, f2 = dec._frame1, dec._frame2
    a1, a2, lmat, d1, d2 = rs.a1_array(), rs.a2_array(), rs.l_array(), rs.d1_array(), rs.d2_array()
    ok1 = True
    for frame, a in ((f1, a1), (f2, a2)):
        images = [_float_member(frame, a @ np.conj(frame.project_plus(e)), tol) for e in np.eye(len(a))]
        ok1 = ok1 and all(z is not None for z in images)
        ok1 = ok1 and abs(round(float(np.linalg.det(np.array(images, dtype=float).T)))) == 1
    return {
        "D1": ok1,
        "D7": _float_member(f2, f2.project_plus(a2 @ d2 + d2), tol) is not None,
        "D8": _float_member(f1, f1.project_plus(a1 @ d1 + lmat @ d2 + d1), tol) is not None,
    }


# ---------------------------------------------------------------------------
# the split stratum in floats: signature of det B on ker b' and the nappes


def _float_bprime_kernel(d_block):
    """Orthonormal basis (4 x 3) of ker b' from an SVD of its row."""
    d = np.asarray(d_block, dtype=float)
    w = np.array([-d[1, 0], d[0, 0], -d[1, 1], d[0, 1]])
    _, _, vt = np.linalg.svd(w[None, :])
    return vt[1:].T


def _float_restricted_form(d_block):
    """det B as a symmetric form on (b11, b12, b21, b22), restricted to ker b'."""
    q = np.zeros((4, 4))
    q[0, 3] = q[3, 0] = 0.5
    q[1, 2] = q[2, 1] = -0.5
    kern = _float_bprime_kernel(d_block)
    return kern, kern.T @ q @ kern


def float_restricted_signature(d_block):
    """(positive, negative) eigenvalue counts of the restricted form, at a
    relative tolerance of 1e-12."""
    eig = np.linalg.eigvalsh(_float_restricted_form(d_block)[1])
    tol = 1e-12 * max(1.0, np.abs(eig).max())
    return int((eig > tol).sum()), int((eig < -tol).sum())


def float_nappe_sign(d_block, b_mat) -> int:
    """+1 or -1 by the side of B along the positive eigendirection of the
    restricted form; the sign of the eigenvector, and so the labelling of
    the two nappes, is arbitrary but fixed for one d_block."""
    kern, restr = _float_restricted_form(d_block)
    vals, vecs = np.linalg.eigh(restr)
    direction = vecs[:, int(np.argmax(vals))]
    return 1 if float(direction @ (kern.T @ np.ravel(b_mat))) > 0 else -1


# ---------------------------------------------------------------------------
# the point checks on numpy rows, as the library wrote them before it read
# each point once into Python floats; the scalar forms must agree bit for bit


def _affine_maxabs(row, cols, c, other) -> float:
    """max_j |(row @ M)_j + c * other_j| for M given by its columns."""
    return max([abs(sum(map(operator.mul, row, col)) + c * o) for col, o in zip(cols, other)])


def residual_pair_numpy(sys, b, b_mat):
    """ConstraintSystem.residual_pair with its blocks read from the arrays on every call."""
    b = float(b)
    rows = np.asarray(b_mat, dtype=float).tolist()
    if sys.m == 1:
        det = rows[0][0]
    else:
        (p, q), (r, s) = rows
        det = se._det2_rounded(p, q, r, s)
    if abs(b) < 1e-14:
        raise ValueError("B1 is singular")
    if abs(det) < 1e-14:
        raise ValueError("B2 is singular")
    inv = [[1.0 / det]] if sys.m == 1 else [[s / det, -q / det], [-r / det, p / det]]
    pp, pm = sys.l_pp.tolist(), sys.l_pm.tolist()
    mp, mm = sys.l_mp.tolist(), sys.l_mm.tolist()
    cols, inv_cols = list(zip(*rows)), list(zip(*inv))
    r_first = max(_affine_maxabs(pp, cols, b, mm), _affine_maxabs(pm, inv_cols, -b, mp))
    if sys.m == 1:
        return r_first, 0.0
    (d11, d12), (d21, d22) = sys.D.tolist()
    bprime = d11 * q + d12 * s - d21 * p - d22 * r
    return r_first, abs(sys.a_minus - sys.a_plus * det + b * bprime)


def _det_rounded(b_mat) -> float:
    """det B, once rounded from the exact entries when B is 2 x 2."""
    v = np.ravel(b_mat).tolist()
    return v[0] if len(v) == 1 else se._det2_rounded(*v)


def quadric_size(sys, b, b_mat) -> float:
    """max(1, |a_plus det B|, |b b'(B)|), the size of the block quadric's terms,
    with b'(B) from numpy's D @ B; 1 when m = 1."""
    if sys.m == 1:
        return 1.0
    db = sys.D @ b_mat
    return max(1.0, abs(sys.a_plus * _det_rounded(b_mat)), abs(b * float(db[0, 1] - db[1, 0])))


def vertex_failure_numpy(sys, x, tol=se.PATH_TOL):
    """solver_explorer._vertex_failure on the unpacked arrays."""
    b, b_mat = sys.unpack(x)
    det = _det_rounded(b_mat)
    if not (b > se.REGION_TOL and det > se.REGION_TOL):
        return f"b = {b:.6g} and det B = {det:.6g} leave the region", None
    res = anti, quad = residual_pair_numpy(sys, b, b_mat)
    if not anti <= tol:
        return f"antiholomorphy residual {anti:.6g} exceeds {tol:g}", res
    size = quadric_size(sys, b, b_mat)
    if not quad <= tol * size:
        return f"block quadric residual {quad:.6g} exceeds {tol:g} x {size:.6g}", res
    return None, res


def family_contains(desc, b, b_mat) -> bool:
    """Whether b, det B > REGION_TOL and both residuals are within PATH_TOL,
    in absolute terms: stricter than _vertex_failure's quadric scale."""
    sys = desc.system
    b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
    if not (b > se.REGION_TOL and se._det2(b_mat) > se.REGION_TOL):
        return False
    return max(residual_pair_numpy(sys, b, b_mat)) <= se.PATH_TOL


# ---------------------------------------------------------------------------
# connect with an eagerly built roadmap


def eager_connect(p, q, sys) -> se.ConnectPath:
    """connect's search with every stage run in full, one after the other.

    The direct case route, then the straight chord, then a roadmap of the
    endpoints and 20 drawn nodes whose 231 edges are all routed before a
    breadth-first search of at most 6 rounds; the first round walks the
    direct route again.  Each stage walks its own legs deterministically,
    so a join succeeds here exactly when connect's lazy search succeeds.  A
    successful path names the stage that joined in its message.
    """
    xp = se._as_position(sys, p)
    xq = se._as_position(sys, q)
    if not (se._vertex_failure(sys, xp)[0] is None and se._vertex_failure(sys, xq)[0] is None):
        return se.ConnectPath(success=False, points=())
    if np.linalg.norm(xp - xq) <= 1e-12:
        return se.ConnectPath(success=True, points=(tuple(xp),))
    desc = se.solve(sys)
    nappe = desc.constants.get("nappe_vector")
    if nappe is not None:
        (sp, _), (sq, _) = (se._nappe_sign(nappe, sys.unpack(x)[1]) for x in (xp, xq))
        if sp * sq < 0:
            return se.ConnectPath(success=False, points=())

    def joined(path, stage):
        return se.ConnectPath(success=True, points=tuple(tuple(v) for v in path), message=stage)

    verdicts = {}
    direct = se._route(sys, desc, xp, xq, verdicts)
    for stage, legs in (("direct", direct), ("chord", [se._LinearCurve(xp, xq)])):
        path, _ = se._walk_route(sys, legs) if legs is not None else (None, [])
        if path is not None:
            return joined(path, stage)
    rng = np.random.default_rng(11)
    nodes = [xp, xq]
    for _ in range(120):
        if len(nodes) >= 22:
            break
        cand = desc.draw(rng)
        if cand is not None and se._vertex_failure(sys, sys.pack(*cand))[0] is None:
            nodes.append(sys.pack(*cand))
    n = len(nodes)
    legs_for = {}
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            legs = se._route(sys, desc, nodes[i], nodes[j], verdicts)
            if legs is not None:
                legs_for[(i, j)] = legs
                adj[i].append(j)
                adj[j].append(i)
    dead = set()
    for _ in range(6):
        prev = {0: None}
        queue = [0]
        while queue:
            u = queue.pop(0)
            if u == 1:
                break
            for v in adj[u]:
                if v not in prev and (min(u, v), max(u, v)) not in dead:
                    prev[v] = u
                    queue.append(v)
        if 1 not in prev:
            break
        hops = []
        v = 1
        while prev[v] is not None:
            hops.append((prev[v], v))
            v = prev[v]
        full = []
        for u, v in reversed(hops):
            legs = legs_for[(min(u, v), max(u, v))]
            if u > v:
                legs = [leg.reversed() for leg in reversed(legs)]
            path, _ = se._walk_route(sys, legs)
            if path is None:
                dead.add((min(u, v), max(u, v)))
                break
            full.extend(path if not full else path[1:])
        else:
            return joined(full, "roadmap")
    return se.ConnectPath(success=False, points=())


# ---------------------------------------------------------------------------
# JSON conversion of a report by walking it, as the CLI once did before
# rendering; its output renders the same as the report itself


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
