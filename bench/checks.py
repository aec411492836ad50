"""Independent checks on the outputs of the benchmark ops.

Each check takes the input document, the exit status and the parsed
report, and returns a list of problems (empty when the output is right).
The formulas here are written apart from the package: the defining
equations are evaluated directly, as in tests/_oracles.py, the integral
conditions are predicted with plain Fraction arithmetic, and the bundle
verdicts come from sympy, which is imported only after the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

PATH_TOL = 1e-7


# ---------------------------------------------------------------------------
# certificates


def _system(doc):
    block = doc["system"]
    m = block["m"]
    return {
        "m": m,
        "a_plus": float(block.get("a_plus", 0)),
        "a_minus": float(block.get("a_minus", 0)),
        "D": np.array(block["D"], dtype=float).reshape(m, m),
        **{k: np.array(block[k], dtype=float) for k in ("l_pp", "l_pm", "l_mp", "l_mm")},
    }


def equations(system, b, b_mat):
    """The cleared equality stack and the size of its terms.

    l_pp B + b l_mm = 0, b l_mp B - l_pm = 0 and, for m = 2,
    a_minus - a_plus det B + b ((D B)_12 - (D B)_21) = 0.
    """
    b_mat = np.asarray(b_mat, dtype=float).reshape(system["m"], system["m"])
    eq1 = system["l_pp"] @ b_mat + b * system["l_mm"]
    eq2 = b * (system["l_mp"] @ b_mat) - system["l_pm"]
    size = 1.0 + abs(b) * (1.0 + np.abs(b_mat).max()) * (1.0 + np.abs(system["D"]).max())
    out = [eq1, eq2]
    if system["m"] == 2:
        det_b = b_mat[0, 0] * b_mat[1, 1] - b_mat[0, 1] * b_mat[1, 0]
        db = system["D"] @ b_mat
        out.append(np.array([system["a_minus"] - system["a_plus"] * det_b + b * (db[0, 1] - db[1, 0])]))
        size += abs(system["a_plus"]) * abs(det_b)
    return np.concatenate(out), size


def _det_min_on_chord(p, q):
    """Minimum over t in [0, 1] of det((1 - t) P + t Q), closed form."""
    diff = q - p
    c0 = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    c2 = diff[0, 0] * diff[1, 1] - diff[0, 1] * diff[1, 0]
    c1 = p[0, 0] * diff[1, 1] + diff[0, 0] * p[1, 1] - p[0, 1] * diff[1, 0] - diff[0, 1] * p[1, 0]
    vals = [c0, c0 + c1 + c2]
    if c2 != 0.0:
        t = -c1 / (2.0 * c2)
        if 0.0 < t < 1.0:
            vals.append(c0 + c1 * t + c2 * t * t)
    return min(vals)


def _vertex_problems(system, b, b_mat, where):
    b_mat = np.asarray(b_mat, dtype=float).reshape(system["m"], system["m"])
    res, size = equations(system, b, b_mat)
    problems = []
    if not b > 0:
        problems.append(f"{where}: b = {b} is not positive")
    if np.linalg.det(b_mat) <= 0:
        problems.append(f"{where}: det B is not positive")
    if np.abs(res).max() > PATH_TOL * size:
        problems.append(f"{where}: equations off by {np.abs(res).max():.3g}")
    return problems


def nappe_frame(d_block):
    """Orthonormal kernel of b' and the positive eigendirection of det B on it.

    Returns (kern, direction) with kern a 4 x 3 matrix; the sign of
    direction . (kern^T vec B) separates the two nappes of {det B > 0}
    inside ker b' when the restricted signature is (1, 2).
    """
    d = np.asarray(d_block, dtype=float)
    w = np.array([-d[1, 0], d[0, 0], -d[1, 1], d[0, 1]])
    _, _, vt = np.linalg.svd(w[None, :])
    kern = vt[1:].T
    q = np.zeros((4, 4))
    q[0, 3] = q[3, 0] = 0.5
    q[1, 2] = q[2, 1] = -0.5
    vals, vecs = np.linalg.eigh(kern.T @ q @ kern)
    return kern, vecs[:, int(np.argmax(vals))]


def nappe_sign(frame, b_mat):
    kern, direction = frame
    return 1 if float(direction @ (kern.T @ np.ravel(b_mat))) > 0 else -1


def check_certificate(doc, rc, report, expect):
    system = _system(doc)
    cert = report.get("certificate")
    if cert is None:
        return ["report has no certificate"]
    problems = []
    witnesses = cert["witnesses"]
    if not witnesses:
        problems.append("certificate has no witnesses")
    for i, w in enumerate(witnesses):
        problems += _vertex_problems(system, w["b"], w["B"], f"witness {i}")
    m = system["m"]
    for k, path in enumerate(cert["paths"]):
        pts = [np.asarray(p, dtype=float) for p in path["points"]]
        if not path["success"] or not pts:
            problems.append(f"path {k} is listed as joined but has no vertices")
            continue
        for v, x in enumerate(pts):
            problems += _vertex_problems(system, x[0], x[1:], f"path {k} vertex {v}")
        if m == 2:
            for v in range(len(pts) - 1):
                low = _det_min_on_chord(pts[v][1:].reshape(2, 2), pts[v + 1][1:].reshape(2, 2))
                if low <= 0:
                    problems.append(f"path {k} chord {v} leaves det B > 0 ({low:.3g})")
    count = cert["component_count"]
    if report.get("component_count") != count:
        problems.append("report and certificate disagree on the component count")
    if expect.get("split"):
        frame = nappe_frame(system["D"])
        signs = {nappe_sign(frame, np.reshape(w["B"], (2, 2))) for w in witnesses}
        if count != len(signs):
            problems.append(f"{count} components reported, witnesses lie on {len(signs)} nappes")
        for k, path in enumerate(cert["paths"]):
            along = {nappe_sign(frame, np.reshape(p[1:], (2, 2))) for p in path["points"]}
            if len(along) != 1:
                problems.append(f"path {k} crosses between the nappes")
        want_rc = 0 if len(signs) == 2 else 1
    else:
        if count != expect["components"]:
            problems.append(f"{count} components reported, {expect['components']} expected")
        want_rc = expect["exit"]
    if rc != want_rc:
        problems.append(f"exit status {rc}, expected {want_rc}")
    return problems


# ---------------------------------------------------------------------------
# exact Fraction helpers


def _fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _mv(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(a))]


def _mm(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _integral(v):
    return all(x.denominator == 1 for x in v)


def _form(comp, x, y):
    return sum((x[i] * comp[i][j] * y[j] for i in range(len(x)) for j in range(len(y))), Fraction(0))


def rref(mat):
    """Reduced row echelon form of a Fraction matrix, and its pivot columns."""
    r = [row[:] for row in mat]
    pivots = []
    for col in range(len(r[0]) if r else 0):
        row = len(pivots)
        piv = next((i for i in range(row, len(r)) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        inv = 1 / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(len(r)):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
        if len(pivots) == len(r):
            break
    return r, pivots


def _solve_free_zero(rows, rhs):
    """A solution of rows x = rhs with free variables zero, or None."""
    n = len(rows[0])
    aug, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def predicted_integral_failures(doc):
    """Labels among I1..I7 that fail, from the definitions alone."""
    rs = doc["real_structure"]
    comps = [_fmat(c) for c in doc["components"]]
    a1, a2 = _fmat(rs["A1"]), _fmat(rs["A2"])
    lmat = _fmat(rs["L"])
    d1 = [Fraction(x) for x in rs["d1"]]
    d2 = [Fraction(x) for x in rs["d2"]]
    k, n = len(a1), len(a2)
    eye = lambda size: [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]  # noqa: E731
    failed = set()
    if _mm(a1, a1) != eye(k):
        failed.add("I1")
    if _mm(a2, a2) != eye(n):
        failed.add("I2")
    a2t = [list(col) for col in zip(*a2)]
    for kk in range(k):
        lhs = [[sum((a1[kk][ll] * comps[ll][i][j] for ll in range(k)), Fraction(0))
                for j in range(n)] for i in range(n)]
        if lhs != _mm(_mm(a2t, comps[kk]), a2):
            failed.add("I3")
    for j in range(n):
        a2j = [a2[i][j] for i in range(n)]
        col = [lmat[kk][j] - _form(comps[kk], d2, a2j) for kk in range(k)]
        if not _integral(col):
            failed.add("I4")
    if not _integral([x + y for x, y in zip(_mv(a2, d2), d2)]):
        failed.add("I5")
    if not _integral([a + b + c for a, b, c in zip(_mv(lmat, d2), _mv(a1, d1), d1)]):
        failed.add("I6")
    mmat = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(_mm(lmat, a2), _mm(a1, lmat))]
    rows = [comps[kk][i] for kk in range(k) for i in range(n)]
    rhs = [-mmat[kk][i] for kk in range(k) for i in range(n)]
    gamma = _solve_free_zero(rows, rhs)
    if gamma is None or not _integral(gamma):
        failed.add("I7")
    return failed


def check_real(doc, rc, report, expect):
    want = predicted_integral_failures(doc)
    if want != set(expect["breaks"]):
        return [f"input was built to break {expect['breaks']}, definitions give {sorted(want)}"]
    named = {x for x in report.get("failed", []) if x.startswith("I")}
    problems = []
    if named != want:
        problems.append(f"failed integral labels {sorted(named)}, expected {sorted(want)}")
    if not want and report.get("failed"):
        problems.append(f"structure built to pass fails {report['failed']}")
    want_rc = 1 if want else 0
    if rc != want_rc:
        problems.append(f"exit status {rc}, expected {want_rc}")
    return problems


def check_reconstruct(doc, rc, report, expect):
    rs = doc["real_structure"]
    comps = [_fmat(c) for c in doc["components"]]
    a1, a2 = _fmat(rs["A1"]), _fmat(rs["A2"])
    lmat = _fmat(rs["L"])
    d1 = [Fraction(x) for x in rs["d1"]]
    d2 = [Fraction(x) for x in rs["d2"]]
    n = len(a2)
    problems = []
    if rc != 0 or report.get("round_trip_exact") is not True:
        problems.append(f"round trip not exact (exit {rc})")
    # t_j = -A1 A(A2 d2, A2 e_j) + L e_j for the zero lifts
    a2d2 = _mv(a2, d2)
    gens = []
    for j in range(n):
        a2j = [a2[i][j] for i in range(n)]
        term = _mv(a1, [_form(c, a2d2, a2j) for c in comps])
        gens.append([-t + lmat[kk][j] for kk, t in enumerate(term)])
    orb = report.get("orbifold", {})
    if [[Fraction(x) for x in g] for g in orb.get("generator_translations", [])] != gens:
        problems.append("generator translations differ from -A1 A(A2 d2, A2 e_j) + L e_j")
    d1n = [(x + y) / 2 for x, y in zip(d1, _mv(a1, d1))]
    back = report.get("real_structure", {})
    got = (
        _fmat(back.get("A1", [])), _fmat(back.get("A2", [])), _fmat(back.get("L", [])),
        [Fraction(x) for x in back.get("d1", [])], [Fraction(x) for x in back.get("d2", [])],
    )
    if got != (a1, a2, lmat, d1n, d2):
        problems.append("reconstructed structure differs from the normalized input")
    return problems


# ---------------------------------------------------------------------------
# decompose


def _complex(obj):
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def hodge_basis(j):
    """Columns e_j - i J e_j kept left to right while they grow the rank."""
    j = np.asarray(j, dtype=float)
    cand = np.eye(j.shape[0]) - 1j * j
    chosen = []
    for c in range(j.shape[0]):
        if np.linalg.matrix_rank(cand[:, chosen + [c]]) == len(chosen) + 1:
            chosen.append(c)
        if len(chosen) == j.shape[0] // 2:
            break
    return cand[:, chosen]


def check_decompose(doc, rc, report, expect):
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc} on a compatible pair")
    if not report.get("reconstruction_residual", 1.0) <= 1e-12:
        problems.append(f"reconstruction residual {report.get('reconstruction_residual')}")
    try:
        bpp = _complex(report["B_doubleprime"])
    except (KeyError, TypeError):
        return problems + ["report has no B_doubleprime"]
    comps = np.array(doc["components"], dtype=float)
    u = hodge_basis(doc["J1"])
    v = hodge_basis(doc["J2"])
    full = np.column_stack([u, np.conj(u)])
    # swap identity: B''(v_i, conj v_j) = -A(conj v_j, v_i), in U coordinates
    swapped = -np.einsum("rj,krs,si->kij", np.conj(v), comps, v)
    want = np.linalg.solve(full, swapped.reshape(comps.shape[0], -1))[: u.shape[1]]
    want = want.reshape(bpp.shape)
    scale = max(1.0, float(np.abs(comps).max())) * max(1.0, float(np.abs(full).max())) ** 2
    gap = float(np.abs(want - bpp).max())
    if gap > 1e-10 * scale:
        problems.append(f"B'' breaks the swap identity by {gap:.3g}")
    return problems


# ---------------------------------------------------------------------------
# check-bundle, against sympy


def check_bundle(doc, rc, report, expect):
    import sympy

    m = doc["m"]
    c1, c2 = (sympy.Matrix(c) for c in doc["components"])
    nondeg = bool(sympy.Matrix.vstack(c1, c2).rank() == 2 * m)
    # det(s A1 + A2) = Pf(s A1 + A2)^2 has degree <= 2m: interpolate exactly
    s = sympy.Symbol("s")
    pts = [(x, (x * c1 + c2).det(method="bareiss")) for x in range(2 * m + 1)]
    poly = sympy.Poly(sympy.interpolate(pts, s), s)
    if poly.is_zero or c1.det(method="bareiss") == 0:
        real = True
    else:
        real = bool(poly.count_roots() > 0)
    problems = []
    if report.get("nondegenerate") is not nondeg:
        problems.append(f"nondegenerate {report.get('nondegenerate')}, sympy rank gives {nondeg}")
    if report.get("pfaffian-reality") is not real:
        problems.append(f"pfaffian-reality {report.get('pfaffian-reality')}, sympy gives {real}")
    want_rc = 0 if (nondeg and real) else 1
    if rc != want_rc:
        problems.append(f"exit status {rc}, expected {want_rc}")
    return problems


# ---------------------------------------------------------------------------
# eigensplit bases


def _int_det(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    n = len(mat)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            mat[c], mat[p] = mat[p], mat[c]
            out = -out
        out *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return int(out)


def lattice_index(basis):
    """gcd of the maximal minors of an integer n x k basis (1 = saturated)."""
    basis = [[int(x) for x in row] for row in basis]
    n = len(basis)
    k = len(basis[0]) if n else 0
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(n), k):
        g = math.gcd(g, abs(_int_det([basis[r] for r in rows])))
    return g


def check_eigensplit(doc, split):
    rs = doc["real_structure"]
    problems = []
    for name, mat, sign in (
        ("V+", rs["A2"], 1), ("V-", rs["A2"], -1), ("U+", rs["A1"], 1), ("U-", rs["A1"], -1),
    ):
        basis = np.asarray(getattr(split, {"V+": "basis_V_plus", "V-": "basis_V_minus",
                                           "U+": "basis_U_plus", "U-": "basis_U_minus"}[name]))
        if not np.array_equal(np.asarray(mat) @ basis, sign * basis):
            problems.append(f"{name} basis is not in the eigenspace")
            continue
        index = lattice_index(basis.tolist())
        if index != 1:
            problems.append(f"{name} basis has index {index} in its lattice")
    return problems
