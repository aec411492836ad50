"""Real structures: involution data, its admissibility checks, and the
reduction to eigenspace block data.

A real structure on a bundle over a torus is described here by integer
involutions A1 (fiber lattice) and A2 (base lattice), a real matrix L
coupling base to fiber, and translation parts d1, d2.  Two independent
families of conditions are checked:

* integral conditions I1..I7, exact rational arithmetic, expressing that
  the affine data normalizes the lattice group;
* dianalytic conditions D1..D8, expressing that the induced map of the
  total space is antiholomorphic for a compatible pair of complex
  structures and squares to the identity.  Only antiholomorphy depends on
  the pair: D2..D6 are evaluated in its complex coordinates, while D1, D7
  and D8 are lattice facts decided on the exact data (D7 is I5, D8 is I6,
  D1 is I1 and I2 once A1 and A2 exchange the eigenspaces of the pair).

When L intertwines the eigenspaces of A1 and A2 the data reduces to block
tensors on the +1/-1 eigenspaces.  Writing V+, V- and U+, U- for integer
bases of those eigenspaces, the form decomposes into blocks A_plus,
A_minus (values in U+) and D (values in U-), and L into the four blocks
L_pp, L_pm, L_mp, L_mm.  Complex structures exchanging the eigenspaces
are parametrized by invertible matrices B1, B2 through

    J2 (x+, x-) = (-B2 x-, B2^{-1} x+),     J1 analogous,

and the compatibility of the resulting pair with A and L reduces to the
antiholomorphy equations

    L_pp B2 + B1 L_mm = 0,      L_pm B2^{-1} - B1 L_mp = 0,

and the block quadric

    A_minus - B2^T A_plus B2 = -B1 (D B2 - (D B2)^T).

The orbifold round trip at the end reconstructs the real structure data,
up to the translation normalization d1 -> (I + A1) d1 / 2, from the
conjugation action it induces on the lattice group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rational as ratl
from .complex_structures import ComplexStructurePair, decompose, fiber_lattice_coordinates
from .lattice_core import BundleDatum, form_values


def _int_matrix(mat, name: str, n: int):
    rows = tuple(tuple(x for x in row) for row in mat)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{name} must be {n}x{n}")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{name}[{i}][{j}] is not an integer")
    return rows


def _is_involution(mat) -> bool:
    return ratl.mat_eq(ratl.mat_mul(mat, mat), ratl.identity(len(mat)))


@dataclass(frozen=True)
class RealStructureData:
    """Affine involution data (A1, A2, L, d1, d2).

    A1 and A2 are integer matrices squaring to the identity, of sizes
    2d x 2d and 2m x 2m.  L is a rational 2d x 2m matrix, d1 and d2 are
    rational translation vectors of the fiber and base parts.
    """

    A1: tuple
    A2: tuple
    L: tuple
    d1: tuple
    d2: tuple

    def __post_init__(self):
        n1 = len(self.A1)
        n2 = len(self.A2)
        a1 = _int_matrix(self.A1, "A1", n1)
        a2 = _int_matrix(self.A2, "A2", n2)
        if not _is_involution(a1):
            raise ValueError("A1 squared is not the identity")
        if not _is_involution(a2):
            raise ValueError("A2 squared is not the identity")
        l = tuple(tuple(ratl.frac(x) for x in row) for row in self.L)
        if len(l) != n1 or any(len(r) != n2 for r in l):
            raise ValueError(f"L must be {n1}x{n2}")
        d1 = tuple(ratl.frac(x) for x in self.d1)
        d2 = tuple(ratl.frac(x) for x in self.d2)
        if len(d1) != n1 or len(d2) != n2:
            raise ValueError("translation parts have wrong lengths")
        object.__setattr__(self, "A1", a1)
        object.__setattr__(self, "A2", a2)
        object.__setattr__(self, "L", l)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    def a1_array(self) -> np.ndarray:
        return np.array(self.A1, dtype=float)

    def a2_array(self) -> np.ndarray:
        return np.array(self.A2, dtype=float)

    def l_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.L])

    def d1_array(self) -> np.ndarray:
        return np.array([float(x) for x in self.d1])

    def d2_array(self) -> np.ndarray:
        return np.array([float(x) for x in self.d2])


def normalize_translation(rs: RealStructureData) -> RealStructureData:
    """Replace d1 by its projection (I + A1) d1 / 2 on the +1 eigenspace.

    Changing the origin moves d1 along the image of (A1 - I), which over
    the rationals is exactly the -1 eigenspace of A1; the projection is
    therefore a canonical representative of the translation orbit.
    """
    moved = ratl.mat_vec(rs.A1, rs.d1)
    d1n = tuple((a + b) / 2 for a, b in zip(rs.d1, moved))
    return RealStructureData(A1=rs.A1, A2=rs.A2, L=rs.L, d1=d1n, d2=rs.d2)


# ---------------------------------------------------------------------------
# integral conditions


def _square_translation(rs: RealStructureData):
    """(fiber, base) translation of the squared map, exactly:
    (L d2 + A1 d1 + d1, A2 d2 + d2)."""
    fiber = tuple(
        a + b + c for a, b, c in zip(ratl.mat_vec(rs.L, rs.d2), ratl.mat_vec(rs.A1, rs.d1), rs.d1)
    )
    base = tuple(a + b for a, b in zip(ratl.mat_vec(rs.A2, rs.d2), rs.d2))
    return fiber, base


def check_integral_conditions(datum: BundleDatum, rs: RealStructureData) -> dict:
    """Exact verification of the lattice-level conditions I1..I7.

    I1  A1 preserves the fiber lattice and is an involution.
    I2  A2 preserves the base lattice and is an involution.
    I3  A1 A(x, y) = A(A2 x, A2 y) for all x, y.
    I4  L'(x) = L x - A(d2, A2 x) maps the base lattice into the fiber one.
    I5  A2 d2 + d2 is a base lattice vector.
    I6  L d2 + A1 d1 + d1 is a fiber lattice vector.
    I7  some lattice vector gamma solves L(A2 x) + A1(L x) = -A(x, gamma).

    The I7 witness is found by solving the stacked exact linear system; for
    nondegenerate data the rational solution is unique, so failure can be
    reported as either inconsistency or non-integrality.

    I1 to I3 are integer matrix identities: I3 on the basis pairs reads
    A2^T A_k A2 = sum_l (A1)_kl A_l for every component k.
    """
    from .lattice_core import is_nondegenerate

    m, d = datum.m, datum.d
    a1, a2, l, d2 = rs.A1, rs.A2, rs.L, rs.d2
    comps = datum.components
    report: dict = {"nondegenerate": is_nondegenerate(datum)}

    report["I1"] = {
        "ok": _is_involution(a1),
        "detail": "A1 preserves the fiber lattice and squares to the identity",
    }
    report["I2"] = {
        "ok": _is_involution(a2),
        "detail": "A2 preserves the base lattice and squares to the identity",
    }

    # I3 on all basis pairs; bilinearity extends it to everything
    n = 2 * m
    comp_a2 = [ratl.mat_mul(c, a2) for c in comps]  # A_k A2, also used by I4
    right = [ratl.mat_mul(ratl.transpose(a2), c) for c in comp_a2]
    left = [
        [[sum(w * c[i][j] for w, c in zip(weights, comps)) for j in range(n)] for i in range(n)]
        for weights in a1
    ]
    bad3 = next(
        ((i, j) for i in range(n) for j in range(n)
         if any(x[i][j] != y[i][j] for x, y in zip(left, right))),
        None,
    )
    ok3 = bad3 is None
    report["I3"] = {
        "ok": ok3,
        "detail": "equivariance of the form under the involution pair",
        "failing_pair": bad3,
    }

    # I4: L'(e_j) integral for every base basis vector
    ok4 = True
    bad4 = None
    for j in range(n):
        val = [
            l[k][j] - sum(x * row[j] for x, row in zip(d2, comp_a2[k])) for k in range(2 * d)
        ]
        if not ratl.is_integer_vector(val):
            ok4 = False
            bad4 = j
            break
    report["I4"] = {
        "ok": ok4,
        "detail": "translated coupling maps the base lattice into the fiber lattice",
        "failing_generator": bad4,
    }

    v6, v5 = _square_translation(rs)
    report["I5"] = {
        "ok": ratl.is_integer_vector(v5),
        "detail": "A2 d2 + d2 is integral",
        "value": [str(x) for x in v5],
    }
    report["I6"] = {
        "ok": ratl.is_integer_vector(v6),
        "detail": "L d2 + A1 d1 + d1 is integral",
        "value": [str(x) for x in v6],
    }

    # I7: stacked exact solve for the witness
    mmat = ratl.mat_add(ratl.mat_mul(l, a2), ratl.mat_mul(a1, l))
    stacked = []
    rhs = []
    for k in range(2 * d):
        for row_i in range(n):
            stacked.append(list(comps[k][row_i]))
            rhs.append(-mmat[k][row_i])
    gamma = ratl.solve(stacked, rhs)
    if gamma is None:
        report["I7"] = {
            "ok": False,
            "detail": "no rational gamma solves the coupling equation",
            "witness": None,
        }
    else:
        integral = ratl.is_integer_vector(gamma)
        unique = ratl.rank(stacked) == n
        report["I7"] = {
            "ok": integral,
            "detail": "lattice witness for the coupling equation",
            "witness": [str(x) for x in gamma],
            "unique": unique,
        }
    report["all_ok"] = all(report[f"I{k}"]["ok"] for k in range(1, 8))
    return report


# ---------------------------------------------------------------------------
# dianalytic conditions


def check_dianalytic_conditions(
    datum: BundleDatum,
    rs: RealStructureData,
    pair: ComplexStructurePair,
    tol: float = 1e-8,
) -> dict:
    """Conditions D1..D8 for the induced map to be a dianalytic involution.

    The affine map sends (u, v) to (A1 conj(u) + L conj(v) + d1,
    A2 conj(v) + d2) in the complex coordinates of the pair.  D2..D6 are
    evaluated in ambient complexified coordinates, using the real matrices
    directly, and compared against tol:

    D1  A1 and A2 permute the projected lattices bijectively.
    D2  the quadratic cocycle term transforms correctly (basis and sums).
    D3  the bilinear cocycle terms transform correctly.
    D4  the translation defect of the cocycle is a projected lattice vector.
    D5  the complex representatives satisfy A conj(A) = identity.
    D6  some lattice gamma matches the L-defect with the cocycle at gamma,
        with vanishing constant term.
    D7  the base map squares to the identity modulo the projected lattice.
    D8  the fiber translation defect is a projected lattice vector.

    D1, D7 and D8 are decided exactly.  The projection onto V is a
    real-linear isomorphism, so a real vector is a projected lattice
    vector exactly when it is an integer vector: D7 is I5 (A2 d2 + d2
    integral) and D8 is I6 (L d2 + A1 d1 + d1 integral), whatever tol.
    When A1 and A2 exchange V and conj V, A conj(p(e)) = p(A e), so D1
    holds when their diagonal components are at most tol and I1 and I2
    hold.

    A prerequisites block reports the antiholomorphy residuals of A1, A2
    and L (their eigenspace-diagonal components must vanish); when these
    fail the remaining conditions are still evaluated but not meaningful.
    """
    dec = decompose(datum, pair)
    f1, f2 = pair.frame1, pair.frame2
    d, m = datum.d, datum.m
    a1 = rs.a1_array()
    a2 = rs.a2_array()
    lmat = rs.l_array()
    d1 = rs.d1_array()
    d2 = rs.d2_array()
    comps = np.array(datum.components, dtype=complex)

    def pairing(x, y):
        return np.einsum("r,krs,s->k", x, comps, y)

    # the cocycle F(v) = B'(v, g) + 2 B''(v, conj g) + B''(g, conj g) in
    # ambient terms: a part linear in v and a constant part
    def linear(x, y):
        return f1.project_plus(pairing(x, y) + 2.0 * pairing(x, np.conj(y)))

    def constant(y):
        return f1.project_plus(pairing(y, np.conj(y)))

    report: dict = {}

    # prerequisites: diagonal components must vanish
    u_basis = f1.basis
    v_basis = f2.basis
    pre_a1 = float(np.max(np.abs(f1.plus_coords(a1 @ u_basis))))
    pre_a2 = float(np.max(np.abs(f2.plus_coords(a2 @ v_basis))))
    pre_l = float(np.max(np.abs(f1.plus_coords(lmat @ v_basis)))) if m else 0.0
    report["prerequisites"] = {
        "A1_diagonal_component": pre_a1,
        "A2_diagonal_component": pre_a2,
        "L_diagonal_component": pre_l,
        "ok": max(pre_a1, pre_a2, pre_l) <= tol,
    }

    # complex representatives
    ca1 = f1.plus_coords(a1 @ np.conj(u_basis))
    ca2 = f2.plus_coords(a2 @ np.conj(v_basis))
    cl = f1.plus_coords(lmat @ np.conj(v_basis))
    delta1 = f1.plus_coords(d1)
    delta2 = f2.plus_coords(d2)

    # D1: A conj(p(e)) = p(A e) once A1 and A2 exchange V and conj V
    ok1 = max(pre_a1, pre_a2) <= tol and _is_involution(rs.A1) and _is_involution(rs.A2)
    report["D1"] = {"ok": ok1, "detail": "projected lattices are permuted bijectively"}

    # test vectors: basis and pairwise sums (the conditions are quadratic),
    # projected to V once; the first 2m are the lattice basis
    basis = np.eye(2 * m)
    gammas = [*basis] + [basis[i] + basis[j] for i in range(2 * m) for j in range(i + 1, 2 * m)]
    pvs = [f2.project_plus(g) for g in gammas]

    scale = max(1.0, float(np.max(np.abs(comps))))

    # D2: quadratic term equivariance
    r2 = 0.0
    for pv in pvs:
        lhs = a1 @ np.conj(constant(pv))
        rhs = constant(a2 @ np.conj(pv))
        r2 = max(r2, float(np.max(np.abs(lhs - rhs))))
    report["D2"] = {"ok": r2 <= tol * scale, "residual": r2}

    # D3: bilinear term equivariance on frame basis x lattice basis; the
    # linear parts at the generators are the columns of D6's system
    r3 = 0.0
    gen_cols = np.zeros((2 * m, 2 * d, m), dtype=complex)
    for g, pv in enumerate(pvs[: 2 * m]):
        for i in range(m):
            v = v_basis[:, i]
            gen_cols[g, :, i] = linear(v, pv)
            rhs = linear(a2 @ np.conj(v), a2 @ np.conj(pv))
            r3 = max(r3, float(np.max(np.abs(a1 @ np.conj(gen_cols[g, :, i]) - rhs))))
    report["D3"] = {"ok": r3 <= tol * scale, "residual": r3}

    # D4: translation defect of the cocycle lands in the projected lattice.
    # Expanding the affine cocycle once (its constant term appears a single
    # time) and cancelling the conjugated quadratic term through D2 leaves a
    # defect linear in the generator, so the basis vectors suffice.
    ok4 = True
    pd2 = f2.project_plus(d2)
    for pv in pvs:
        w = f1.project_plus(lmat @ np.conj(pv)) - linear(pd2, a2 @ np.conj(pv))
        if fiber_lattice_coordinates(dec, f1.plus_coords(w), tol) is None:
            ok4 = False
            break
    report["D4"] = {"ok": ok4, "detail": "cocycle translation defect is integral"}

    # D5: complex representatives are antilinear involutions
    r5 = max(
        float(np.max(np.abs(ca1 @ np.conj(ca1) - np.eye(d)))),
        float(np.max(np.abs(ca2 @ np.conj(ca2) - np.eye(m)))),
    )
    report["D5"] = {"ok": r5 <= tol, "residual": r5}

    # D6: linear defect of L matches the cocycle at some lattice gamma
    lhs_cols = a1 @ np.conj(f1.project_plus(lmat @ np.conj(v_basis))) + f1.project_plus(
        lmat @ (a2 @ v_basis)
    )
    sysmat = gen_cols.reshape(2 * m, -1).T  # (2d * m) x (2m)
    rhs = lhs_cols.ravel()
    real_sys = np.vstack([np.real(sysmat), np.imag(sysmat)])
    real_rhs = np.concatenate([np.real(rhs), np.imag(rhs)])
    gamma, *_ = np.linalg.lstsq(real_sys, real_rhs, rcond=None)
    gamma_int = np.round(gamma)
    lin_res = float(np.max(np.abs(real_sys @ gamma_int - real_rhs))) if m else 0.0
    const_res = float(np.max(np.abs(constant(f2.project_plus(gamma_int)))))
    ok6 = (
        np.max(np.abs(gamma - gamma_int)) <= max(tol, 1e-6)
        and lin_res <= tol * scale
        and const_res <= tol * scale
    )
    report["D6"] = {
        "ok": bool(ok6),
        "witness": [int(x) for x in gamma_int],
        "linear_residual": lin_res,
        "constant_residual": const_res,
    }

    # D7 and D8: the real translations of the squared map, those of I5 and I6
    sq_fiber, sq_base = _square_translation(rs)
    report["D7"] = {
        "ok": ratl.is_integer_vector(sq_base),
        "detail": "base involution squares to the identity modulo the lattice",
    }
    report["D8"] = {
        "ok": ratl.is_integer_vector(sq_fiber),
        "detail": "fiber translation defect is integral",
    }

    report["complex_representatives"] = {
        "A1": ca1,
        "A2": ca2,
        "L": cl,
        "d1": delta1,
        "d2": delta2,
    }
    report["all_ok"] = bool(
        report["prerequisites"]["ok"]
        and all(report[f"D{k}"]["ok"] for k in range(1, 9))
    )
    return report


# ---------------------------------------------------------------------------
# eigenspace split


@dataclass(eq=False)
class EigenSplit:
    """Block data of (A, L) on the +1/-1 eigenspaces of (A1, A2).

    basis_V_plus and friends hold primitive integer basis columns of the
    eigenspaces.  A_plus, A_minus collect the U+ valued blocks of the form
    on V+ x V+ and V- x V-, D the U- valued block on V- x V+; the U- block
    on V+ x V- is minus the transpose of D and is not stored.  L_pp, L_pm,
    L_mp, L_mm are the eigenblocks of L (superscript fiber sign, subscript
    base sign).  gamma_hat_plus is the ambient integer vector in V+ that
    generates the coupling blocks, when one exists.
    """

    basis_V_plus: np.ndarray
    basis_V_minus: np.ndarray
    basis_U_plus: np.ndarray
    basis_U_minus: np.ndarray
    A_plus: np.ndarray
    A_minus: np.ndarray
    D: np.ndarray
    L_pp: np.ndarray
    L_pm: np.ndarray
    L_mp: np.ndarray
    L_mm: np.ndarray
    gamma_hat_plus: np.ndarray | None = None
    degenerate: bool = False
    notes: tuple = ()
    reassembly_residual: float = 0.0
    gamma_residual: float | None = None

    @property
    def dim_V_plus(self) -> int:
        return self.basis_V_plus.shape[1]

    @property
    def dim_V_minus(self) -> int:
        return self.basis_V_minus.shape[1]

    @property
    def dim_U_plus(self) -> int:
        return self.basis_U_plus.shape[1]

    @property
    def dim_U_minus(self) -> int:
        return self.basis_U_minus.shape[1]


def _eigenbasis(mat, sign: int):
    """Primitive integer basis of ker(mat - sign I), lexicographic order."""
    shifted = [
        [x - (sign if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mat)
    ]
    return ratl.integer_kernel(shifted)


def eigensplit(datum: BundleDatum, rs: RealStructureData) -> EigenSplit:
    """Reduce (A, L) to eigenspace blocks of the involution pair.

    Exact integer kernels give the eigenbases; the block structure of the
    form (each value splits cleanly into its U+ and U- parts according to
    the base eigenspace signs) is verified exactly and a violation raises,
    since it signals data that does not satisfy the equivariance condition.

    The coupling blocks L_pp and L_mm must come from a single lattice
    vector gamma_hat in V+ through

        L_pp x = -(1/2) A_plus(x, gamma_hat),
        L_mm x = +(1/2) D(x, gamma_hat);

    the joint least squares solution is accepted when its residual is below
    1e-9 and the ambient vector is integral to 1e-8, otherwise
    gamma_hat_plus is None and a note explains.
    """
    m, d = datum.m, datum.d
    vp = _eigenbasis(rs.A2, 1)
    vm = _eigenbasis(rs.A2, -1)
    up = _eigenbasis(rs.A1, 1)
    um = _eigenbasis(rs.A1, -1)
    p, q = len(vp), len(vm)
    if p + q != 2 * m or len(up) + len(um) != 2 * d:
        raise ValueError("eigenspaces do not span; involution data inconsistent")

    w_inv = ratl.inverse(ratl.transpose(up + um))  # columns U+ then U-, inverted
    v_all = vp + vm

    # exact U+ then U- coordinates of the form on eigenbasis pairs and of L,
    # copied to C order so that the float blocks keep their memory layout
    u = len(up)
    vals = np.array(
        [[ratl.mat_vec(w_inv, form_values(datum, x, y)) for y in v_all] for x in v_all],
        dtype=object,
    ).transpose(2, 0, 1).copy()
    for block, name in (
        (vals[:u, :p, p:], "U+ part on V+ x V-"),
        (vals[u:, :p, :p], "U- part on V+ x V+"),
        (vals[u:, p:, p:], "U- part on V- x V-"),
    ):
        if np.any(block != 0):
            raise ValueError(f"eigenspace block structure violated: {name} is nonzero")
    a_plus = vals[:u, :p, :p].astype(float)
    a_minus = vals[:u, p:, p:].astype(float)
    d_block = vals[u:, p:, :p].astype(float)
    lvals = np.array(
        [ratl.mat_vec(w_inv, ratl.mat_vec(rs.L, v)) for v in v_all], dtype=object
    ).T.copy()
    l_pp, l_pm = lvals[:u, :p].astype(float), lvals[:u, p:].astype(float)
    l_mp, l_mm = lvals[u:, :p].astype(float), lvals[u:, p:].astype(float)

    basis_vp = np.array(vp, dtype=int).T if p else np.zeros((2 * m, 0), dtype=int)
    basis_vm = np.array(vm, dtype=int).T if q else np.zeros((2 * m, 0), dtype=int)
    basis_up = np.array(up, dtype=int).T if up else np.zeros((2 * d, 0), dtype=int)
    basis_um = np.array(um, dtype=int).T if um else np.zeros((2 * d, 0), dtype=int)

    notes = []
    degenerate = min(p, q, len(up), len(um)) == 0
    if degenerate:
        notes.append(
            f"degenerate eigenspace split: dims V+={p}, V-={q}, U+={len(up)}, U-={len(um)}"
        )

    # reassembly residual on the standard basis
    pmat = np.column_stack([basis_vp.astype(float), basis_vm.astype(float)])
    z = np.linalg.solve(pmat, np.eye(2 * m))
    zp, zm = z[:p], z[p:]
    comps = np.array(datum.components, dtype=float)
    rebuilt = np.zeros_like(comps)
    wmat = np.column_stack([basis_up.astype(float), basis_um.astype(float)])
    for k in range(len(up)):
        contrib = zp.T @ a_plus[k] @ zp + zm.T @ a_minus[k] @ zm
        rebuilt += np.einsum("u,rs->urs", wmat[:, k], contrib)
    for k in range(len(um)):
        dk = d_block[k]
        contrib = zm.T @ dk @ zp - zp.T @ dk.T @ zm
        rebuilt += np.einsum("u,rs->urs", wmat[:, len(up) + k], contrib)
    scale = max(1.0, float(np.max(np.abs(comps))))
    reassembly = float(np.max(np.abs(rebuilt - comps))) / scale

    # coupling generator
    gamma_plus, gamma_res, gnote = _solve_coupling_generator(
        a_plus, d_block, l_pp, l_mm, basis_vp
    )
    if gnote:
        notes.append(gnote)

    return EigenSplit(
        basis_V_plus=basis_vp,
        basis_V_minus=basis_vm,
        basis_U_plus=basis_up,
        basis_U_minus=basis_um,
        A_plus=a_plus,
        A_minus=a_minus,
        D=d_block,
        L_pp=l_pp,
        L_pm=l_pm,
        L_mp=l_mp,
        L_mm=l_mm,
        gamma_hat_plus=gamma_plus,
        degenerate=degenerate,
        notes=tuple(notes),
        reassembly_residual=reassembly,
        gamma_residual=gamma_res,
    )


def _solve_coupling_generator(a_plus, d_block, l_pp, l_mm, basis_vp):
    p = a_plus.shape[1]
    q = d_block.shape[1]
    rows = []
    rhs = []
    for k in range(a_plus.shape[0]):
        for i in range(p):
            rows.append(-0.5 * a_plus[k, i, :])
            rhs.append(l_pp[k, i])
    for k in range(d_block.shape[0]):
        for i in range(q):
            rows.append(0.5 * d_block[k, i, :])
            rhs.append(l_mm[k, i])
    rhs = np.array(rhs)
    if p == 0:
        if rhs.size and np.max(np.abs(rhs)) > 1e-9:
            return None, float(np.max(np.abs(rhs))), "coupling blocks nonzero with empty V+"
        return np.zeros(0), 0.0, None
    mat = np.array(rows).reshape(-1, p)
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    res = float(np.max(np.abs(mat @ sol - rhs))) if rhs.size else 0.0
    if res > 1e-9:
        return None, res, "coupling blocks are not generated by a single vector"
    ambient = basis_vp.astype(float) @ sol
    rounded = np.round(ambient)
    if np.max(np.abs(ambient - rounded)) > 1e-8:
        return None, res, "coupling generator is not a lattice vector"
    return sol, res, None


# ---------------------------------------------------------------------------
# compatible complex structures from block data


@dataclass(eq=False)
class CompatibleStructure:
    """Invertible blocks (B1, B2) parametrizing eigenspace-swapping structures."""

    B1: np.ndarray
    B2: np.ndarray

    def __post_init__(self):
        self.B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        for name, b in (("B1", self.B1), ("B2", self.B2)):
            if b.shape[0] != b.shape[1]:
                raise ValueError(f"{name} must be square")
            if abs(np.linalg.det(b)) < 1e-14:
                raise ValueError(f"{name} is singular")


def build_J(split: EigenSplit, cs: CompatibleStructure) -> ComplexStructurePair:
    """Complex structures swapping the eigenspaces, from the blocks (B1, B2).

    Requires the two eigenspaces of each involution to have equal
    dimensions.  In eigen coordinates J sends (x+, x-) to (-B x-,
    B^{-1} x+), which anticommutes with the involution by construction.
    """
    if split.dim_V_plus != split.dim_V_minus:
        raise ValueError("base eigenspaces have different dimensions")
    if split.dim_U_plus != split.dim_U_minus:
        raise ValueError("fiber eigenspaces have different dimensions")
    j2 = _swap_structure(split.basis_V_plus, split.basis_V_minus, cs.B2)
    j1 = _swap_structure(split.basis_U_plus, split.basis_U_minus, cs.B1)
    return ComplexStructurePair(J1=j1, J2=j2)


def _swap_structure(basis_plus, basis_minus, b):
    k = basis_plus.shape[1]
    pmat = np.column_stack([basis_plus.astype(float), basis_minus.astype(float)])
    core = np.zeros((2 * k, 2 * k))
    core[:k, k:] = -b
    core[k:, :k] = np.linalg.inv(b)
    return pmat @ core @ np.linalg.inv(pmat)


def antiholomorphy_residual(split: EigenSplit, cs: CompatibleStructure) -> float:
    """Residual of the antiholomorphy equations for L against (B1, B2).

    Primary form: || L_pp B2 + B1 L_mm || and || L_pm B2^{-1} - B1 L_mp ||.
    The equivalent second form (obtained by composing with B1^{-1} and the
    B2 swaps) is evaluated independently; the two must vanish together up
    to a conditioning factor, and a disagreement raises.
    """
    b1, b2 = cs.B1, cs.B2
    b1i = np.linalg.inv(b1)
    b2i = np.linalg.inv(b2)
    r_first = max(
        _maxabs(split.L_pp @ b2 + b1 @ split.L_mm),
        _maxabs(split.L_pm @ b2i - b1 @ split.L_mp),
    )
    r_second = max(
        _maxabs(split.L_mp @ b2 - b1i @ split.L_pm),
        _maxabs(split.L_mm @ b2i + b1i @ split.L_pp),
    )
    kappa = _conditioning(cs)
    threshold = 1e-9
    if (r_first <= threshold) != (r_second <= threshold * kappa) and (
        r_second <= threshold
    ) != (r_first <= threshold * kappa):
        raise RuntimeError(
            f"antiholomorphy forms disagree: {r_first} vs {r_second} (kappa {kappa})"
        )
    return r_first


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _conditioning(cs: CompatibleStructure) -> float:
    vals = []
    for b in (cs.B1, cs.B2):
        vals.append(max(1.0, float(np.linalg.norm(b, np.inf))))
        vals.append(max(1.0, float(np.linalg.norm(np.linalg.inv(b), np.inf))))
    out = 1.0
    for v in vals:
        out *= v
    return out


def rbr2_residual(split: EigenSplit, cs: CompatibleStructure) -> float:
    """Residual of the block quadric relating A_minus, A_plus and D.

    A_minus - B2^T A_plus B2 + B1 (D B2 - (D B2)^T) = 0, evaluated per
    U+ coordinate with B1 contracting the U- index of D.
    """
    b1, b2 = cs.B1, cs.B2
    lhs = split.A_minus - np.einsum("sr,ksl,lt->krt", b2, split.A_plus, b2)
    db2 = np.einsum("krs,st->krt", split.D, b2)
    skew = db2 - np.transpose(db2, (0, 2, 1))
    lhs = lhs + np.einsum("kl,lrs->krs", b1, skew)
    return _maxabs(lhs)


def tensor_equations_residuals(split: EigenSplit, cs: CompatibleStructure):
    """The four equivalent mixed-block tensor equations, as residuals.

    All four arise from one identity by composing with the invertible
    B-blocks, so they vanish together; the conditioning factor from
    equivalence_conditioning bounds how far apart they can drift.
    """
    b1, b2 = cs.B1, cs.B2
    b1i = np.linalg.inv(b1)
    b2i = np.linalg.inv(b2)
    a_p, a_m, dd = split.A_plus, split.A_minus, split.D

    def con_u(mat, block):
        return np.einsum("kl,lrs->krs", mat, block)

    dT = np.transpose(dd, (0, 2, 1))
    eq1 = (
        -np.einsum("krs,st->krt", a_p, b2)
        + np.einsum("sr,kst->krt", b2i, a_m)
        - con_u(b1, dT - np.einsum("sr,kst,tu->kru", b2i, dd, b2))
    )
    eq2 = (
        np.einsum("krs,st->krt", a_m, b2i)
        - np.einsum("sr,kst->krt", b2, a_p)
        - con_u(b1, -dd + np.einsum("sr,kst,tu->kru", b2, dT, b2i))
    )
    eq3 = (
        -np.einsum("krs,st->krt", dT, b2i)
        + np.einsum("sr,kst->krt", b2i, dd)
        - con_u(b1i, a_p - np.einsum("sr,kst,tu->kru", b2i, a_m, b2i))
    )
    eq4 = (
        np.einsum("sr,kst->krt", b2, dT)
        - np.einsum("krs,st->krt", dd, b2)
        - con_u(b1i, a_m - np.einsum("sr,kst,tu->kru", b2, a_p, b2))
    )
    return (_maxabs(eq1), _maxabs(eq2), _maxabs(eq3), _maxabs(eq4))


def equivalence_conditioning(cs: CompatibleStructure) -> float:
    """Bound on the drift between the four tensor equation residuals."""
    return _conditioning(cs) ** 2


# ---------------------------------------------------------------------------
# orbifold conjugation data and reconstruction


@dataclass(frozen=True)
class OrbifoldConjugationData:
    """What the conjugation action on the lattice group remembers.

    A1, A2 are the integer involutions, d2 the base translation, and
    generator_translations[j] is the central translation part of the
    conjugate of the j-th lattice generator lift.  square_translation is
    the (fiber, base) translation of the squared map; lifts[j] records the
    central part of the chosen generator lift (zero for the canonical
    section).
    """

    A1: tuple
    A2: tuple
    d2: tuple
    generator_translations: tuple
    square_translation_y: tuple
    square_translation_x: tuple
    lifts: tuple

    def __post_init__(self):
        a1 = _int_matrix(self.A1, "A1", len(self.A1))
        a2 = _int_matrix(self.A2, "A2", len(self.A2))
        object.__setattr__(self, "A1", a1)
        object.__setattr__(self, "A2", a2)
        object.__setattr__(self, "d2", tuple(ratl.frac(x) for x in self.d2))
        object.__setattr__(
            self,
            "generator_translations",
            tuple(tuple(ratl.frac(x) for x in t) for t in self.generator_translations),
        )
        object.__setattr__(
            self, "square_translation_y", tuple(ratl.frac(x) for x in self.square_translation_y)
        )
        object.__setattr__(
            self, "square_translation_x", tuple(ratl.frac(x) for x in self.square_translation_x)
        )
        object.__setattr__(
            self, "lifts", tuple(tuple(ratl.frac(x) for x in t) for t in self.lifts)
        )


def orbifold_data(
    datum: BundleDatum, rs: RealStructureData, lifts=None
) -> OrbifoldConjugationData:
    """Conjugation data induced by a real structure on the lattice group.

    The conjugate of the lift of the j-th base generator e_j translates the
    center by

        t_j = -A1 A(A2 d2, A2 e_j) + L e_j + A1 l_j

    (exact rational arithmetic; A2 is its own inverse), and the squared map
    translates by (L d2 + A1 d1 + d1, A2 d2 + d2).
    """
    m, d = datum.m, datum.d
    a1, a2, lmat, d2 = rs.A1, rs.A2, rs.L, rs.d2
    n = 2 * m
    if lifts is None:
        lifts = tuple(tuple(Fraction(0) for _ in range(2 * d)) for _ in range(n))
    lifts = tuple(tuple(ratl.frac(x) for x in t) for t in lifts)
    a2d2 = ratl.mat_vec(a2, d2)
    gens = []
    for j in range(n):
        aval = form_values(datum, a2d2, [row[j] for row in a2])
        term = ratl.mat_vec(a1, aval)
        al = ratl.mat_vec(a1, lifts[j])
        gens.append(tuple(-t + row[j] + a for t, row, a in zip(term, lmat, al)))
    sq_y, sq_x = _square_translation(rs)
    return OrbifoldConjugationData(
        A1=rs.A1,
        A2=rs.A2,
        d2=d2,
        generator_translations=tuple(gens),
        square_translation_y=sq_y,
        square_translation_x=sq_x,
        lifts=lifts,
    )


def reconstruct_from_orbifold(
    datum: BundleDatum, data: OrbifoldConjugationData
) -> RealStructureData:
    """Recover the real structure, d1 normalized, from conjugation data.

    Inverts the generator translation formula column by column to recover
    L, then reads the normalized d1 = (I + A1) d1 / 2 off the square
    translation via 2 d1_normalized = square_y - L d2.  Exact arithmetic
    throughout; inconsistent data raises with the violated identity named.
    """
    m, d = datum.m, datum.d
    n = 2 * m
    if not _is_involution(data.A1):
        raise ValueError("inconsistent data: A1 squared is not the identity")
    if not _is_involution(data.A2):
        raise ValueError("inconsistent data: A2 squared is not the identity")
    a1, a2, d2 = data.A1, data.A2, data.d2
    sqx = [a + b for a, b in zip(ratl.mat_vec(a2, d2), d2)]
    if list(data.square_translation_x) != sqx:
        raise ValueError(
            "inconsistent data: base part of the square translation is not A2 d2 + d2"
        )
    a2d2 = ratl.mat_vec(a2, d2)
    l_cols = []
    for j in range(n):
        aval = form_values(datum, a2d2, [row[j] for row in a2])
        term = ratl.mat_vec(a1, aval)
        al = ratl.mat_vec(a1, data.lifts[j])
        t_j = data.generator_translations[j]
        l_cols.append([t + tm - a for t, tm, a in zip(t_j, term, al)])
    lmat = ratl.transpose(l_cols)
    ld2 = ratl.mat_vec(lmat, d2)
    d1n = tuple((s - v) / 2 for s, v in zip(data.square_translation_y, ld2))
    return RealStructureData(
        A1=data.A1,
        A2=data.A2,
        L=tuple(tuple(row) for row in lmat),
        d1=d1n,
        d2=data.d2,
    )
