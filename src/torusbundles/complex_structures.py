"""Complex structures on base and fiber tori and the form decomposition.

A linear complex structure J (a real matrix with J^2 = -I) splits the
complexification of R^(2k) into the span V of the columns x - i J x and
its conjugate.  For a pair (J1, J2) acting on the fiber part R^(2d) and
the base part R^(2m), the alternating form A of a bundle datum decomposes
into pieces according to how they pair V with conj(V) and where they land
in U versus conj(U), where U is the fiber analogue of V.

The pair is compatible with A exactly when the piece mapping
Alt^2(conj V) to U vanishes, equivalently when the matrix identity

    A(x, J2 y) + A(J2 x, y) = J1 A(x, y) - J1 A(J2 x, J2 y)

holds.  Both formulations are computed here and must agree.

For a compatible pair, A = B' + B'' + conj(B') + conj(B'') with

    B'(v, w)        the Alt^2(V) -> U piece,
    B''(v, conj w)  the mixed piece,

and the lattice acts on the product of the fiber torus with V by the
affine maps gamma([u], v) = ([u + F_gamma(v)], v + p_V(gamma)) with

    F_gamma(v) = B'(v, g) + 2 B''(v, conj g) + B''(g, conj g),

g the V coordinates of p_V(gamma).  This module computes the pieces,
the residuals, and the action, all in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice_core import BundleDatum


def _as_square(mat, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
        raise ValueError(f"{name} must be a square matrix of even size")
    return arr


def _check_complex_structure(J: np.ndarray, name: str, tol: float = 1e-12):
    """J^2 = -I to tol relative to max(1, max |J_ij|)^2, tested on J scaled
    exactly by a power of two so that squaring cannot overflow."""
    if not np.isfinite(J).all():
        raise ValueError(f"{name} entries must be finite numbers")
    n = J.shape[0]
    top, e = np.frexp(max(1.0, float(np.max(np.abs(J)))))
    k = np.ldexp(J, -e)
    if np.max(np.abs(k @ k + np.ldexp(np.eye(n), -2 * e))) > tol * (top * top):
        raise ValueError(f"{name} does not square to minus the identity")


def hodge_subspace(J) -> np.ndarray:
    """Basis columns of the +i eigenspace {x - i J x} of J.

    Scans the candidate columns e_j - i J e_j left to right and keeps the
    ones that grow the rank, so for the standard 2 x 2 structure the output
    is the single column (1, -i).  Returns a (2k, k) complex matrix.
    """
    J = _as_square(J, "J")
    _check_complex_structure(J, "J")
    return _hodge_basis(J)


def _hodge_basis(J: np.ndarray) -> np.ndarray:
    n = J.shape[0]
    cand = np.eye(n) - 1j * J
    chosen: list[int] = []
    for j in range(n):
        if np.linalg.matrix_rank(cand[:, chosen + [j]]) == len(chosen) + 1:
            chosen.append(j)
        if len(chosen) == n // 2:
            break
    return cand[:, chosen]


def orientation_preserving(J) -> bool:
    """Sign of the real basis (x_j, J x_j) built from the selected columns,
    each of which is x_j - i J x_j."""
    basis = _hodge_basis(_as_square(J, "J"))
    cols = [part for col in basis.T for part in (col.real, -col.imag)]
    return float(np.linalg.det(np.column_stack(cols))) > 0


@dataclass(eq=False)
class ComplexStructurePair:
    """Complex structures J1 (fiber, 2d x 2d) and J2 (base, 2m x 2m).

    Each frame is built on first use, so a pair whose Hodge columns do not
    span fails where a frame is first needed, not here.
    """

    J1: np.ndarray
    J2: np.ndarray

    def __post_init__(self):
        self.J1 = _as_square(self.J1, "J1")
        self.J2 = _as_square(self.J2, "J2")
        _check_complex_structure(self.J1, "J1")
        _check_complex_structure(self.J2, "J2")

    @property
    def orientation_ok(self) -> bool:
        return orientation_preserving(self.J1) and orientation_preserving(self.J2)

    @cached_property
    def frame1(self) -> _Frame:
        return _Frame(self.J1)

    @cached_property
    def frame2(self) -> _Frame:
        return _Frame(self.J2)


def standard_structure(k: int) -> np.ndarray:
    """Block diagonal of k copies of [[0, -1], [1, 0]]."""
    J = np.zeros((2 * k, 2 * k))
    for i in range(k):
        J[2 * i, 2 * i + 1] = -1.0
        J[2 * i + 1, 2 * i] = 1.0
    return J


class _Frame:
    """Basis bookkeeping for one complex structure: the Hodge columns are
    picked once and [V, conj V] is factored once."""

    def __init__(self, J: np.ndarray):
        self.J = J
        self.basis = _hodge_basis(J)
        n = J.shape[0]
        full = np.column_stack([self.basis, np.conj(self.basis)])
        if np.linalg.matrix_rank(full) != n:
            raise ValueError("eigenspace and conjugate do not span")
        self._plus_rows = np.linalg.inv(full)[: n // 2]

    def plus_coords(self, w) -> np.ndarray:
        """V coordinates of an ambient vector or of a matrix of columns."""
        return self._plus_rows @ np.asarray(w, dtype=complex)

    def project_plus(self, w) -> np.ndarray:
        """Ambient projection onto the +i eigenspace along its conjugate."""
        return self.basis @ self.plus_coords(w)


def _components_array(datum: BundleDatum) -> np.ndarray:
    return np.array(datum.components, dtype=float)


def riemann_residual(datum: BundleDatum, pair: ComplexStructurePair) -> float:
    """Size of the compatibility defect of (A, J1, J2), two ways.

    Route one extracts the Alt^2(conj V) -> U piece of A through the frame
    solves; route two evaluates the matrix identity

        A(x, J2 y) + A(J2 x, y) - J1 A(x, y) + J1 A(J2 x, J2 y)

    on the standard basis.  The two routes are algebraically identical, so
    their values must match to 1e-10, and the maximum is returned; a pair
    too ill-conditioned for them to agree raises ValueError.
    """
    comps = _components_array(datum)
    J1, J2 = pair.J1, pair.J2
    if J1.shape[0] != 2 * datum.d or J2.shape[0] != 2 * datum.m:
        raise ValueError("structure sizes do not match the datum")

    # matrix identity route
    terms = np.einsum("kij,jl->kil", comps, J2) + np.einsum("ji,kjl->kil", J2, comps)
    mixed = comps - np.einsum("ji,kjl,lm->kim", J2, comps, J2)
    ident = terms - np.einsum("kl,lij->kij", J1, mixed)
    r_ident = float(np.max(np.abs(ident)))

    # component extraction route: pair conjugate eigenvectors, project to U
    conj_cols = np.eye(2 * datum.m) + 1j * J2
    vals = np.einsum("ri,krs,sj->kij", conj_cols, comps.astype(complex), conj_cols)
    n = 2 * datum.m
    flat = vals.reshape(2 * datum.d, n * n)
    projected = pair.frame1.project_plus(flat)
    extracted = 2.0 * np.imag(projected).reshape(2 * datum.d, n, n)
    r_extract = float(np.max(np.abs(extracted)))

    if abs(r_ident - r_extract) > 1e-10 * max(1.0, r_ident):
        raise ValueError(
            f"compatibility residual routes disagree: {r_ident} vs {r_extract};"
            " the pair is too ill-conditioned to decide compatibility in floats"
        )
    return max(r_ident, r_extract)


@dataclass(eq=False)
class HodgeDecomposition:
    """Pieces B' and B'' of a compatible form in frame coordinates.

    B_prime[k][i][j] and B_doubleprime[k][i][j] hold the k-th fiber frame
    coordinate of the piece evaluated at (v_i, v_j), respectively
    (v_i, conj v_j), for the frame bases stored alongside.
    """

    B_prime: np.ndarray
    B_doubleprime: np.ndarray
    u_basis: np.ndarray
    v_basis: np.ndarray
    riemann_defect: float
    reconstruction_residual: float
    _frame1: object = field(repr=False, default=None)
    _frame2: object = field(repr=False, default=None)

    @property
    def d(self) -> int:
        return self.B_prime.shape[0]

    @property
    def m(self) -> int:
        return self.B_prime.shape[1]


class IncompatibleFormError(ValueError):
    """The form is not compatible with the pair; residual is the defect found."""

    def __init__(self, residual: float):
        super().__init__(f"form is not compatible with the pair: residual {residual}")
        self.residual = residual


def decompose(datum: BundleDatum, pair: ComplexStructurePair, tol: float = 1e-8) -> HodgeDecomposition:
    """Split a compatible form into its B' and B'' pieces.

    Raises IncompatibleFormError when the compatibility residual exceeds
    tol.  The returned object also records how well the pieces reassemble
    the original form on the standard basis (for exactly compatible input
    this is at the rounding level, below 1e-12 relative).
    """
    defect = riemann_residual(datum, pair)
    if defect > tol:
        raise IncompatibleFormError(defect)
    comps = _components_array(datum)
    frame1, frame2 = pair.frame1, pair.frame2
    V = frame2.basis
    d, m = datum.d, datum.m

    def u_coords(mat_of_vals):
        flat = mat_of_vals.reshape(2 * d, -1)
        return frame1.plus_coords(flat).reshape(d, *mat_of_vals.shape[1:])

    vals_vv = np.einsum("ri,krs,sj->kij", V, comps.astype(complex), V)
    vals_vw = np.einsum("ri,krs,sj->kij", V, comps.astype(complex), np.conj(V))
    b_prime = u_coords(vals_vv)
    b_double = u_coords(vals_vw)

    # reassembly check on the standard basis
    cvecs = frame2.plus_coords(np.eye(2 * m))
    bp_val = np.einsum("kij,ir,js->krs", b_prime, cvecs, cvecs)
    bpp_rs = np.einsum("kij,ir,js->krs", b_double, cvecs, np.conj(cvecs))
    total = bp_val + bpp_rs - np.transpose(bpp_rs, (0, 2, 1))
    ambient = np.einsum("uk,krs->urs", frame1.basis, total)
    rebuilt = 2.0 * np.real(ambient)
    scale = max(1.0, float(np.max(np.abs(comps))))
    recon = float(np.max(np.abs(rebuilt - comps))) / scale

    return HodgeDecomposition(
        B_prime=b_prime,
        B_doubleprime=b_double,
        u_basis=frame1.basis,
        v_basis=frame2.basis,
        riemann_defect=defect,
        reconstruction_residual=recon,
        _frame1=frame1,
        _frame2=frame2,
    )


def is_parallelizable(dec: HodgeDecomposition, tol: float = 1e-9) -> bool:
    """True when the mixed piece B'' vanishes."""
    return float(np.max(np.abs(dec.B_doubleprime))) <= tol


def is_singular_point(dec: HodgeDecomposition, tol: float = 1e-9) -> bool:
    """Whether the datum sits at a singular point of its family, d = 1 only.

    For one dimensional fibers the family is singular at the points with
    vanishing mixed piece once m >= 3; for m <= 2 it is smooth everywhere.
    """
    if dec.d != 1:
        raise ValueError("singularity test is defined for d = 1")
    if dec.m <= 2:
        return False
    return is_parallelizable(dec, tol)


@dataclass(eq=False)
class AppellHumbertPoint:
    """A decomposition together with the linear shift parameter phi.

    phi is a complex d x m matrix, zero by default; it shifts the cocycle
    by the linear term phi(g).
    """

    structure: HodgeDecomposition
    phi: np.ndarray | None = None

    def __post_init__(self):
        d, m = self.structure.d, self.structure.m
        if self.phi is None:
            self.phi = np.zeros((d, m), dtype=complex)
        else:
            self.phi = np.asarray(self.phi, dtype=complex)
            if self.phi.shape != (d, m):
                raise ValueError(f"phi must have shape {(d, m)}")


def base_coords(dec: HodgeDecomposition, gamma) -> np.ndarray:
    """V coordinates of the base projection of an ambient real vector."""
    return dec._frame2.plus_coords(np.asarray(gamma, dtype=float))


def cocycle_F(point, gamma, v) -> np.ndarray:
    """Translation cocycle F_gamma evaluated at base coordinates v.

    F_gamma(v) = B'(v, g) + 2 B''(v, conj g) + B''(g, conj g) + phi(g)
    with g the V coordinates of p_V(gamma); phi enters only when an
    AppellHumbertPoint with nonzero shift is given.
    """
    dec, phi = _dec_and_phi(point)
    g = base_coords(dec, gamma)
    v = np.asarray(v, dtype=complex)
    out = (
        np.einsum("kij,i,j->k", dec.B_prime, v, g)
        + 2.0 * np.einsum("kij,i,j->k", dec.B_doubleprime, v, np.conj(g))
        + np.einsum("kij,i,j->k", dec.B_doubleprime, g, np.conj(g))
    )
    return out + phi @ g


def _dec_and_phi(point):
    if isinstance(point, AppellHumbertPoint):
        return point.structure, point.phi
    return point, np.zeros((point.d, point.m), dtype=complex)


def holonomy_action(point, gamma, u, v):
    """gamma ([u], v) = ([u + F_gamma(v)], v + p_V(gamma)) in frame coordinates."""
    dec, _ = _dec_and_phi(point)
    g = base_coords(dec, gamma)
    u = np.asarray(u, dtype=complex)
    return u + cocycle_F(point, gamma, v), np.asarray(v, dtype=complex) + g


def fiber_lattice_coordinates(dec: HodgeDecomposition, u, tol: float = 1e-8):
    """Integer coordinates of u in the projected fiber lattice, or None.

    Solves the real 2d x 2d system expressing u over the projections of the
    standard lattice basis and accepts when the solution is integral to tol.
    A coordinate beyond 2**53 (or not finite) raises ValueError: every float
    that large is an integer, so integrality says nothing there.
    """
    d = dec.d
    pi = dec._frame1.plus_coords(np.eye(2 * d))
    mat = np.vstack([np.real(pi), np.imag(pi)])
    rhs = np.concatenate([np.real(u), np.imag(u)])
    z = np.linalg.solve(mat, rhs)
    if not np.all(np.abs(z) <= 2.0**53):
        raise ValueError("fiber lattice coordinates beyond 2**53 cannot be decided in floats")
    rounded = np.round(z)
    if np.max(np.abs(z - rounded)) <= tol:
        return rounded.astype(int)
    return None
