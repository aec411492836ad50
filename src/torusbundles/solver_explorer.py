"""Case analysis and numerical exploration of the compatibility equations.

For one-dimensional fibers the block data of an equivariant form reduces
to a handful of scalars, and the simultaneous equations

    L_pp B + b L_mm = 0,   b (L_mp B) - L_pm = 0,
    a_minus - a_plus det(B) + b b'(B) = 0        (base dimension two only)

cut out the family of compatible complex structures inside the open
region {b > 0, det(B) > 0}.  This module classifies the family into an
exhaustive case tree, produces closed-form descriptions with verified
sample witnesses, and certifies connectedness numerically by joining
witnesses with verified paths that lie on the family by construction.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .real_structures import CompatibleStructure, EigenSplit

log = logging.getLogger(__name__)

ZERO_TOL = 1e-10
WITNESS_TOL = 1e-9
PATH_TOL = 1e-7
REGION_TOL = 1e-9

_BOX = 10.0  # half-width of the sampling box in chart coordinates


def _near_zero(x, scale=1.0):
    return abs(x) <= ZERO_TOL * max(1.0, scale)


def _det2(mat) -> float:
    """Closed-form determinant of a 1x1 or 2x2 matrix."""
    v = np.ravel(mat).tolist()
    return v[0] if len(v) == 1 else v[0] * v[3] - v[1] * v[2]


def _inv2(mat) -> np.ndarray:
    """Closed-form inverse of an invertible 2x2 matrix."""
    (a, b), (c, d) = np.asarray(mat, dtype=float).tolist()
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def _det2_rounded(p, q, r, s) -> float:
    """p s - q r rounded once, from the exact binary fractions of the entries.

    The float difference loses its digits when the matrix is nearly
    singular, and an inverse by the adjugate inherits that error.  A
    non-finite or huge result is returned as the float difference.
    """
    det = p * s - q * r
    if not abs(det) < 1e300:
        return det
    (a, ad), (d, dd), (b, bd), (c, cd) = (x.as_integer_ratio() for x in (p, s, q, r))
    return (a * d * bd * cd - b * c * ad * dd) / (ad * dd * bd * cd)


def _row_norm(rows) -> float:
    """Infinity norm (largest absolute row sum) of a matrix given as rows."""
    return max([sum(map(abs, row)) for row in rows])


def _affine_maxabs(row, cols, c, other) -> float:
    """max_j |(row @ M)_j + c * other_j| for M given by its columns."""
    return max([abs(sum(map(operator.mul, row, col)) + c * o) for col, o in zip(cols, other)])


def _bprime(d_block: np.ndarray, b_mat: np.ndarray) -> float:
    """Antisymmetric part (DB)_{12} - (DB)_{21} of the coupling product."""
    p = d_block @ b_mat
    return float(p[0, 1] - p[1, 0])


def _bprime_row(d_block: np.ndarray) -> np.ndarray:
    """b'(B) as a linear form on (b11, b12, b21, b22)."""
    return np.array([-d_block[1, 0], d_block[0, 0], -d_block[1, 1], d_block[0, 1]])


def _bprime_kernel(d_block: np.ndarray) -> np.ndarray:
    """Orthonormal basis (4 x 3) of the kernel of b' in (b11, b12, b21, b22)."""
    _, _, vt = np.linalg.svd(_bprime_row(d_block)[None, :])
    return vt[1:].T


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(eq=False)
class ConstraintSystem:
    """Scalar block data of the compatibility equations for 1-dim fibers.

    a_plus and a_minus are the off-diagonal entries of the antisymmetric
    blocks on the +1 and -1 base eigenspaces (zero when m = 1), D is the
    mixed block, and the l_* rows are the four eigenblocks of the linear
    part.  The open region is {b > 0, det B > 0}.  The system keeps the
    description `solve` computes for it, so treat the blocks as read-only.
    """

    m: int
    split: EigenSplit
    a_plus: float
    a_minus: float
    D: np.ndarray
    l_pp: np.ndarray
    l_pm: np.ndarray
    l_mp: np.ndarray
    l_mm: np.ndarray
    _description: SolutionSetDescription | None = field(default=None, init=False, repr=False)

    @property
    def scale(self) -> float:
        vals = [abs(self.a_plus), abs(self.a_minus), np.abs(self.D).max()]
        for row in (self.l_pp, self.l_pm, self.l_mp, self.l_mm):
            if row.size:
                vals.append(np.abs(row).max())
        return max(1.0, *vals)

    @classmethod
    def from_split(cls, split: EigenSplit) -> "ConstraintSystem":
        if split.dim_U_plus != 1 or split.dim_U_minus != 1:
            raise ValueError("constraint system requires one-dimensional fiber eigenspaces")
        m = split.dim_V_plus
        if split.dim_V_minus != m:
            raise ValueError("base eigenspaces have different dimensions")
        if m not in (1, 2):
            raise ValueError("only base eigenspace dimension 1 or 2 is supported")
        if m == 2:
            a_plus = float(split.A_plus[0][0, 1])
            a_minus = float(split.A_minus[0][0, 1])
        else:
            a_plus = 0.0
            a_minus = 0.0
        return cls(
            m=m,
            split=split,
            a_plus=a_plus,
            a_minus=a_minus,
            D=np.array(split.D[0], dtype=float),
            l_pp=np.array(split.L_pp[0], dtype=float),
            l_pm=np.array(split.L_pm[0], dtype=float),
            l_mp=np.array(split.L_mp[0], dtype=float),
            l_mm=np.array(split.L_mm[0], dtype=float),
        )

    @classmethod
    def from_blocks(cls, m, a_plus, a_minus, D, l_pp, l_pm, l_mp, l_mm) -> "ConstraintSystem":
        """Build a synthetic system (and backing split) from raw scalars."""
        if m not in (1, 2):
            raise ValueError("only base eigenspace dimension 1 or 2 is supported")
        d_block = np.atleast_2d(np.array(D, dtype=float))
        if d_block.shape != (m, m):
            raise ValueError(f"D must be {m}x{m}")
        rows = []
        for name, row in (("l_pp", l_pp), ("l_pm", l_pm), ("l_mp", l_mp), ("l_mm", l_mm)):
            arr = np.atleast_1d(np.array(row, dtype=float))
            if arr.shape != (m,):
                raise ValueError(f"{name} must have length {m}")
            rows.append(arr)
        if m == 2:
            skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
            ap = float(a_plus) * skew
            am = float(a_minus) * skew
        else:
            if a_plus or a_minus:
                raise ValueError("antisymmetric 1x1 blocks must vanish")
            ap = np.zeros((1, 1))
            am = np.zeros((1, 1))
        eye = np.eye(2 * m, dtype=int)
        split = EigenSplit(
            basis_V_plus=eye[:, :m].copy(),
            basis_V_minus=eye[:, m:].copy(),
            basis_U_plus=np.array([[1], [0]]),
            basis_U_minus=np.array([[0], [1]]),
            A_plus=ap[None, :, :],
            A_minus=am[None, :, :],
            D=d_block[None, :, :],
            L_pp=rows[0][None, :],
            L_pm=rows[1][None, :],
            L_mp=rows[2][None, :],
            L_mm=rows[3][None, :],
        )
        return cls(
            m=m,
            split=split,
            a_plus=float(a_plus),
            a_minus=float(a_minus),
            D=d_block,
            l_pp=rows[0],
            l_pm=rows[1],
            l_mp=rows[2],
            l_mm=rows[3],
        )

    # -- positions -----------------------------------------------------

    def pack(self, b: float, b_mat: np.ndarray) -> np.ndarray:
        return np.concatenate(([float(b)], np.asarray(b_mat, dtype=float).ravel()))

    def unpack(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return float(x[0]), x[1:].reshape(self.m, self.m)

    def in_region(self, x, margin=REGION_TOL) -> bool:
        b, b_mat = self.unpack(x)
        return b > margin and _det2(b_mat) > margin

    def equality_stack(self, x: np.ndarray) -> np.ndarray:
        """Cleared polynomial form of the equations, smooth on the region."""
        b, b_mat = self.unpack(x)
        eq1 = self.l_pp @ b_mat + b * self.l_mm
        eq2 = b * (self.l_mp @ b_mat) - self.l_pm
        parts = [eq1, eq2]
        if self.m == 2:
            q = self.a_minus - self.a_plus * _det2(b_mat) + b * _bprime(self.D, b_mat)
            parts.append(np.array([q]))
        return np.concatenate(parts)

    def residual_pair(self, b: float, b_mat: np.ndarray):
        """(antiholomorphy, block quadric) residuals at B1 = b, B2 = B.

        Closed form on the scalar blocks, with B^{-1} by the adjugate over a
        once-rounded det B.  The antiholomorphy residual is the primary form

            max |l_pp B + b l_mm|, |l_pm B^{-1} - b l_mp|,

        and the form composed with the inverses,

            max |l_mp B - b^{-1} l_pm|, |l_mm B^{-1} + b^{-1} l_pp|,

        is evaluated independently.  The two vanish together up to
        kappa = max(1,|b|) max(1,|b^{-1}|) max(1,|B|inf) max(1,|B^{-1}|inf):
        a RuntimeError is raised unless one form is below 1e-9 exactly when
        the other is below 1e-9 kappa.  The quadric residual is
        |a_minus - a_plus det B + b b'(B)|, identically 0 when m = 1.  A
        singular b or B (|det| < 1e-14) raises ValueError.  The values are
        those of real_structures.antiholomorphy_residual and rbr2_residual up
        to rounding, which the tests use as the oracle.
        """
        b = float(b)
        rows = np.asarray(b_mat, dtype=float).tolist()
        if self.m == 1:
            det = rows[0][0]
        else:
            (p, q), (r, s) = rows
            det = _det2_rounded(p, q, r, s)
        if abs(b) < 1e-14:
            raise ValueError("B1 is singular")
        if abs(det) < 1e-14:
            raise ValueError("B2 is singular")
        bi = 1.0 / b
        inv = [[1.0 / det]] if self.m == 1 else [[s / det, -q / det], [-r / det, p / det]]
        pp, pm = self.l_pp.tolist(), self.l_pm.tolist()
        mp, mm = self.l_mp.tolist(), self.l_mm.tolist()
        cols, inv_cols = list(zip(*rows)), list(zip(*inv))
        r_first = max(_affine_maxabs(pp, cols, b, mm), _affine_maxabs(pm, inv_cols, -b, mp))
        r_second = max(_affine_maxabs(mp, cols, -bi, pm), _affine_maxabs(mm, inv_cols, bi, pp))
        kappa = 1.0
        for v in (abs(b), abs(bi), _row_norm(rows), _row_norm(inv)):
            kappa *= max(1.0, v)
        threshold = 1e-9
        if (r_first <= threshold) != (r_second <= threshold * kappa) and (
            r_second <= threshold
        ) != (r_first <= threshold * kappa):
            raise RuntimeError(
                f"antiholomorphy forms disagree: {r_first} vs {r_second} (kappa {kappa})"
            )
        if self.m == 1:
            return r_first, 0.0
        (d11, d12), (d21, d22) = self.D.tolist()
        bprime = d11 * q + d12 * s - d21 * p - d22 * r
        return r_first, abs(self.a_minus - self.a_plus * det + b * bprime)


# ---------------------------------------------------------------------------
# witnesses and descriptions


@dataclass(frozen=True)
class SolutionWitness:
    """A verified point of the solution family."""

    cs: CompatibleStructure
    residuals: tuple
    case_label: str

    def __post_init__(self):
        if max(self.residuals) > WITNESS_TOL:
            raise ValueError("witness residuals exceed the admissible bound")

    @property
    def b(self) -> float:
        return float(np.atleast_2d(self.cs.B1)[0, 0])

    @property
    def b_matrix(self) -> np.ndarray:
        return np.atleast_2d(np.array(self.cs.B2, dtype=float))

    def position(self) -> np.ndarray:
        return np.concatenate(([self.b], self.b_matrix.ravel()))

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "B": self.b_matrix.tolist(),
            "residuals": [float(r) for r in self.residuals],
            "case": self.case_label,
        }


def _make_witness(sys: ConstraintSystem, b, b_mat, label) -> SolutionWitness:
    res = sys.residual_pair(b, b_mat)
    return SolutionWitness(
        cs=CompatibleStructure(B1=[[float(b)]], B2=np.asarray(b_mat, dtype=float)),
        residuals=res,
        case_label=label,
    )


@dataclass(eq=False)
class SolutionSetDescription:
    """Shape of the solution family inside {b > 0, det B > 0}.

    dimension counts the B-slice at an admissible b; b_free records
    whether b ranges over an interval of positive length, so the total
    dimension of the family is dimension + (1 if b_free else 0).  For a
    one-dimensional base both coordinates live in the same plane and
    dimension is the total dimension directly.  A chart with a convex domain
    is kept as _chart = (point to (b, B), its inverse params at a solution).
    """

    case_label: str
    kind: str
    dimension: int
    b_free: bool
    constants: dict
    witnesses: tuple = ()
    notes: tuple = ()
    system: ConstraintSystem | None = field(default=None, repr=False)
    _draw: object = field(default=None, repr=False)
    _chart: tuple | None = field(default=None, repr=False)
    _mids: dict = field(default_factory=dict, repr=False)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, b, b_mat, tol=PATH_TOL) -> bool:
        if self.system is None:
            raise ValueError("description is not attached to a system")
        x = self.system.pack(b, b_mat)
        if not self.system.in_region(x):
            return False
        return max(self.system.residual_pair(b, np.atleast_2d(b_mat))) <= tol

    def draw(self, rng) -> tuple | None:
        """One raw sample (b, B) from the chart, or None when rejected."""
        if self._draw is None:
            return None
        return self._draw(rng)

    def to_dict(self) -> dict:
        safe = {}
        for key, val in self.constants.items():
            if isinstance(val, np.ndarray):
                safe[key] = val.tolist()
            elif isinstance(val, (np.floating, np.integer)):
                safe[key] = float(val)
            elif key == "nappe_vector":
                safe[key] = [str(x) for x in val]
            else:
                safe[key] = val
        return {
            "case": self.case_label,
            "kind": self.kind,
            "dimension": self.dimension,
            "b_free": self.b_free,
            "constants": safe,
            "notes": list(self.notes),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def _empty(sys, label, constants, notes=()) -> SolutionSetDescription:
    return SolutionSetDescription(
        case_label=label,
        kind="empty",
        dimension=0,
        b_free=False,
        constants=constants,
        witnesses=(),
        notes=tuple(notes),
        system=sys,
    )


def _draws(draw, seed, want, tries, keep) -> list:
    """Up to `want` kept values from at most `tries` seeded draws.

    draw(rng) gives a candidate or None; keep(candidate) gives the value to
    keep or None.  Every draw uses up one try, whether it is kept or not.
    """
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(tries):
        if len(found) >= want:
            break
        cand = draw(rng)
        if cand is not None and (kept := keep(cand)) is not None:
            found.append(kept)
    return found


def _draw_witnesses(sys, desc, seed, want, tries) -> list:
    """Up to `want` verified witnesses from at most `tries` seeded chart draws."""

    def verified(cand):
        if sys.in_region(sys.pack(*cand)):
            try:
                return _make_witness(sys, *cand, desc.case_label)
            except ValueError:
                log.debug("rejected witness draw at b=%s", cand[0])
        return None

    return _draws(desc.draw, seed, want, tries, verified)


def _nonempty(sys, label, kind, dim, b_free, constants, draw, notes=(), chart=None):
    """A nonempty description with three deterministic verified witnesses."""
    desc = SolutionSetDescription(
        case_label=label,
        kind=kind,
        dimension=dim,
        b_free=b_free,
        constants=constants,
        notes=tuple(notes),
        system=sys,
        _draw=draw,
        _chart=chart,
    )
    desc.witnesses = tuple(_draw_witnesses(sys, desc, 0, 3, 400))
    if not desc.witnesses:
        raise RuntimeError(f"case {label} ({kind}) produced no verifiable witness")
    return desc


# ---------------------------------------------------------------------------
# case classification (base dimension two)


@dataclass(frozen=True)
class CaseInfo:
    label: str
    constants: dict
    notes: tuple = ()


def _wlog_transform(row: np.ndarray) -> np.ndarray:
    """Unimodular change of the +1 base frame sending the row to (1, 0).

    Columns t1, t2 with row @ t1 = 1, row @ t2 = 0 and det = 1, so the
    determinant normalization and the antisymmetric scalars are untouched.
    """
    r1, r2 = float(row[0]), float(row[1])
    n2 = r1 * r1 + r2 * r2
    return np.array([[r1 / n2, -r2], [r2 / n2, r1]])


def _exact_rows(mat) -> list:
    """Rows of a float matrix as exact Fractions."""
    return [[Fraction(x) for x in row] for row in np.asarray(mat, dtype=float).tolist()]


def _restricted_signature(sys: ConstraintSystem):
    """Signature of det(B) restricted to the hyperplane {b'(B) = 0}, decided exactly.

    b'(B) = w . (b11, b12, b21, b22) with w = (-d21, d11, -d22, d12).  The
    hyperplane is the det-orthogonal complement of the dual vector of w, so
    the restriction has signature (1, 2) when q*(w) = w1 w4 - w2 w3 > 0,
    (2, 1) when q*(w) < 0, and is degenerate of signature (1, 1) when
    q*(w) = 0.
    """
    (d11, d12), (d21, d22) = _exact_rows(sys.D)
    dual = d11 * d22 - d12 * d21  # q*(w)
    return (1, 2) if dual > 0 else (2, 1) if dual < 0 else (1, 1)


def _nappe_vector(d_block: np.ndarray) -> tuple:
    """Rational v = (v11, v12, v21, v22) in ker b' with det v > 0.

    The kernel basis pivots on the first nonzero entry w_p of
    w = (-d21, d11, -d22, d12): one vector e_j - (w_j / w_p) e_p for each
    j != p.  v is the first combination with coefficients in {-1, 0, 1}
    that has det v > 0.  One always exists: with the coordinate that det
    pairs with p set to zero, det v is +-(product of the two remaining free
    coordinates).
    """
    (d11, d12), (d21, d22) = _exact_rows(d_block)
    w = (-d21, d11, -d22, d12)
    p = next(i for i, x in enumerate(w) if x)
    basis = [[Fraction(i == j) - (w[j] / w[p] if i == p else 0) for i in range(4)]
             for j in range(4) if j != p]
    combos = (
        tuple(sum(c * k[i] for c, k in zip(coeffs, basis)) for i in range(4))
        for coeffs in itertools.product((-1, 0, 1), repeat=3)
    )
    return next(v for v in combos if v[0] * v[3] - v[1] * v[2] > 0)


def _nappe_sign(v: tuple, b_mat: np.ndarray):
    """(sign, Q) of the polar form Q(v, B) = (v11 b22 + v22 b11 - v12 b21 - v21 b12) / 2.

    On a two-nappe stratum {b'(B) = 0, det B > 0} the sign is constant on
    each nappe and differs between them: det restricted to ker b' has one
    positive direction, so Q(v, B)^2 >= det v det B (reverse Cauchy-Schwarz,
    which also holds for the degenerate signature (1, 1)).  Q is
    evaluated exactly on the float entries of B, and the sign is 0 unless
    Q^2 >= det v det B / 2, the half absorbing the residual of a verified
    point that lies just off ker b'.
    """
    (b11, b12), (b21, b22) = _exact_rows(b_mat)
    v11, v12, v21, v22 = v
    q = (v11 * b22 + v22 * b11 - v12 * b21 - v21 * b12) / 2
    if q * q < (v11 * v22 - v12 * v21) * (b11 * b22 - b12 * b21) / 2:
        return 0, q
    return (q > 0) - (q < 0), q


def classify_case(sys: ConstraintSystem) -> CaseInfo:
    """Leaf of the case tree for a two-dimensional base, with constants."""
    if sys.m != 2:
        raise ValueError("case classification requires base eigenspace dimension 2")
    sc = sys.scale
    l_zero = all(
        _near_zero(v, sc) for row in (sys.l_pp, sys.l_pm, sys.l_mp, sys.l_mm) for v in row
    )
    d_zero = all(_near_zero(v, sc) for v in sys.D.ravel())
    consts: dict = {"a_plus": sys.a_plus, "a_minus": sys.a_minus}
    if l_zero:
        if d_zero:
            return CaseInfo("L0.D0", consts)
        pos, neg = _restricted_signature(sys)
        consts["restricted_signature"] = (pos, neg)
        consts["stratum_components"] = 1 if pos == 2 else 2
        return CaseInfo("L0.Dnz", consts)
    pp_zero = all(_near_zero(v, sc) for v in sys.l_pp)
    mp_zero = all(_near_zero(v, sc) for v in sys.l_mp)
    if pp_zero and mp_zero:
        return CaseInfo("L.rowszero", consts)
    if not pp_zero and not mp_zero:
        rows = np.vstack([sys.l_pp, sys.l_mp])
        det_rows = _det2(rows)
        if not _near_zero(det_rows, sc * sc):
            inv = _inv2(rows)
            m1 = inv @ np.vstack([-sys.l_mm, np.zeros(2)])
            m2 = inv @ np.vstack([np.zeros(2), sys.l_pm])
            alpha = -_det2(np.vstack([sys.l_mm, sys.l_pm])) / det_rows
            c1 = _bprime(sys.D, m1) - 0.0
            c0 = sys.a_minus - alpha * sys.a_plus + _bprime(sys.D, m2)
            consts.update(
                {"alpha": alpha, "M1": m1, "M2": m2, "c1": c1, "c": c0, "det_rows": det_rows}
            )
            return CaseInfo("L.indep", consts)
        # proportional rows: beta with l_pp = beta * l_mp
        i = int(np.argmax(np.abs(sys.l_mp)))
        beta = float(sys.l_pp[i] / sys.l_mp[i])
        consts["beta"] = beta
        return CaseInfo("L.prop", consts)
    if mp_zero:
        t = _wlog_transform(sys.l_pp)
        consts["transform"] = t
        lam = sys.l_mm.copy()
        dp = sys.D @ t
        l0, l2 = float(lam[1]), float(-lam[0])
        c1 = float(dp[1, 0] * lam[0] - dp[0, 0] * lam[1])
        c0, c2 = float(-dp[1, 1]), float(dp[0, 1])
        a0, a2 = c0 - sys.a_plus * l0, c2 - sys.a_plus * l2
        consts.update(
            {"lambda": lam, "l0": l0, "l2": l2, "c0": c0, "c1": c1, "c2": c2, "a0": a0, "a2": a2}
        )
        return CaseInfo("L.mpzero", consts)
    t = _wlog_transform(sys.l_mp)
    consts["transform"] = t
    dp = sys.D @ t
    l1, l2 = float(sys.l_pm[0]), float(sys.l_pm[1])
    k = float(sys.a_minus + dp[0, 0] * l2 - dp[1, 0] * l1)
    jac = float(dp[0, 1] * l2 - dp[1, 1] * l1)
    consts.update({"l1": l1, "l2": l2, "k": k, "jac": jac, "D_t": dp})
    if _near_zero(jac, sc * sc):
        if abs(l1) >= abs(l2) and not _near_zero(l1, sc):
            consts["c"] = float(dp[0, 1] / l1)
        elif not _near_zero(l2, sc):
            consts["c"] = float(dp[1, 1] / l2)
        else:
            consts["c"] = 0.0
    return CaseInfo("L.ppzero", consts)


# ---------------------------------------------------------------------------
# one-dimensional base


def solve_kodaira(sys: ConstraintSystem) -> SolutionSetDescription:
    """Describe the solution family {(b1, b2) > 0} for a 1-dim base.

    Kinds: quadrant (no constraints), hyperbola {b1 b2 = kappa}, ray
    {b1 = s b2}, point, empty.
    """
    if sys.m != 1:
        raise ValueError("this solver requires base eigenspace dimension 1")
    sc = sys.scale
    lpp, lpm = float(sys.l_pp[0]), float(sys.l_pm[0])
    lmp, lmm = float(sys.l_mp[0]), float(sys.l_mm[0])
    consts = {"l_pp": lpp, "l_pm": lpm, "l_mp": lmp, "l_mm": lmm}
    label = "kodaira"

    def desc(kind, dim, draw, extra=None, chart=None):
        return _nonempty(sys, label, kind, dim, False, {**consts, **(extra or {})}, draw, (), chart)

    if _near_zero(lmm, sc):
        if not _near_zero(lpp, sc):
            return _empty(sys, label, consts, ["first equation forces b2 = 0"])
        if _near_zero(lmp, sc):
            if _near_zero(lpm, sc):
                return desc(
                    "quadrant", 2, lambda rng: (rng.uniform(0.05, _BOX), [[rng.uniform(0.05, _BOX)]])
                )
            return _empty(sys, label, consts, ["second equation forces 1/b2 = 0"])
        kappa = lpm / lmp
        if kappa <= 0 or _near_zero(kappa, sc):
            return _empty(sys, label, consts, ["required product b1 b2 is not positive"])
        # b1 = kappa / b2 and b2 share the box only while kappa <= _BOX^2
        box = _BOX if kappa <= _BOX * _BOX else 2.0 * math.sqrt(kappa)

        def point(b2):
            return kappa / b2, [[b2]]

        return desc("hyperbola", 1, lambda rng: point(rng.uniform(max(0.05, kappa / box), box)),
                    {"kappa": kappa}, (point, lambda x: x[1]))
    if lpp * lmm >= 0 or _near_zero(lpp, sc):
        return _empty(sys, label, consts, ["no positive b1 satisfies the first equation"])
    slope = -lpp / lmm
    prod_p = lpp * lmp
    prod_q = lpm * lmm
    if _near_zero(prod_p, sc * sc) and _near_zero(prod_q, sc * sc):

        def draw_ray(rng):
            b2 = rng.uniform(0.05, _BOX)
            return slope * b2, [[b2]]

        return desc("ray", 1, draw_ray, {"slope": slope})
    if prod_p * prod_q < 0 and not _near_zero(prod_p, sc * sc) and not _near_zero(prod_q, sc * sc):
        b2 = math.sqrt(-prod_q / prod_p)
        return desc("point", 0, lambda rng: (slope * b2, [[b2]]), {"b2": b2, "slope": slope})
    return _empty(sys, label, consts, ["the eliminated equation has no positive root"])


# ---------------------------------------------------------------------------
# two-dimensional base


def _interval_of_sign(c, a, sign):
    """The set {b > 0 : sign(c b^2 - a) = sign} as (lo, hi), or None.

    hi = inf is encoded as math.inf; the interval is always open.
    """
    if sign > 0:
        if c > 0:
            if a <= 0:
                return (0.0, math.inf)
            return (math.sqrt(a / c), math.inf)
        if c == 0:
            return (0.0, math.inf) if a < 0 else None
        # c < 0: need b^2 < a/c with a/c > 0 -> a < 0
        if a < 0:
            return (0.0, math.sqrt(a / c))
        return None
    return _interval_of_sign(-c, -a, 1)


def _draw_from_interval(rng, lo, hi):
    if math.isinf(hi):
        return lo + rng.uniform(0.01, _BOX)
    return rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo))


def _complement_row(row: np.ndarray) -> np.ndarray:
    return np.array([-row[1], row[0]])


def _halfplane_draw(assemble, row, draw_b):
    """Chart draw of b = draw_b(rng) and s with row . s > 0, assembled to (b, B)."""

    def draw(rng):
        b = draw_b(rng)
        s = rng.uniform(-_BOX, _BOX, 2)
        if float(row @ s) <= REGION_TOL:
            return None
        return assemble(b, s[0], s[1])

    return draw


def _chart_row(t_inv, x) -> np.ndarray:
    """The free row w of B = T [r; w] at a packed position x, from T^-1."""
    return (t_inv @ np.reshape(x[1:], (2, 2)))[1]


def _band_chart(assemble, row, level, t_inv):
    """Chart (b, z) -> assemble(b, s) with s = level(b) row / |row|^2 + z row^perp.

    Returns (point, params); on the band row . s = level(b) is the forced
    positive quantity and z the free coordinate along the band.
    """
    zdir = _complement_row(row)

    def point(p):
        b, z = p
        s = level(b) * row / float(row @ row) + z * zdir
        return assemble(b, s[0], s[1])

    def params(x):
        return np.array([x[0], float(_chart_row(t_inv, x) @ zdir) / float(zdir @ zdir)])

    return point, params


def _interval_band_draw(chart, interval, level):
    """Draw of b in the open interval, rejected unless level(b) > 0, and z, mapped by the chart."""

    def draw(rng):
        b = _draw_from_interval(rng, *interval)
        if level(b) <= REGION_TOL:
            return None
        return chart[0]((b, rng.uniform(-_BOX, _BOX)))

    return draw


def solve_threefold(sys: ConstraintSystem) -> SolutionSetDescription:
    """Describe the solution family {(b, B)} for a 2-dim base, d = 1."""
    if sys.m != 2:
        raise ValueError("this solver requires base eigenspace dimension 2")
    info = classify_case(sys)
    label, c = info.label, dict(info.constants)
    a_p, a_m = sys.a_plus, sys.a_minus
    sc = sys.scale

    def desc(kind, dim, b_free, draw, notes=(), chart=None):
        return _nonempty(sys, label, kind, dim, b_free, c, draw, notes, chart)

    def draw_b(rng):
        return rng.uniform(0.05, _BOX)

    if label == "L0.D0":
        if a_p == 0:
            if a_m == 0:

                def draw_region(rng):
                    b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
                    if _det2(b_mat) <= REGION_TOL:
                        return None
                    return draw_b(rng), b_mat

                return desc("region", 4, True, draw_region)
            return _empty(sys, label, c, ["det-free equation a_minus = 0 fails"])
        a = a_m / a_p
        c["a"] = a
        if a <= 0 or _near_zero(a, sc):
            return _empty(sys, label, c, ["required determinant a_minus/a_plus is not positive"])

        def draw_quadric(rng):
            b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
            det = _det2(b_mat)
            if det <= 1e-6:
                return None
            return draw_b(rng), b_mat * math.sqrt(a / det)

        return desc("quadric", 3, True, draw_quadric)

    if label == "L0.Dnz":
        if a_p == 0 and a_m == 0:
            kern = _bprime_kernel(sys.D)

            def draw_stratum(rng):
                v = kern @ rng.uniform(-_BOX, _BOX, 3)
                b_mat = v.reshape(2, 2)
                if _det2(b_mat) <= REGION_TOL:
                    return None
                return draw_b(rng), b_mat

            notes = []
            if c["stratum_components"] == 2:
                c["nappe_vector"] = _nappe_vector(sys.D)
                notes.append(
                    "degenerate stratum family: expected two connected components"
                )
            return desc("stratum", 3, True, draw_stratum, notes)

        def draw_graph(rng):
            b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
            det = _det2(b_mat)
            bp = _bprime(sys.D, b_mat)
            if det <= REGION_TOL or abs(bp) < 1e-8:
                return None
            b = (a_p * det - a_m) / bp
            if b <= REGION_TOL:
                return None
            return b, b_mat

        return desc("hypersurface", 3, True, draw_graph)

    if label == "L.rowszero":
        return _empty(sys, label, c, ["both equations force the nonzero mixed rows to vanish"])

    if label == "L.indep":
        alpha, m1, m2, c1, c0 = c["alpha"], c["M1"], c["M2"], c["c1"], c["c"]
        if alpha <= 0 or _near_zero(alpha, sc):
            return _empty(sys, label, c, ["forced determinant alpha is not positive"])
        if _near_zero(c1, sc * sc):
            if _near_zero(c0, sc * sc):

                def point(b):
                    return b, m1 * b + m2 / b

                chart = (point, lambda x: x[0])
                return desc("curve", 0, True, lambda rng: point(draw_b(rng)), (), chart)
            return _empty(sys, label, c, ["constant equation c = 0 fails"])
        bsq = -c0 / c1
        if bsq <= 0:
            return _empty(sys, label, c, ["quadratic c1 b^2 + c = 0 has no positive root"])
        bhat = math.sqrt(bsq)
        c["bhat"] = bhat
        return desc("point", 0, False, lambda rng: (bhat, m1 * bhat + m2 / bhat))

    if label == "L.prop":
        beta = c["beta"]
        lmm_all = all(_near_zero(v, sc) for v in sys.l_mm)
        if lmm_all:
            return _empty(
                sys,
                label,
                c,
                ["proportional rows squeeze B to a singular matrix" if all(
                    _near_zero(v, sc) for v in sys.l_pm
                ) else "second equation is inconsistent"],
            )
        i = int(np.argmax(np.abs(sys.l_mm)))
        bsq = -beta * sys.l_pm[i] / sys.l_mm[i]
        if bsq <= 0 or np.abs(bsq * sys.l_mm + beta * sys.l_pm).max() > 1e-8 * sc:
            return _empty(sys, label, c, ["the two vector equations admit no common b"])
        bhat = math.sqrt(float(bsq))
        c["bhat"] = bhat
        # affine chart: rows of B with l_mp @ B = l_pm / bhat
        base_row = sys.l_mp / float(sys.l_mp @ sys.l_mp)
        b0 = np.outer(base_row, sys.l_pm) / bhat
        normal = _complement_row(sys.l_mp)
        # det(B0 + normal s^T) = det B0 + s . adj(B0) normal, linear in s
        adj = np.array([[b0[1, 1], -b0[0, 1]], [-b0[1, 0], b0[0, 0]]])
        det_lin = adj @ normal
        det_const = _det2(b0)
        dn = sys.D @ normal
        bp_lin = np.array([-dn[1], dn[0]])  # b'(B0 + n s^T) = bp_const + bp_lin . s
        bp_const = _bprime(sys.D, b0)
        eq_lin = -a_p * det_lin + bhat * bp_lin
        eq_const = a_m - a_p * det_const + bhat * bp_const
        c["eq_lin"] = eq_lin
        c["eq_const"] = eq_const
        if _near_zero(np.abs(eq_lin).max(), sc * sc):
            if not _near_zero(eq_const, sc * sc):
                return _empty(sys, label, c, ["determinant equation fails identically"])

            def draw_halfplane(rng):
                s = rng.uniform(-_BOX, _BOX, 2)
                if det_const + float(det_lin @ s) <= REGION_TOL:
                    return None
                return bhat, b0 + np.outer(normal, s)

            return desc("halfplane", 2, False, draw_halfplane)
        direction = _complement_row(eq_lin)
        s_part = -eq_const * eq_lin / float(eq_lin @ eq_lin)
        g0 = det_const + float(det_lin @ s_part)
        g1 = float(det_lin @ direction)
        if _near_zero(g1, sc * sc):
            if g0 <= REGION_TOL:
                return _empty(sys, label, c, ["solution line misses the positive-determinant side"])

            def draw_line(rng):
                s = s_part + rng.uniform(-_BOX, _BOX) * direction
                return bhat, b0 + np.outer(normal, s)

            return desc("half-line", 1, False, draw_line)

        def draw_halfline(rng):
            t0 = -g0 / g1
            t = t0 + (0.01 + rng.uniform(0.0, _BOX)) * (1.0 if g1 > 0 else -1.0)
            s = s_part + t * direction
            return bhat, b0 + np.outer(normal, s)

        return desc("half-line", 1, False, draw_halfline)

    if label == "L.mpzero":
        if not all(_near_zero(v, sc) for v in sys.l_pm):
            return _empty(sys, label, c, ["second equation forces the +- row to vanish"])
        if all(_near_zero(v, sc) for v in sys.l_mm):
            return _empty(sys, label, c, ["first equation squeezes B to a singular matrix"])
        t = c["transform"]
        l0, l2, c1 = c["l0"], c["l2"], c["c1"]
        a0, a2 = c["a0"], c["a2"]
        lam = c["lambda"]

        def assemble(b, b21, b22):
            bw = np.array([[-b * lam[0], -b * lam[1]], [b21, b22]])
            return b, t @ bw

        rho_row = np.array([l0, l2])
        tau_row = np.array([a0, a2])
        jac = _det2(np.vstack([tau_row, rho_row]))
        c["tau_rho_det"] = jac
        t_inv = _inv2(t)
        if not _near_zero(jac, sc * sc):
            # chart (b, rho) on the quadrant b, rho > 0, where det B = b rho
            def point(p):
                b, rho = p
                tau = -(a_m + b * b * c1) / b
                sol = np.linalg.solve(np.vstack([tau_row, rho_row]), np.array([tau, rho]))
                return assemble(b, sol[0], sol[1])

            def params(x):
                return np.array([x[0], rho_row @ _chart_row(t_inv, x)])

            def draw(rng):
                return point((draw_b(rng), rng.uniform(0.05, _BOX)))

            return desc("quadrant", 1, True, draw, (), (point, params))
        if _near_zero(np.abs(tau_row).max(), sc):
            if _near_zero(c1, sc * sc):
                if a_m == 0:
                    return desc("halfplane", 2, True, _halfplane_draw(assemble, rho_row, draw_b))
                return _empty(sys, label, c, ["constant equation a_minus = 0 fails"])
            bsq = -a_m / c1
            if bsq <= 0:
                return _empty(sys, label, c, ["quadratic a_minus + c1 b^2 = 0 has no positive root"])
            bhat = math.sqrt(bsq)
            c["bhat"] = bhat
            draw_plane = _halfplane_draw(assemble, rho_row, lambda rng: bhat)
            return desc("halfplane", 2, False, draw_plane)
        # tau = cf * rho with cf != 0
        i = int(np.argmax(np.abs(rho_row)))
        cf = float(tau_row[i] / rho_row[i])
        c["tau_over_rho"] = cf
        interval = _interval_of_sign(c1, -a_m, -1 if cf > 0 else 1)
        c["b_interval"] = interval
        if interval is None:
            return _empty(sys, label, c, ["no b > 0 gives the forced rho a positive sign"])

        def band_rho(b):
            return -(a_m + b * b * c1) / (b * cf)

        chart = _band_chart(assemble, rho_row, band_rho, t_inv)
        draw = _interval_band_draw(chart, interval, band_rho)
        return desc("interval-band", 1, True, draw, (), chart)

    # label == "L.ppzero"
    if not all(_near_zero(v, sc) for v in sys.l_mm):
        return _empty(sys, label, c, ["first equation forces the -- row to vanish"])
    if all(_near_zero(v, sc) for v in sys.l_pm):
        return _empty(sys, label, c, ["second equation squeezes B to a singular matrix"])
    t = c["transform"]
    t_inv = _inv2(t)
    l1, l2, k, jac = c["l1"], c["l2"], c["k"], c["jac"]
    dp = c["D_t"]

    def assemble_pp(b, b21, b22):
        bw = np.array([[l1 / b, l2 / b], [b21, b22]])
        return b, t @ bw

    x_row = np.array([-l2, l1])  # x = l1 b22 - l2 b21 as a row on (b21, b22), det B = x / b
    if not _near_zero(jac, sc * sc):
        # chart (b, x) on the quadrant b, x > 0
        def point(p):
            b, x = p
            y = -b * k
            y_row = np.array([-dp[1, 1] * b * b + a_p * l2, dp[0, 1] * b * b - a_p * l1])
            rows = np.vstack([x_row, y_row])
            if abs(_det2(rows)) <= ZERO_TOL * abs(jac):  # det = -b^2 jac: singular as b -> 0
                return None
            sol = np.linalg.solve(rows, np.array([x, y]))
            return assemble_pp(b, sol[0], sol[1])

        def params(x):
            return np.array([x[0], x_row @ _chart_row(t_inv, x)])

        def draw(rng):
            return point((draw_b(rng), rng.uniform(0.05, _BOX)))

        return desc("quadrant", 1, True, draw, (), (point, params))
    cf = c["c"]
    if _near_zero(k, sc):
        # chart (b, s) on {b > 0, x > 0}, or on its slice b = bhat
        plane = (lambda p: assemble_pp(p[0], p[1], p[2]),
                 lambda x: np.concatenate(([x[0]], _chart_row(t_inv, x))))
        if _near_zero(cf, sc):
            if a_p == 0:
                draw_plane = _halfplane_draw(assemble_pp, x_row, draw_b)
                return desc("halfplane", 2, True, draw_plane, (), plane)
            return _empty(sys, label, c, ["equation c b^2 = a_plus has no root with c = 0"])
        bsq = a_p / cf
        if bsq <= 0:
            return _empty(sys, label, c, ["equation c b^2 = a_plus has no positive root"])
        bhat = math.sqrt(bsq)
        c["bhat"] = bhat
        draw_plane = _halfplane_draw(assemble_pp, x_row, lambda rng: bhat)
        return desc("halfplane", 2, False, draw_plane, (), plane)
    if _near_zero(cf, sc):
        if a_p == 0 or k / a_p <= 0:
            return _empty(sys, label, c, ["forced x = b k / a_plus is not positive"])
        chart = _band_chart(assemble_pp, x_row, lambda b: b * k / a_p, t_inv)
        return desc("band", 1, True, lambda rng: chart[0]((draw_b(rng), rng.uniform(-_BOX, _BOX))),
                    (), chart)
    interval = _interval_of_sign(cf, a_p, -1 if k > 0 else 1)
    c["b_interval"] = interval
    if interval is None:
        return _empty(sys, label, c, ["no b > 0 makes the forced x positive"])

    def band_x(b):
        return -b * k / (cf * b * b - a_p)

    chart = _band_chart(assemble_pp, x_row, band_x, t_inv)
    return desc("interval-band", 1, True, _interval_band_draw(chart, interval, band_x), (), chart)


def solve(sys: ConstraintSystem) -> SolutionSetDescription:
    """Dispatch on the base eigenspace dimension, once per system."""
    if sys._description is None:
        sys._description = solve_kodaira(sys) if sys.m == 1 else solve_threefold(sys)
    return sys._description


# ---------------------------------------------------------------------------
# sampling


def sample_solutions(sys: ConstraintSystem, count: int, seed: int = 0) -> list:
    """Deterministic verified samples from the solution family.

    At most max(50, 60 count) chart draws from a generator seeded with the
    non-negative seed, a rejected draw using up one, so the returned list
    may be shorter than requested (rejected witnesses are logged at DEBUG
    level).  Raises ValueError when the family is empty.
    """
    desc = solve(sys)
    if desc.is_empty:
        raise ValueError("cannot sample from an empty solution family")
    return _draw_witnesses(sys, desc, seed, count, max(50, 60 * count))


# ---------------------------------------------------------------------------
# continuation


@dataclass(frozen=True)
class ConnectPath:
    """Polyline inside the solution family, or a failure report."""

    success: bool
    points: tuple
    message: str = ""
    last_point: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "points": [list(p) for p in self.points],
            "message": self.message,
            "last_point": list(self.last_point) if self.last_point is not None else None,
        }


def _vertex_failure(sys: ConstraintSystem, x: np.ndarray) -> str | None:
    """None when x is a verified path vertex, else the failed check with its values.

    The antiholomorphy residual is held to PATH_TOL, the block quadric one
    to PATH_TOL times max(1, |a_plus det B|, |b b'(B)|), the size of its
    terms: on {det B = 1e10} rounding alone leaves about 1e-6.
    """
    b, b_mat = sys.unpack(x)
    det = _det2(b_mat)
    if not (b > REGION_TOL and det > REGION_TOL):
        return f"b = {b:.6g} and det B = {det:.6g} leave the region"
    anti, quad = sys.residual_pair(b, b_mat)
    if not anti <= PATH_TOL:
        return f"antiholomorphy residual {anti:.6g} exceeds {PATH_TOL:g}"
    size = 1.0 if sys.m == 1 else max(1.0, abs(sys.a_plus * det), abs(b * _bprime(sys.D, b_mat)))
    if not quad <= PATH_TOL * size:
        return f"block quadric residual {quad:.6g} exceeds {PATH_TOL:g} x {size:.6g}"
    return None


def _as_position(sys: ConstraintSystem, point) -> np.ndarray:
    if isinstance(point, SolutionWitness):
        return point.position()
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 1 and arr.size == 1 + sys.m * sys.m:
        return arr
    raise ValueError("a path endpoint must be a witness or a packed position")


def _chord_det_min(sys: ConstraintSystem, x0: np.ndarray, x1: np.ndarray) -> float:
    """Closed-form minimum of det B, a quadratic, along the chord from x0 to x1.

    b is linear, so it stays positive between positive ends; for m = 1 the
    region is a convex quadrant and the minimum is returned as inf.
    """
    if sys.m == 1:
        return math.inf
    _, b0 = sys.unpack(x0)
    _, b1 = sys.unpack(x1)
    return _quad_min01(*_det_along_line(b0, b1))


class _LinearCurve:
    """Straight leg (1 - t) x0 + t x1, which keeps its endpoints."""

    __slots__ = ("x0", "x1")

    def __init__(self, x0: np.ndarray, x1: np.ndarray):
        self.x0, self.x1 = x0, x1

    def __call__(self, t):
        return (1.0 - t) * self.x0 + t * self.x1

    def reversed(self):
        return _LinearCurve(self.x1, self.x0)


class _ChartLeg:
    """Leg t -> point((1 - t) p0 + t p1), the image of a chart segment.

    point gives (b, B), or None where the chart is singular.  The ends are
    x0 and x1 themselves, so the legs of a route meet exactly.
    """

    __slots__ = ("x0", "x1", "point", "p0", "p1")

    def __init__(self, x0: np.ndarray, x1: np.ndarray, point, p0, p1):
        self.x0, self.x1, self.point, self.p0, self.p1 = x0, x1, point, p0, p1

    def __call__(self, t):
        if t in (0.0, 1.0):
            return self.x1 if t else self.x0
        got = self.point((1.0 - t) * self.p0 + t * self.p1)
        return None if got is None else np.concatenate(([got[0]], np.ravel(got[1])))

    def reversed(self):
        return _ChartLeg(self.x1, self.x0, self.point, self.p1, self.p0)


_GRID = tuple(k / 8.0 for k in range(9))  # the fixed t-grid of a chart leg


def _walk_curve(sys: ConstraintSystem, leg):
    """Verified vertices of one leg, or the first check that fails; nothing is corrected.

    A chord (_LinearCurve) is walked as x0, its midpoint and x1: the cleared
    equations (equality_stack) have degree at most 2 along a line, so they
    vanish on the chord when they vanish at these three points.  A chart
    leg lies on the family by construction and is sampled on the fixed grid
    _GRID.  Every vertex must pass _vertex_failure and every chord between
    vertices keep det B > 0.  Returns (vertices, None), or (None, (t,
    vertices so far, reason)).
    """
    points = []
    for t in (0.0, 0.5, 1.0) if isinstance(leg, _LinearCurve) else _GRID:
        x = leg(t)
        why = "the chart is singular" if x is None else _vertex_failure(sys, x)
        if why is None and points and not (low := _chord_det_min(sys, points[-1], x)) > 0.0:
            why = f"the chord from the vertex before reaches det B = {low:.6g}"
        if why is not None:
            return None, (t, points, why)
        points.append(x)
    return points, None


def _det_along_line(bp_mat: np.ndarray, bq_mat: np.ndarray):
    """Coefficients of det((1-t) P + t Q) as c0 + c1 t + c2 t^2."""
    p00, p01, p10, p11 = np.ravel(bp_mat).tolist()
    q00, q01, q10, q11 = np.ravel(bq_mat).tolist()
    d00, d01, d10, d11 = q00 - p00, q01 - p01, q10 - p10, q11 - p11
    c0 = p00 * p11 - p01 * p10
    c1 = p11 * d00 - p01 * d10 - p10 * d01 + p00 * d11
    c2 = d00 * d11 - d01 * d10
    return c0, c1, c2


def _quad_min01(c0, c1, c2) -> float:
    vals = [c0, c0 + c1 + c2]
    if abs(c2) > 0:
        t_star = -c1 / (2.0 * c2)
        if 0.0 < t_star < 1.0:
            vals.append(c0 + c1 * t_star + c2 * t_star * t_star)
    return min(vals)


_SAFE = 1e-6


def _graph_leg(sys: ConstraintSystem, x0, x1) -> _ChartLeg:
    """Chart leg of the graph family: B on the chord, b from the equation.

    b = (a_plus det B - a_minus) / b'(B); where the linear form b' vanishes
    (only at an end of the chord, by linearity) the leg's end is used.
    """
    row = _bprime_row(sys.D)

    def point(m):
        bp_val = float(row @ m)
        if abs(bp_val) < 1e-9:
            return None
        b_mat = m.reshape(2, 2)
        return (sys.a_plus * _det2(b_mat) - sys.a_minus) / bp_val, b_mat

    return _ChartLeg(x0, x1, point, x0[1:], x1[1:])


def _graph_leg_ok(sys: ConstraintSystem, curve) -> bool:
    """Whether b and det B stay above _SAFE along a leg of a two-dim base.

    A straight leg is decided exactly: b is linear in t and det B is the
    quadratic _det_along_line, so both minima over [0, 1] are closed-form.
    The rule is stricter than sampling, which can miss a dip between
    samples.  Other legs are checked at 33 points.
    """
    if isinstance(curve, _LinearCurve):
        b0, m0 = sys.unpack(curve.x0)
        b1, m1 = sys.unpack(curve.x1)
        # c0 is det(m0) as the sampler computes it; c0 + c1 + c2 rounds apart from det(m1)
        det_min = min(_quad_min01(*_det_along_line(m0, m1)), _det2(m1))
        return min(b0, b1) > _SAFE and det_min > _SAFE
    return all(x is not None and x[0] > _SAFE and _det2(x[1:]) > _SAFE
               for x in map(curve, np.linspace(0.0, 1.0, 33)))


def _checked_leg(sys: ConstraintSystem, verdicts: dict, make_leg, x0, x1):
    """make_leg(x0, x1) if _graph_leg_ok accepts it, else None.

    verdicts is the caller's table from (start, end) coordinates to the
    outcome, so each leg is built and checked at most once per table.
    """
    key = (x0.tobytes(), x1.tobytes())
    if key not in verdicts:
        leg = make_leg(x0, x1)
        verdicts[key] = leg if _graph_leg_ok(sys, leg) else None
    return verdicts[key]


def _onto_stratum(sys: ConstraintSystem, b_mat: np.ndarray):
    """B scaled onto {a_plus det B = a_minus}, or None; B must lie in ker b'."""
    det = _det2(b_mat)
    if det <= 1e-9 or (sys.a_plus == 0) != (sys.a_minus == 0):
        return None
    if sys.a_plus == 0:
        return b_mat
    target = sys.a_minus / sys.a_plus
    return b_mat * math.sqrt(target / det) if target > 0 else None


def _stratum_candidates(sys: ConstraintSystem, count=12):
    """Points of {b' = 0, a_plus det B = a_minus, det B > 0} (B parts)."""
    if np.abs(_bprime_row(sys.D)).max() == 0 or _onto_stratum(sys, np.eye(2)) is None:
        return []  # no b', or no positive det B solves the equation
    kern = _bprime_kernel(sys.D)
    return _draws(
        lambda rng: (kern @ rng.uniform(-1.0, 1.0, 3)).reshape(2, 2), 7, count, 300,
        lambda b_mat: _onto_stratum(sys, b_mat),
    )


def _landing_b(sys: ConstraintSystem, b_from: np.ndarray, b_star: np.ndarray):
    """Limit of (a_plus det - a_minus)/b' along the line into the stratum."""
    row = _bprime_row(sys.D)
    c0, c1, c2 = _det_along_line(b_from, b_star)
    bp_start = float(row @ b_from.ravel())
    # numerator n(t) = a_plus det(t) - a_minus vanishes at t = 1; the ratio
    # against b'(t) = (1 - t) bp_start tends to -n'(1)/bp_start
    n_prime = sys.a_plus * (c1 + 2.0 * c2)
    if abs(bp_start) < 1e-14:
        return None
    return -n_prime / bp_start


def _family_mids(sys: ConstraintSystem, desc, sign=0.0, count=16):
    """Deterministic well-placed family samples for one-bend routing."""
    key = 0 if not sign else (1 if sign > 0 else -1)
    if key in desc._mids:
        return desc._mids[key]
    row = _bprime_row(sys.D) if sys.m == 2 else None

    def well_placed(cand):
        b, b_mat = cand
        b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
        if b <= 0.1 or _det2(b_mat) <= 0.1:
            return None
        if sign and float(row @ b_mat.ravel()) * sign <= 0:
            return None
        return sys.pack(b, b_mat)

    desc._mids[key] = _draws(desc.draw, 13, count, 400, well_placed)
    return desc._mids[key]


def _bend_route(leg_for, xp, xq, mids):
    """Direct checked leg, or one bend through a family sample."""
    leg = leg_for(xp, xq)
    if leg is not None:
        return [leg]
    for x_mid in mids:
        leg1 = leg_for(xp, x_mid)
        leg2 = leg_for(x_mid, xq) if leg1 is not None else None
        if leg2 is not None:
            return [leg1, leg2]
    return None


def _stratum_approach(sys: ConstraintSystem, leg_for, x, b_star, mids):
    """Legs from a graph-family point into the stratum point B*, or None."""
    for stops in ([x], *([x, x_mid] for x_mid in mids)):  # direct, then one bend
        land = _landing_b(sys, sys.unpack(stops[-1])[1], b_star)
        if land is None or land <= _SAFE:
            continue
        x_land = sys.pack(land, b_star)
        legs = []
        for x0, x1 in zip(stops, stops[1:] + [x_land]):
            if (leg := leg_for(x0, x1)) is None:
                break
            legs.append(leg)
        else:
            return legs, x_land
    return None


def _route(sys: ConstraintSystem, desc: SolutionSetDescription, xp, xq, verdicts: dict):
    """Case-aware list of legs from xp to xq, or None.

    One chart leg when the chart domain is convex (desc._chart).  Chords on
    the region and the stratum, the radial image of a chord on the quadric,
    each bent once through a family sample if needed; graph legs on the
    hypersurface, through the stratum when b' changes sign; otherwise the
    family is affine and the leg is the chord.  Legs that need a region
    check are decided through the verdicts table (see _checked_leg).
    """
    kind = desc.kind
    if kind == "empty":
        return None
    if desc._chart is not None:
        point, params = desc._chart
        return [_ChartLeg(xp, xq, point, params(xp), params(xq))]

    def checker(make_leg):
        return lambda x0, x1: _checked_leg(sys, verdicts, make_leg, x0, x1)

    if kind in ("region", "stratum"):
        return _bend_route(checker(_LinearCurve), xp, xq, _family_mids(sys, desc))
    if kind == "quadric":
        a = desc.constants["a"]

        def radial(x):
            b_mat = x[1:].reshape(2, 2)
            det = _det2(b_mat)
            return None if det <= 1e-12 else (x[0], b_mat * math.sqrt(a / det))

        quad_leg = checker(lambda x0, x1: _ChartLeg(x0, x1, radial, x0, x1))
        return _bend_route(quad_leg, xp, xq, _family_mids(sys, desc))
    if kind == "hypersurface":
        row = _bprime_row(sys.D)
        sp = float(row @ sys.unpack(xp)[1].ravel())
        sq = float(row @ sys.unpack(xq)[1].ravel())
        tol = 1e-9 * sys.scale
        graph_leg = checker(lambda x0, x1: _graph_leg(sys, x0, x1))
        if abs(sp) <= tol or abs(sq) <= tol or sp * sq > 0:
            side = sp if abs(sp) > tol else sq
            return _bend_route(graph_leg, xp, xq, _family_mids(sys, desc, sign=side))
        # opposite signs of b': route through a stratum point where the
        # graph value of b extends continuously to a positive limit
        mids_p = _family_mids(sys, desc, sign=sp)
        mids_q = _family_mids(sys, desc, sign=sq)
        # the stratum points depend only on the system: drawn once, kept
        # with the description's mids
        if "stratum" not in desc._mids:
            desc._mids["stratum"] = _stratum_candidates(sys)
        nearest = []  # the endpoints' own B, projected along b' onto the stratum
        for x in (xp, xq):
            m = x[1:] - float(row @ x[1:]) / float(row @ row) * row
            if (b_star := _onto_stratum(sys, m.reshape(2, 2))) is not None:
                nearest.append(b_star)
        for b_star in nearest + desc._mids["stratum"]:
            got_in = _stratum_approach(sys, graph_leg, xp, b_star, mids_p)
            if got_in is None:
                continue
            got_out = _stratum_approach(sys, graph_leg, xq, b_star, mids_q)
            if got_out is None:
                continue
            legs_in, x_in = got_in
            legs_out, x_out = got_out
            slide = [] if np.linalg.norm(x_in - x_out) <= 1e-12 else [_LinearCurve(x_in, x_out)]
            return legs_in + slide + [leg.reversed() for leg in reversed(legs_out)]
        return None
    return [_LinearCurve(xp, xq)]


def _walk_route(sys: ConstraintSystem, legs):
    """(vertices, None) of a route's legs joined end to end, or (None, (last, why)):
    the last verified vertex (None before the first), and the failed leg, t and check."""
    path = []
    for i, leg in enumerate(legs):
        seg, failed = _walk_curve(sys, leg)
        if seg is None:
            t, done, why = failed
            last = done[-1] if done else (path[-1] if path else None)
            return None, (last, f"leg {i} fails at t = {t:g}: {why}")
        path.extend(seg if not path else seg[1:])
    return path, None


def _roadmap_path(n, linked):
    """Hops (u, v) of the breadth-first path from node 0 to node 1, or None.

    Neighbours are scanned in index order, so a live edge (0, 1) is the
    first path; linked(u, v) is asked only of nodes not yet reached.
    """
    prev = {0: None}
    queue = [0]
    for u in queue:  # the queue grows while it is scanned
        for v in range(n):
            if v not in prev and linked(u, v):
                prev[v] = u
                if v == 1:
                    hops = []
                    while v:
                        hops.insert(0, (prev[v], v))
                        v = prev[v]
                    return hops
                queue.append(v)
    return None


def connect(p, q, sys: ConstraintSystem) -> ConnectPath:
    """Join two solutions by a verified polyline inside the family.

    On a two-component stratum the endpoints are first told apart by the
    exact sign of the nappe invariant Q(v, B) (see _nappe_sign): when both
    signs are nonzero and differ, no path exists and the join fails at once,
    naming both Q values.  Otherwise it searches a lazy roadmap (Bohlin &
    Kavraki, ICRA 2000) of the endpoints, nodes 0 and 1, with _route results
    as edges built on first use.  The first path is the direct case route;
    only when it fails are 20 family samples added as nodes, and each round
    walks a breadth-first path and drops the hop that fails, at most 6 in all.
    The straight chord comes last unless the direct route was that chord.
    Every leg's region check runs at most once a call.

    Every leg lies on the family by construction, a chart leg on a fixed
    t-grid or a chord of an affine family at its ends and midpoint, and no
    vertex is corrected (see _walk_curve).  A failed join names the last
    route walked: its failed leg, the grid t and the check, with the
    residual or the b and det B values.
    """
    xp = _as_position(sys, p)
    xq = _as_position(sys, q)
    for name, x in (("start", xp), ("end", xq)):
        if (why := _vertex_failure(sys, x)) is not None:
            return ConnectPath(
                success=False,
                points=(),
                message=f"{name} point is not a verified solution: {why}",
                last_point=tuple(x),
            )
    if np.linalg.norm(xp - xq) <= 1e-12:
        return ConnectPath(success=True, points=(tuple(xp),))
    desc = solve(sys)
    nappe = desc.constants.get("nappe_vector")
    if nappe is not None:
        (sp, qp), (sq, qq) = (_nappe_sign(nappe, sys.unpack(x)[1]) for x in (xp, xq))
        if sp * sq < 0:
            return ConnectPath(
                success=False,
                points=(),
                message=(
                    "endpoints lie on opposite nappes of the stratum: "
                    f"Q(v, B) = {float(qp):.6g} at the start and {float(qq):.6g} at the end"
                ),
                last_point=tuple(xp),
            )

    verdicts = {}
    last, why = tuple(xp), None

    def walked(legs):
        """The route's vertices, or None once its failure is recorded."""
        nonlocal last, why
        path, failed = _walk_route(sys, legs)
        if path is None:
            at, why = failed
            last = last if at is None else tuple(at)
        return path

    direct = _route(sys, desc, xp, xq, verdicts)
    path = walked(direct) if direct is not None else None
    if path is not None:
        return ConnectPath(success=True, points=tuple(tuple(v) for v in path))

    def verified(cand):
        x = sys.pack(*cand)
        return x if _vertex_failure(sys, x) is None else None

    nodes = [xp, xq] + _draws(desc.draw, 11, 20, 120, verified)
    routes = {(0, 1): None, (1, 0): None}  # legs from u to v; None when missing or dead

    def route(u, v):
        if (u, v) not in routes:
            i, j = min(u, v), max(u, v)
            legs = routes[i, j] = _route(sys, desc, nodes[i], nodes[j], verdicts)
            routes[j, i] = None if legs is None else [g.reversed() for g in reversed(legs)]
        return routes[u, v]

    for _ in range(5 if direct is not None else 6):  # the direct route was the first path
        hops = _roadmap_path(len(nodes), lambda u, v: route(u, v) is not None)
        if hops is None:
            break
        full = []
        for u, v in hops:
            path = walked(route(u, v))
            if path is None:
                routes[u, v] = routes[v, u] = None
                break
            full.extend(path if not full else path[1:])
        else:
            return ConnectPath(success=True, points=tuple(tuple(v) for v in full))
    if not (direct and len(direct) == 1 and isinstance(direct[0], _LinearCurve)):
        path = walked([_LinearCurve(xp, xq)])
        if path is not None:
            return ConnectPath(success=True, points=tuple(tuple(v) for v in path))
    return ConnectPath(
        success=False,
        points=(),
        message=f"no verified path joins the endpoints; the last route walked: {why}",
        last_point=last,
    )


# ---------------------------------------------------------------------------
# connectivity certificates


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Union-find summary of pairwise continuation between witnesses."""

    case_label: str
    component_count: int
    components_proven: int
    witnesses: tuple
    paths: tuple
    failures: tuple
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "case": self.case_label,
            "component_count": self.component_count,
            "components_proven": self.components_proven,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "paths": [p.to_dict() for p in self.paths],
            "failures": [f.to_dict() for f in self.failures],
            "samples": self.samples,
            "seed": self.seed,
        }


def connectivity_certificate(
    sys: ConstraintSystem, samples: int = 20, seed: int = 0
) -> ConnectivityCertificate:
    """Sample the family and join the samples by continuation paths.

    component_count is the number of classes the successful paths leave
    behind; an empty family certifies zero components.  components_proven
    is the number of components the witnesses provably meet: on a
    two-component stratum the number of distinct nonzero nappe signs among
    them, 1 for every other nonempty family.
    """
    desc = solve(sys)
    if desc.is_empty:
        return ConnectivityCertificate(
            case_label=desc.case_label,
            component_count=0,
            components_proven=0,
            witnesses=(),
            paths=(),
            failures=(),
            samples=samples,
            seed=seed,
        )
    witnesses = sample_solutions(sys, samples, seed)
    n = len(witnesses)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pairs = sorted(
        itertools.combinations(range(n), 2),
        key=lambda ij: np.linalg.norm(witnesses[ij[0]].position() - witnesses[ij[1]].position()),
    )
    paths = []
    failures = []
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        result = connect(witnesses[i], witnesses[j], sys)
        if result.success:
            parent[ri] = rj
            paths.append(result)
        else:
            failures.append(result)
    count = len({find(i) for i in range(n)})
    nappe = desc.constants.get("nappe_vector")
    proven = 1
    if nappe is not None:
        proven = len({_nappe_sign(nappe, w.b_matrix)[0] for w in witnesses} - {0})
    return ConnectivityCertificate(
        case_label=desc.case_label,
        component_count=count,
        components_proven=proven,
        witnesses=tuple(witnesses),
        paths=tuple(paths),
        failures=tuple(failures),
        samples=samples,
        seed=seed,
    )
