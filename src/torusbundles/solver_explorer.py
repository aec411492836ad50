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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rational as ratl
from .real_structures import CompatibleStructure, EigenSplit

log = logging.getLogger(__name__)

ZERO_TOL = 1e-10
WITNESS_TOL = 1e-9
PATH_TOL = 1e-7
REGION_TOL = 1e-9

_BOX = 10.0  # half-width of the sampling box in chart coordinates


def _det2(mat) -> float:
    """Closed-form determinant of a 1x1 or 2x2 matrix."""
    v = np.ravel(mat).tolist()
    return v[0] if len(v) == 1 else v[0] * v[3] - v[1] * v[2]


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


def _fracs(block) -> tuple:
    """A row, or a matrix as its rows, of Fractions as tuples."""
    return tuple(map(_fracs, block)) if block.ndim == 2 else tuple(map(ratl.frac, block.tolist()))


def _bprime(d_rows, b_rows):
    """b'(B) = (DB)_{12} - (DB)_{21} on rows of numbers: exact on Fractions.

    On floats it is d11 b12 + d12 b22 - d21 b11 - d22 b21, one operation
    at a time from the left, so no fused multiply-add enters the value.
    """
    (d11, d12), (d21, d22) = d_rows
    (b11, b12), (b21, b22) = b_rows
    return d11 * b12 + d12 * b22 - d21 * b11 - d22 * b21


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
    part.  The open region is {b > 0, det B > 0}.  exact holds the blocks as
    rationals (a_plus, a_minus, D rows, l_pp, l_pm, l_mp, l_mm), whose floats
    are the float blocks; the case tree decides every branch on them.  The
    system keeps the description `solve` computes, so treat it as read-only.
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
    exact: tuple | None = None
    _description: SolutionSetDescription | None = field(default=None, init=False, repr=False)
    _rows: tuple = field(default=(), init=False, repr=False)  # l_pp, l_pm, l_mp, l_mm, D as lists

    def __post_init__(self):
        if self.exact is None:  # built from floats: read them by the package's one rule
            blocks = (self.D, self.l_pp, self.l_pm, self.l_mp, self.l_mm)
            self.exact = (ratl.frac(self.a_plus), ratl.frac(self.a_minus),
                          *(_fracs(np.asarray(x, dtype=object)) for x in blocks))
        self._rows = tuple(np.asarray(x, dtype=float).tolist()
                           for x in (self.l_pp, self.l_pm, self.l_mp, self.l_mm, self.D))

    @classmethod
    def from_split(cls, split: EigenSplit) -> "ConstraintSystem":
        if split.dim_U_plus != 1 or split.dim_U_minus != 1:
            raise ValueError("constraint system requires one-dimensional fiber eigenspaces")
        m = split.dim_V_plus
        if split.dim_V_minus != m:
            raise ValueError("base eigenspaces have different dimensions")
        if m not in (1, 2):
            raise ValueError("only base eigenspace dimension 1 or 2 is supported")
        # the antisymmetric scalars sit at (0, 1); a 1x1 block is zero at (0, 0)
        ex = split.exact
        return cls(
            m=m,
            split=split,
            a_plus=float(split.A_plus[0][0, -1]),
            a_minus=float(split.A_minus[0][0, -1]),
            D=np.array(split.D[0], dtype=float),
            l_pp=np.array(split.L_pp[0], dtype=float),
            l_pm=np.array(split.L_pm[0], dtype=float),
            l_mp=np.array(split.L_mp[0], dtype=float),
            l_mm=np.array(split.L_mm[0], dtype=float),
            exact=None if ex is None else (
                ex["A_plus"][0][0, -1], ex["A_minus"][0][0, -1],
                *(_fracs(ex[k][0]) for k in ("D", "L_pp", "L_pm", "L_mp", "L_mm")),
            ),
        )

    @classmethod
    def from_blocks(cls, m, a_plus, a_minus, D, l_pp, l_pm, l_mp, l_mm) -> "ConstraintSystem":
        """Build a synthetic system (and backing split) from raw scalars,
        each read with _rational.frac: an int, a Fraction, a 'p/q' string,
        or a float as the nearest rational of denominator at most 10**12."""
        if m not in (1, 2):
            raise ValueError("only base eigenspace dimension 1 or 2 is supported")
        d_block = np.atleast_2d(np.asarray(D, dtype=object))
        if d_block.shape != (m, m):
            raise ValueError(f"D must be {m}x{m}")
        rows = []
        for name, row in (("l_pp", l_pp), ("l_pm", l_pm), ("l_mp", l_mp), ("l_mm", l_mm)):
            arr = np.atleast_1d(np.asarray(row, dtype=object))
            if arr.shape != (m,):
                raise ValueError(f"{name} must have length {m}")
            rows.append(arr)
        ap, am = ratl.frac(a_plus), ratl.frac(a_minus)
        if m == 1 and (ap or am):
            raise ValueError("antisymmetric 1x1 blocks must vanish")
        exact = (ap, am, _fracs(d_block), *map(_fracs, rows))
        d_block, *rows = (np.array(x, dtype=float) for x in exact[2:])
        skew = np.array([[[0.0, 1.0], [-1.0, 0.0]]]) if m == 2 else np.zeros((1, 1, 1))
        eye = np.eye(2 * m, dtype=int)
        split = EigenSplit(
            basis_V_plus=eye[:, :m].copy(),
            basis_V_minus=eye[:, m:].copy(),
            basis_U_plus=np.array([[1], [0]]),
            basis_U_minus=np.array([[0], [1]]),
            A_plus=float(ap) * skew,
            A_minus=float(am) * skew,
            D=d_block[None, :, :],
            L_pp=rows[0][None, :],
            L_pm=rows[1][None, :],
            L_mp=rows[2][None, :],
            L_mm=rows[3][None, :],
        )
        return cls(m, split, float(ap), float(am), d_block, *rows, exact=exact)

    # -- positions -----------------------------------------------------

    def pack(self, b: float, b_mat: np.ndarray) -> np.ndarray:
        return np.concatenate(([float(b)], np.asarray(b_mat, dtype=float).ravel()))

    def unpack(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return float(x[0]), x[1:].reshape(self.m, self.m)

    def equality_stack(self, x: np.ndarray) -> np.ndarray:
        """Cleared polynomial form of the equations, smooth on the region."""
        b, b_mat = self.unpack(x)
        eq1 = self.l_pp @ b_mat + b * self.l_mm
        eq2 = b * (self.l_mp @ b_mat) - self.l_pm
        parts = [eq1, eq2]
        if self.m == 2:
            bprime = _bprime(self._rows[4], b_mat.tolist())
            q = self.a_minus - self.a_plus * _det2(b_mat) + b * bprime
            parts.append(np.array([q]))
        return np.concatenate(parts)

    def residual_pair(self, b: float, b_mat):
        """(antiholomorphy, block quadric) residuals at B1 = b, B2 = B.

        Closed form on the scalar blocks, with B^{-1} by the adjugate over a
        once-rounded det B.  The antiholomorphy residual is

            max |l_pp B + b l_mm|, |l_pm B^{-1} - b l_mp|,

        and the quadric residual |a_minus - a_plus det B + b b'(B)|,
        identically 0 when m = 1.  A singular b or B (|det| < 1e-14) raises
        ValueError.  The values are those of
        real_structures.antiholomorphy_residual and rbr2_residual up to
        rounding, which the tests use as the oracle.  B is an array or its
        rows as lists; the arithmetic runs on Python floats, unrolled for each m.
        """
        b = float(b)
        rows = b_mat if isinstance(b_mat, list) else np.asarray(b_mat, dtype=float).tolist()
        if self.m == 1:
            det = rows[0][0]
        else:
            (p, q), (r, s) = rows
            det = _det2_rounded(p, q, r, s)
        if abs(b) < 1e-14:
            raise ValueError("B1 is singular")
        if abs(det) < 1e-14:
            raise ValueError("B2 is singular")
        if self.m == 1:
            (pp,), (pm,), (mp,), (mm,), _ = self._rows
            return max(abs(pp * det + b * mm), abs(pm * (1.0 / det) - b * mp)), 0.0
        (pp1, pp2), (pm1, pm2), (mp1, mp2), (mm1, mm2), d_rows = self._rows
        e, f, g, h = s / det, -q / det, -r / det, p / det  # B^{-1} = [[e, f], [g, h]]
        anti = max(max(abs(pp1 * p + pp2 * r + b * mm1), abs(pp1 * q + pp2 * s + b * mm2)),
                   max(abs(pm1 * e + pm2 * g - b * mp1), abs(pm1 * f + pm2 * h - b * mp2)))
        return anti, abs(self.a_minus - self.a_plus * det + b * _bprime(d_rows, rows))


# ---------------------------------------------------------------------------
# witnesses and descriptions


@dataclass(frozen=True, eq=False)
class SolutionWitness:
    """A verified point (b, B) of the solution family, with its residuals.

    It passed _vertex_failure with WITNESS_TOL, the check of every path
    vertex; cs builds the CompatibleStructure (B1, B2) = ([[b]], B) when read.
    """

    b: float
    b_matrix: np.ndarray
    residuals: tuple
    case_label: str

    @property
    def cs(self) -> CompatibleStructure:
        return CompatibleStructure(B1=[[self.b]], B2=self.b_matrix)

    def position(self) -> np.ndarray:
        return np.concatenate(([self.b], self.b_matrix.ravel()))

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "B": self.b_matrix.tolist(),
            "residuals": [float(r) for r in self.residuals],
            "case": self.case_label,
        }


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
    """Up to `want` witnesses from at most `tries` seeded chart draws.

    A draw is kept when it passes _vertex_failure with WITNESS_TOL; a
    rejected draw is logged at DEBUG level with the failed check.
    """

    def verified(cand):
        x = sys.pack(*cand)
        why, res = _vertex_failure(sys, x, WITNESS_TOL)
        if why is None:
            return SolutionWitness(float(x[0]), x[1:].reshape(sys.m, sys.m), res, desc.case_label)
        log.debug("rejected witness draw at b=%s: %s", cand[0], why)
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
    """A leaf of the case tree: float constants, and the rationals the solver branches on."""

    label: str
    constants: dict
    notes: tuple = ()
    exact: dict = field(default_factory=dict, repr=False)


def _wlog_transform(row) -> list:
    """Unimodular change of the +1 base frame sending the rational row to (1, 0).

    Columns t1, t2 with row @ t1 = 1, row @ t2 = 0 and det = 1, so the
    determinant normalization and the antisymmetric scalars are untouched.
    """
    r1, r2 = row
    n2 = r1 * r1 + r2 * r2
    return [[r1 / n2, -r2], [r2 / n2, r1]]


def _restricted_signature(sys: ConstraintSystem):
    """Signature of det(B) restricted to the hyperplane {b'(B) = 0}, decided exactly.

    b'(B) = w . (b11, b12, b21, b22) with w = (-d21, d11, -d22, d12).  The
    hyperplane is the det-orthogonal complement of the dual vector of w, so
    the restriction has signature (1, 2) when q*(w) = w1 w4 - w2 w3 > 0,
    (2, 1) when q*(w) < 0, and is degenerate of signature (1, 1) when
    q*(w) = 0.
    """
    dual = _det2(sys.exact[2])  # q*(w) = det D
    return (1, 2) if dual > 0 else (2, 1) if dual < 0 else (1, 1)


def _nappe_vector(sys: ConstraintSystem) -> tuple:
    """Rational v = (v11, v12, v21, v22) in ker b' with det v > 0.

    The kernel basis pivots on the first nonzero entry w_p of
    w = (-d21, d11, -d22, d12): one vector e_j - (w_j / w_p) e_p for each
    j != p.  v is the first combination with coefficients in {-1, 0, 1}
    that has det v > 0.  One always exists: with the coordinate that det
    pairs with p set to zero, det v is +-(product of the two remaining free
    coordinates).
    """
    (d11, d12), (d21, d22) = sys.exact[2]
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
    (b11, b12), (b21, b22) = ([Fraction(x) for x in row] for row in np.asarray(b_mat).tolist())
    v11, v12, v21, v22 = v
    q = (v11 * b22 + v22 * b11 - v12 * b21 - v21 * b12) / 2
    if q * q < (v11 * v22 - v12 * v21) * (b11 * b22 - b12 * b21) / 2:
        return 0, q
    return (q > 0) - (q < 0), q


def classify_case(sys: ConstraintSystem) -> CaseInfo:
    """Leaf of the case tree for a two-dimensional base, with constants.

    Every branch is decided exactly, on the rationals of the system.
    """
    if sys.m != 2:
        raise ValueError("case classification requires base eigenspace dimension 2")
    ap, am, d_rows, pp, pm, mp, mm = sys.exact
    consts: dict = {"a_plus": sys.a_plus, "a_minus": sys.a_minus}

    def leaf(label, q):  # the constants rounded once, sequences to float arrays
        consts.update((k, np.array(v, dtype=float) if isinstance(v, (list, tuple)) else float(v))
                      for k, v in q.items())
        return CaseInfo(label, consts, exact=q)

    if not any(pp + pm + mp + mm):
        if not any(d_rows[0] + d_rows[1]):
            return CaseInfo("L0.D0", consts)
        pos, neg = _restricted_signature(sys)
        consts["restricted_signature"] = (pos, neg)
        consts["stratum_components"] = 1 if pos == 2 else 2
        return CaseInfo("L0.Dnz", consts)
    if not any(pp + mp):
        return CaseInfo("L.rowszero", consts)
    if any(pp) and any(mp):
        det_rows = _det2((pp, mp))
        if det_rows:
            inv = [[mp[1] / det_rows, -pp[1] / det_rows], [-mp[0] / det_rows, pp[0] / det_rows]]
            m1 = ratl.mat_mul(inv, [[-x for x in mm], [0, 0]])
            m2 = ratl.mat_mul(inv, [[0, 0], list(pm)])
            alpha = -_det2((mm, pm)) / det_rows
            c1 = _bprime(d_rows, m1)
            c0 = am - alpha * ap + _bprime(d_rows, m2)
            return leaf("L.indep", {"alpha": alpha, "M1": m1, "M2": m2, "c1": c1, "c": c0,
                                    "det_rows": det_rows})
        # proportional rows: beta with l_pp = beta * l_mp
        return leaf("L.prop", {"beta": pp[0] / mp[0] if mp[0] else pp[1] / mp[1]})
    if not any(mp):
        t = _wlog_transform(pp)
        dp = ratl.mat_mul(d_rows, t)
        l0, l2 = mm[1], -mm[0]
        c0, c1, c2 = -dp[1][1], dp[1][0] * mm[0] - dp[0][0] * mm[1], dp[0][1]
        return leaf("L.mpzero", {"transform": t, "lambda": mm, "l0": l0, "l2": l2, "c0": c0,
                                 "c1": c1, "c2": c2, "a0": c0 - ap * l0, "a2": c2 - ap * l2})
    t = _wlog_transform(mp)
    dp = ratl.mat_mul(d_rows, t)
    l1, l2 = pm
    jac = dp[0][1] * l2 - dp[1][1] * l1
    q = {"transform": t, "l1": l1, "l2": l2, "k": am + dp[0][0] * l2 - dp[1][0] * l1,
         "jac": jac, "D_t": dp}
    if not jac:  # then dp[0][1] / l1 = dp[1][1] / l2 wherever defined
        q["c"] = dp[0][1] / l1 if l1 else dp[1][1] / l2 if l2 else Fraction(0)
    return leaf("L.ppzero", q)


# ---------------------------------------------------------------------------
# one-dimensional base


def solve_kodaira(sys: ConstraintSystem) -> SolutionSetDescription:
    """Describe the solution family {(b1, b2) > 0} for a 1-dim base.

    Kinds: quadrant (no constraints), hyperbola {b1 b2 = kappa}, ray
    {b1 = s b2}, point, empty.  Every branch is decided exactly.
    """
    if sys.m != 1:
        raise ValueError("this solver requires base eigenspace dimension 1")
    _, _, _, (lpp,), (lpm,), (lmp,), (lmm,) = sys.exact
    consts = {"l_pp": float(lpp), "l_pm": float(lpm), "l_mp": float(lmp), "l_mm": float(lmm)}
    label = "kodaira"

    def desc(kind, dim, draw, extra=None, chart=None):
        return _nonempty(sys, label, kind, dim, False, {**consts, **(extra or {})}, draw, (), chart)

    if not lmm:
        if lpp:
            return _empty(sys, label, consts, ["first equation forces b2 = 0"])
        if not lmp:
            if not lpm:
                return desc(
                    "quadrant", 2, lambda rng: (rng.uniform(0.05, _BOX), [[rng.uniform(0.05, _BOX)]])
                )
            return _empty(sys, label, consts, ["second equation forces 1/b2 = 0"])
        if lpm / lmp <= 0:
            return _empty(sys, label, consts, ["required product b1 b2 is not positive"])
        kappa = float(lpm / lmp)
        # b1 = kappa / b2 and b2 share the box only while kappa <= _BOX^2
        box = _BOX if kappa <= _BOX * _BOX else 2.0 * math.sqrt(kappa)

        def point(b2):
            return kappa / b2, [[b2]]

        return desc("hyperbola", 1, lambda rng: point(rng.uniform(max(0.05, kappa / box), box)),
                    {"kappa": kappa}, (point, lambda x: x[1]))
    if lpp * lmm >= 0:
        return _empty(sys, label, consts, ["no positive b1 satisfies the first equation"])
    slope = float(-lpp / lmm)
    prod_p, prod_q = lpp * lmp, lpm * lmm
    if not prod_p and not prod_q:

        def draw_ray(rng):
            b2 = rng.uniform(0.05, _BOX)
            return slope * b2, [[b2]]

        return desc("ray", 1, draw_ray, {"slope": slope})
    if prod_p * prod_q < 0:
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


def _chart_system(sys: ConstraintSystem):
    """(sys, ()) when its entries are of a moderate size, else (copy, note).

    The copy has the l-rows times one power of 2^8 and (a_plus, a_minus, D)
    times another, which bring the largest entries to about [1/16, 16).
    Neither moves the solution set, but the charts' boxes and margins are
    absolute: at entries of 1e-11 they would miss the family.
    """

    def power(entries):  # the multiple of 8 nearest to log2 of the largest entry
        return (math.frexp(max(map(abs, entries)))[1] + 3) // 8 * 8

    ap, am, d_rows, *rows = sys.exact
    ea, el = power([ap, am, *d_rows[0], *d_rows[1]]), power([x for row in rows for x in row])
    if not ea and not el:
        return sys, ()
    fa, fl = Fraction(2) ** -ea, Fraction(2) ** -el
    cs = ConstraintSystem.from_blocks(
        2, ap * fa, am * fa, [[x * fa for x in row] for row in d_rows],
        *([x * fl for x in row] for row in rows))
    return cs, (f"chart constants are those of the system with its l-rows times 2^{-el} "
                f"and a_plus, a_minus, D times 2^{-ea}",)


def solve_threefold(sys: ConstraintSystem) -> SolutionSetDescription:
    """Describe the solution family {(b, B)} for a 2-dim base, d = 1.

    Every branch is decided exactly; the floats of the constants only build
    the charts and the draws.
    """
    if sys.m != 2:
        raise ValueError("this solver requires base eigenspace dimension 2")
    cs, scaled = _chart_system(sys)
    info = classify_case(cs)
    label, c, e = info.label, dict(info.constants), info.exact
    ap, am, d_rows, _, pm, mp, mm = cs.exact
    a_p, a_m = cs.a_plus, cs.a_minus

    def desc(kind, dim, b_free, draw, notes=(), chart=None):
        return _nonempty(sys, label, kind, dim, b_free, c, draw, (*notes, *scaled), chart)

    def empty(why):
        return _empty(sys, label, c, [why, *scaled])

    def draw_b(rng):
        return rng.uniform(0.05, _BOX)

    if label == "L0.D0":
        if not ap:
            if not am:

                def draw_region(rng):
                    b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
                    if _det2(b_mat) <= REGION_TOL:
                        return None
                    return draw_b(rng), b_mat

                return desc("region", 4, True, draw_region)
            return empty("det-free equation a_minus = 0 fails")
        a = c["a"] = float(am / ap)
        if am / ap <= 0:
            return empty("required determinant a_minus/a_plus is not positive")

        def draw_quadric(rng):
            b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
            det = _det2(b_mat)
            if det <= 1e-6:
                return None
            return draw_b(rng), b_mat * math.sqrt(a / det)

        return desc("quadric", 3, True, draw_quadric)

    if label == "L0.Dnz":
        if not ap and not am:
            kern = _bprime_kernel(cs.D)

            def draw_stratum(rng):
                v = kern @ rng.uniform(-_BOX, _BOX, 3)
                b_mat = v.reshape(2, 2)
                if _det2(b_mat) <= REGION_TOL:
                    return None
                return draw_b(rng), b_mat

            notes = []
            if c["stratum_components"] == 2:
                c["nappe_vector"] = _nappe_vector(cs)
                notes.append(
                    "degenerate stratum family: expected two connected components"
                )
            return desc("stratum", 3, True, draw_stratum, notes)

        def draw_graph(rng):
            b_mat = rng.uniform(-_BOX, _BOX, (2, 2))
            det = _det2(b_mat)
            bp = _bprime(cs._rows[4], b_mat.tolist())
            if det <= REGION_TOL or abs(bp) < 1e-8:
                return None
            b = (a_p * det - a_m) / bp
            if b <= REGION_TOL:
                return None
            return b, b_mat

        return desc("hypersurface", 3, True, draw_graph)

    if label == "L.rowszero":
        return empty("both equations force the nonzero mixed rows to vanish")

    if label == "L.indep":
        m1, m2 = c["M1"], c["M2"]
        if e["alpha"] <= 0:
            return empty("forced determinant alpha is not positive")
        if not e["c1"]:
            if not e["c"]:

                def point(b):
                    return b, m1 * b + m2 / b

                chart = (point, lambda x: x[0])
                return desc("curve", 0, True, lambda rng: point(draw_b(rng)), (), chart)
            return empty("constant equation c = 0 fails")
        if -e["c"] / e["c1"] <= 0:
            return empty("quadratic c1 b^2 + c = 0 has no positive root")
        bhat = c["bhat"] = math.sqrt(-e["c"] / e["c1"])
        return desc("point", 0, False, lambda rng: (bhat, m1 * bhat + m2 / bhat))

    if label == "L.prop":
        beta = e["beta"]
        if not any(mm):
            return empty("second equation is inconsistent" if any(pm) else
                         "proportional rows squeeze B to a singular matrix")
        i = 0 if mm[0] else 1
        bsq = -beta * pm[i] / mm[i]
        if bsq <= 0 or any(bsq * x + beta * y for x, y in zip(mm, pm)):
            return empty("the two vector equations admit no common b")
        bhat = c["bhat"] = math.sqrt(bsq)
        # affine chart B = B0 + normal s^T on {l_mp @ B = l_pm / bhat}, with
        # B0 = R / bhat of rank one, R = l_mp l_pm^T / |l_mp|^2; along it
        # det B = det_lin . s, linear, and b'(B) = b'(B0) + bp_lin . s
        n2 = mp[0] * mp[0] + mp[1] * mp[1]
        r = [[x * y / n2 for y in pm] for x in mp]
        normal = (-mp[1], mp[0])
        det_lin_r = ratl.mat_vec([[r[1][1], -r[0][1]], [-r[1][0], r[0][0]]], normal)
        dn = ratl.mat_vec(d_rows, normal)
        # eq_lin = -a_plus det_lin + bhat bp_lin carries bhat: test bhat eq_lin
        e_lin = [bsq * y - ap * x for x, y in zip(det_lin_r, (-dn[1], dn[0]))]
        eq_const = am + _bprime(d_rows, r)
        b0 = np.array(r, dtype=float) / bhat
        normal = np.array(normal, dtype=float)
        det_lin = np.array(det_lin_r, dtype=float) / bhat
        eq_lin = c["eq_lin"] = np.array(e_lin, dtype=float) / bhat
        c["eq_const"] = float(eq_const)
        if not any(e_lin):
            if eq_const:
                return empty("determinant equation fails identically")

            def draw_halfplane(rng):
                s = rng.uniform(-_BOX, _BOX, 2)
                if float(det_lin @ s) <= REGION_TOL:
                    return None
                return bhat, b0 + np.outer(normal, s)

            return desc("halfplane", 2, False, draw_halfplane)
        # the line eq_lin . s = -eq_const through s_part, along direction
        e_sq = e_lin[0] * e_lin[0] + e_lin[1] * e_lin[1]
        g0 = -eq_const * (det_lin_r[0] * e_lin[0] + det_lin_r[1] * e_lin[1]) / e_sq
        g1 = det_lin_r[1] * e_lin[0] - det_lin_r[0] * e_lin[1]  # bsq g1, rational
        direction = _complement_row(eq_lin)
        s_part = np.array([-eq_const * x / e_sq for x in e_lin], dtype=float) * bhat
        if not g1:
            if g0 <= 0:
                return empty("solution line misses the positive-determinant side")

            def draw_line(rng):
                s = s_part + rng.uniform(-_BOX, _BOX) * direction
                return bhat, b0 + np.outer(normal, s)

            return desc("half-line", 1, False, draw_line)
        t0, side = float(-g0 * bsq / g1), 1.0 if g1 > 0 else -1.0

        def draw_halfline(rng):
            t = t0 + (0.01 + rng.uniform(0.0, _BOX)) * side
            s = s_part + t * direction
            return bhat, b0 + np.outer(normal, s)

        return desc("half-line", 1, False, draw_halfline)

    if label == "L.mpzero":
        if any(pm):
            return empty("second equation forces the +- row to vanish")
        if not any(mm):
            return empty("first equation squeezes B to a singular matrix")
        t, lam, c1 = c["transform"], c["lambda"], c["c1"]

        def assemble(b, b21, b22):
            bw = np.array([[-b * lam[0], -b * lam[1]], [b21, b22]])
            return b, t @ bw

        rho_row = np.array([c["l0"], c["l2"]])
        tau_row = np.array([c["a0"], c["a2"]])
        jac = e["a0"] * e["l2"] - e["a2"] * e["l0"]
        c["tau_rho_det"] = float(jac)
        t_inv = np.array(ratl.inverse(e["transform"]), dtype=float)
        if jac:
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
        if not e["a0"] and not e["a2"]:
            if not e["c1"]:
                if not am:
                    return desc("halfplane", 2, True, _halfplane_draw(assemble, rho_row, draw_b))
                return empty("constant equation a_minus = 0 fails")
            if -am / e["c1"] <= 0:
                return empty("quadratic a_minus + c1 b^2 = 0 has no positive root")
            bhat = c["bhat"] = math.sqrt(-am / e["c1"])
            draw_plane = _halfplane_draw(assemble, rho_row, lambda rng: bhat)
            return desc("halfplane", 2, False, draw_plane)
        # tau = cf * rho with cf != 0
        cq = e["a0"] / e["l0"] if e["l0"] else e["a2"] / e["l2"]
        cf = c["tau_over_rho"] = float(cq)
        interval = c["b_interval"] = _interval_of_sign(e["c1"], -am, -1 if cq > 0 else 1)
        if interval is None:
            return empty("no b > 0 gives the forced rho a positive sign")

        def band_rho(b):
            return -(a_m + b * b * c1) / (b * cf)

        chart = _band_chart(assemble, rho_row, band_rho, t_inv)
        draw = _interval_band_draw(chart, interval, band_rho)
        return desc("interval-band", 1, True, draw, (), chart)

    # label == "L.ppzero"
    if any(mm):
        return empty("first equation forces the -- row to vanish")
    if not any(pm):
        return empty("second equation squeezes B to a singular matrix")
    t, t_inv = c["transform"], np.array(ratl.inverse(e["transform"]), dtype=float)
    l1, l2, k, jac = c["l1"], c["l2"], c["k"], c["jac"]
    dp = c["D_t"]

    def assemble_pp(b, b21, b22):
        bw = np.array([[l1 / b, l2 / b], [b21, b22]])
        return b, t @ bw

    x_row = np.array([-l2, l1])  # x = l1 b22 - l2 b21 as a row on (b21, b22), det B = x / b
    if e["jac"]:
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
    cf, cq, kq = c["c"], e["c"], e["k"]
    if not kq:
        # chart (b, s) on {b > 0, x > 0}, or on its slice b = bhat
        plane = (lambda p: assemble_pp(p[0], p[1], p[2]),
                 lambda x: np.concatenate(([x[0]], _chart_row(t_inv, x))))
        if not cq:
            if not ap:
                draw_plane = _halfplane_draw(assemble_pp, x_row, draw_b)
                return desc("halfplane", 2, True, draw_plane, (), plane)
            return empty("equation c b^2 = a_plus has no root with c = 0")
        if ap / cq <= 0:
            return empty("equation c b^2 = a_plus has no positive root")
        bhat = c["bhat"] = math.sqrt(ap / cq)
        draw_plane = _halfplane_draw(assemble_pp, x_row, lambda rng: bhat)
        return desc("halfplane", 2, False, draw_plane, (), plane)
    if not cq:
        if not ap or kq / ap <= 0:
            return empty("forced x = b k / a_plus is not positive")
        chart = _band_chart(assemble_pp, x_row, lambda b: b * k / a_p, t_inv)
        return desc("band", 1, True, lambda rng: chart[0]((draw_b(rng), rng.uniform(-_BOX, _BOX))),
                    (), chart)
    interval = c["b_interval"] = _interval_of_sign(cq, ap, -1 if kq > 0 else 1)
    if interval is None:
        return empty("no b > 0 makes the forced x positive")

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
    may be shorter than requested.  A draw is kept when it passes the check
    of every path vertex with WITNESS_TOL (see _vertex_failure); a draw
    that fails it is logged at DEBUG level with the failed check.  Raises
    ValueError when the family is empty.
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


def _vertex_failure(sys: ConstraintSystem, x, tol=PATH_TOL):
    """(why, residuals): the one check of a point, why None when x passes.

    It accepts path vertices (tol = PATH_TOL) and witnesses (WITNESS_TOL).
    x is a packed position, as an array or as its list of floats.  First
    the region test b, det B > REGION_TOL on the once-rounded det B, which
    residual_pair refuses below 1e-14, so a point that passes never makes
    it raise.  Then one residual_pair call: the antiholomorphy residual is
    held to tol, the block quadric one to tol times max(1, |a_plus det B|, |b b'(B)|), the size of its terms: on
    {det B = 1e10} rounding alone leaves about 1e-6.  why names the failed
    check with its values; residuals is None when the region test fails.
    """
    b, *rest = x.tolist() if isinstance(x, np.ndarray) else x
    if sys.m == 1:
        det, rows = rest[0], [rest]
    else:
        p, q, r, s = rest
        det, rows = _det2_rounded(p, q, r, s), [[p, q], [r, s]]
    if not (b > REGION_TOL and det > REGION_TOL):
        return f"b = {b:.6g} and det B = {det:.6g} leave the region", None
    res = anti, quad = sys.residual_pair(b, rows)
    if not anti <= tol:
        return f"antiholomorphy residual {anti:.6g} exceeds {tol:g}", res
    size = 1.0
    if sys.m == 2:
        size = max(1.0, abs(sys.a_plus * det), abs(b * _bprime(sys._rows[4], rows)))
    if not quad <= tol * size:
        return f"block quadric residual {quad:.6g} exceeds {tol:g} x {size:.6g}", res
    return None, res


def _as_position(sys: ConstraintSystem, point) -> np.ndarray:
    if isinstance(point, SolutionWitness):
        return point.position()
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 1 and arr.size == 1 + sys.m * sys.m:
        return arr
    raise ValueError("a path endpoint must be a witness or a packed position")


def _chord_det_min(sys: ConstraintSystem, x0: list, x1: list) -> float:
    """Closed-form minimum of det B, a quadratic, along the chord from x0 to x1.

    b is linear, so it stays positive between positive ends; for m = 1 the
    region is a convex quadrant and the minimum is returned as inf.
    """
    if sys.m == 1:
        return math.inf
    return _quad_min01(*_det_along_line(x0[1:], x1[1:]))


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
    points, prev = [], None  # prev: the last vertex as a list of floats
    for t in (0.0, 0.5, 1.0) if isinstance(leg, _LinearCurve) else _GRID:
        x = leg(t)
        xs = None if x is None else x.tolist()
        why = "the chart is singular" if x is None else _vertex_failure(sys, xs)[0]
        if why is None and points and not (low := _chord_det_min(sys, prev, xs)) > 0.0:
            why = f"the chord from the vertex before reaches det B = {low:.6g}"
        if why is not None:
            return None, (t, points, why)
        points.append(x)
        prev = xs
    return points, None


def _det_along_line(bp: list, bq: list):
    """Coefficients of det((1-t) P + t Q) as c0 + c1 t + c2 t^2; P and Q as 4 floats."""
    p00, p01, p10, p11 = bp
    q00, q01, q10, q11 = bq
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

    def point(m):
        b_mat = m.reshape(2, 2)
        bp_val = _bprime(sys._rows[4], b_mat.tolist())
        if abs(bp_val) < 1e-9:
            return None
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
        b0, *m0 = curve.x0.tolist()
        b1, *m1 = curve.x1.tolist()
        # c0 is det(m0) as the sampler computes it; c0 + c1 + c2 rounds apart from det(m1)
        det_min = min(_quad_min01(*_det_along_line(m0, m1)), m1[0] * m1[3] - m1[1] * m1[2])
        return min(b0, b1) > _SAFE and det_min > _SAFE
    points = (None if x is None else x.tolist() for x in map(curve, np.linspace(0.0, 1.0, 33)))
    return all(x is not None and x[0] > _SAFE and x[1] * x[4] - x[2] * x[3] > _SAFE for x in points)


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
    c0, c1, c2 = _det_along_line(b_from.ravel().tolist(), b_star.ravel().tolist())
    bp_start = _bprime(sys._rows[4], b_from.tolist())
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

    def well_placed(cand):
        b, b_mat = cand
        b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
        if b <= 0.1 or _det2(b_mat) <= 0.1:
            return None
        if sign and _bprime(sys._rows[4], b_mat.tolist()) * sign <= 0:
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
        sp, sq = (_bprime(sys._rows[4], sys.unpack(x)[1].tolist()) for x in (xp, xq))
        graph_leg = checker(lambda x0, x1: _graph_leg(sys, x0, x1))
        if sp * sq >= 0:  # one side of b' = 0, the side of an end where b' is not 0
            return _bend_route(graph_leg, xp, xq, _family_mids(sys, desc, sign=sp or sq))
        # opposite signs of b': route through a stratum point where the
        # graph value of b extends continuously to a positive limit
        mids_p = _family_mids(sys, desc, sign=sp)
        mids_q = _family_mids(sys, desc, sign=sq)
        # the stratum points depend only on the system: drawn once, kept
        # with the description's mids
        if "stratum" not in desc._mids:
            desc._mids["stratum"] = _stratum_candidates(sys)
        nearest = []  # the endpoints' own B, projected along b' onto the stratum
        row = _bprime_row(sys.D)
        for x, bp in ((xp, sp), (xq, sq)):
            m = x[1:] - bp / float(row @ row) * row
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
        if (why := _vertex_failure(sys, x)[0]) is not None:
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
        return x if _vertex_failure(sys, x)[0] is None else None

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
    positions = [w.position() for w in witnesses]
    n = len(witnesses)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pairs = sorted(
        itertools.combinations(range(n), 2),
        key=lambda ij: np.linalg.norm(positions[ij[0]] - positions[ij[1]]),
    )
    paths = []
    failures = []
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        result = connect(positions[i], positions[j], sys)
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
