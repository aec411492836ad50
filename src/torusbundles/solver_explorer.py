"""Case analysis and numerical exploration of the compatibility equations.

For one-dimensional fibers the block data of an equivariant form reduces
to a handful of scalars, and the simultaneous equations

    L_pp B + b L_mm = 0,   b (L_mp B) - L_pm = 0,
    a_minus - a_plus det(B) + b b'(B) = 0        (base dimension two only)

cut out the family of compatible complex structures inside the open
region {b > 0, det(B) > 0}.  This module classifies the family into an
exhaustive case tree, produces closed-form descriptions with verified
sample witnesses, and certifies connectedness numerically by joining
witnesses with corrected continuation paths.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .real_structures import (
    CompatibleStructure,
    EigenSplit,
    antiholomorphy_residual,
    rbr2_residual,
)

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
        """Independent residuals computed from the block operators."""
        cs = CompatibleStructure(B1=[[b]], B2=np.asarray(b_mat, dtype=float))
        return (
            antiholomorphy_residual(self.split, cs),
            rbr2_residual(self.split, cs),
        )


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
    dimension is the total dimension directly.
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


def _draw_witnesses(sys, desc, seed, want, tries) -> list:
    """Up to `want` verified witnesses from at most `tries` seeded chart draws."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(tries):
        if len(found) >= want:
            break
        cand = desc.draw(rng)
        if cand is None or not sys.in_region(sys.pack(*cand)):
            continue
        try:
            found.append(_make_witness(sys, *cand, desc.case_label))
        except ValueError:
            log.debug("rejected witness draw at b=%s", cand[0])
    return found


def _nonempty(sys, label, kind, dim, b_free, constants, draw, notes=()):
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


def _restricted_signature(sys: ConstraintSystem):
    """Signature of det(B) restricted to the hyperplane {b'(B) = 0}."""
    # det as a symmetric form on (b11, b12, b21, b22)
    q = np.zeros((4, 4))
    q[0, 3] = q[3, 0] = 0.5
    q[1, 2] = q[2, 1] = -0.5
    kern = _bprime_kernel(sys.D)
    restr = kern.T @ q @ kern
    eig = np.linalg.eigvalsh(restr)
    tol = 1e-12 * max(1.0, np.abs(eig).max())
    pos = int((eig > tol).sum())
    neg = int((eig < -tol).sum())
    return pos, neg


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
        consts["stratum_components"] = 1 if pos >= 2 else (2 if pos == 1 else 0)
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

    def desc(kind, dim, draw, extra=None):
        return _nonempty(sys, label, kind, dim, False, {**consts, **(extra or {})}, draw)

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

        def draw_hyp(rng):
            b2 = rng.uniform(max(0.05, kappa / box), box)
            return kappa / b2, [[b2]]

        return desc("hyperbola", 1, draw_hyp, {"kappa": kappa})
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


def solve_threefold(sys: ConstraintSystem) -> SolutionSetDescription:
    """Describe the solution family {(b, B)} for a 2-dim base, d = 1."""
    if sys.m != 2:
        raise ValueError("this solver requires base eigenspace dimension 2")
    info = classify_case(sys)
    label, c = info.label, dict(info.constants)
    a_p, a_m = sys.a_plus, sys.a_minus
    sc = sys.scale

    def desc(kind, dim, b_free, draw, notes=()):
        return _nonempty(sys, label, kind, dim, b_free, c, draw, notes)

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
            pos, _neg = c["restricted_signature"]
            if pos == 0:
                return _empty(
                    sys, label, c, ["determinant is nonpositive on the coupling stratum"]
                )
            kern = _bprime_kernel(sys.D)

            def draw_stratum(rng):
                v = kern @ rng.uniform(-_BOX, _BOX, 3)
                b_mat = v.reshape(2, 2)
                if _det2(b_mat) <= REGION_TOL:
                    return None
                return draw_b(rng), b_mat

            notes = []
            if c["stratum_components"] == 2:
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

                def draw_curve(rng):
                    b = draw_b(rng)
                    return b, m1 * b + m2 / b

                return desc("curve", 0, True, draw_curve)
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
        if not _near_zero(jac, sc * sc):

            def draw_quadrant(rng):
                b = draw_b(rng)
                rho = rng.uniform(0.05, _BOX)
                tau = -(a_m + b * b * c1) / b
                sol = np.linalg.solve(np.vstack([tau_row, rho_row]), np.array([tau, rho]))
                return assemble(b, sol[0], sol[1])

            return desc("quadrant", 1, True, draw_quadrant)
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
        zdir = _complement_row(rho_row)

        def draw_band(rng):
            b = _draw_from_interval(rng, *interval)
            rho = -(a_m + b * b * c1) / (b * cf)
            if rho <= REGION_TOL:
                return None
            base = rho * rho_row / float(rho_row @ rho_row)
            s = base + rng.uniform(-_BOX, _BOX) * zdir
            return assemble(b, s[0], s[1])

        return desc("interval-band", 1, True, draw_band)

    # label == "L.ppzero"
    if not all(_near_zero(v, sc) for v in sys.l_mm):
        return _empty(sys, label, c, ["first equation forces the -- row to vanish"])
    if all(_near_zero(v, sc) for v in sys.l_pm):
        return _empty(sys, label, c, ["second equation squeezes B to a singular matrix"])
    t = c["transform"]
    l1, l2, k, jac = c["l1"], c["l2"], c["k"], c["jac"]
    dp = c["D_t"]

    def assemble_pp(b, b21, b22):
        bw = np.array([[l1 / b, l2 / b], [b21, b22]])
        return b, t @ bw

    x_row = np.array([-l2, l1])  # x = l1 b22 - l2 b21 as a row on (b21, b22)
    if not _near_zero(jac, sc * sc):

        def draw_quadrant2(rng):
            b = draw_b(rng)
            x = rng.uniform(0.05, _BOX)
            y = -b * k
            y_row = np.array([-dp[1, 1] * b * b + a_p * l2, dp[0, 1] * b * b - a_p * l1])
            sol = np.linalg.solve(np.vstack([x_row, y_row]), np.array([x, y]))
            return assemble_pp(b, sol[0], sol[1])

        return desc("quadrant", 1, True, draw_quadrant2)
    cf = c["c"]
    zdir = _complement_row(x_row)
    if _near_zero(k, sc):
        if _near_zero(cf, sc):
            if a_p == 0:
                return desc("halfplane", 2, True, _halfplane_draw(assemble_pp, x_row, draw_b))
            return _empty(sys, label, c, ["equation c b^2 = a_plus has no root with c = 0"])
        bsq = a_p / cf
        if bsq <= 0:
            return _empty(sys, label, c, ["equation c b^2 = a_plus has no positive root"])
        bhat = math.sqrt(bsq)
        c["bhat"] = bhat
        draw_plane = _halfplane_draw(assemble_pp, x_row, lambda rng: bhat)
        return desc("halfplane", 2, False, draw_plane)
    if _near_zero(cf, sc):
        if a_p == 0 or k / a_p <= 0:
            return _empty(sys, label, c, ["forced x = b k / a_plus is not positive"])

        def draw_ray2(rng):
            b = draw_b(rng)
            x = b * k / a_p
            base = x * x_row / float(x_row @ x_row)
            s = base + rng.uniform(-_BOX, _BOX) * zdir
            return assemble_pp(b, s[0], s[1])

        return desc("band", 1, True, draw_ray2)
    interval = _interval_of_sign(cf, a_p, -1 if k > 0 else 1)
    c["b_interval"] = interval
    if interval is None:
        return _empty(sys, label, c, ["no b > 0 makes the forced x positive"])

    def draw_band2(rng):
        b = _draw_from_interval(rng, *interval)
        x = -b * k / (cf * b * b - a_p)
        if x <= REGION_TOL:
            return None
        base = x * x_row / float(x_row @ x_row)
        s = base + rng.uniform(-_BOX, _BOX) * zdir
        return assemble_pp(b, s[0], s[1])

    return desc("interval-band", 1, True, draw_band2)


def solve(sys: ConstraintSystem) -> SolutionSetDescription:
    """Dispatch on the base eigenspace dimension, once per system."""
    if sys._description is None:
        sys._description = solve_kodaira(sys) if sys.m == 1 else solve_threefold(sys)
    return sys._description


# ---------------------------------------------------------------------------
# sampling


def sample_solutions(sys: ConstraintSystem, count: int, seed: int = 0) -> list:
    """Deterministic verified samples from the solution family.

    Raises ValueError when the family is empty; the returned list may be
    shorter than requested (rejected witnesses are logged at DEBUG level).
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


def _jacobian(sys: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    f0 = sys.equality_stack(x)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        h = 1e-7 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (sys.equality_stack(xp) - f0) / h
    return jac


def _correct(sys: ConstraintSystem, x0: np.ndarray, tol=1e-11):
    """Damped least-squares Newton projection onto the equality set."""
    x = x0.copy()
    if not sys.in_region(x):
        return None
    for _ in range(50):
        f = sys.equality_stack(x)
        if np.abs(f).max() <= tol:
            return x
        jac = _jacobian(sys, x)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        lam = 1.0
        improved = False
        base = np.linalg.norm(f)
        while lam >= 2 ** -12:
            cand = x + lam * step
            if sys.in_region(cand) and np.linalg.norm(sys.equality_stack(cand)) < base:
                x = cand
                improved = True
                break
            lam *= 0.5
        if not improved:
            return None
    f = sys.equality_stack(x)
    return x if np.abs(f).max() <= tol else None


def _verify_vertex(sys: ConstraintSystem, x: np.ndarray) -> bool:
    b, b_mat = sys.unpack(x)
    return sys.in_region(x) and max(sys.residual_pair(b, b_mat)) <= PATH_TOL


def _as_position(sys: ConstraintSystem, point) -> np.ndarray:
    if isinstance(point, SolutionWitness):
        return point.position()
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 1 and arr.size == 1 + sys.m * sys.m:
        return arr
    raise ValueError("a path endpoint must be a witness or a packed position")


def _chord_in_region(sys: ConstraintSystem, x0: np.ndarray, x1: np.ndarray) -> bool:
    """Whether the whole straight chord stays in {b > 0, det B > 0}.

    b is linear along the chord and positive at both ends; det B is an
    exact quadratic in the chord parameter, so its minimum is closed-form.
    Rejecting chords that dip out keeps a polyline from jumping through a
    pinch of the open region that separates genuine components.
    """
    if sys.m == 1:
        return True  # the region is a convex quadrant
    _, b0 = sys.unpack(x0)
    _, b1 = sys.unpack(x1)
    return _quad_min01(*_det_along_line(b0, b1)) > 0.0


def _walk_curve(sys: ConstraintSystem, curve):
    """Adaptive predictor-corrector walk along a parametrized curve.

    The predictor evaluates the curve at the next parameter, the corrector
    projects onto the equality set; steps halve on rejection down to 1e-6.
    Returns the vertex list or None together with the progress so far.
    """
    start = _correct(sys, np.asarray(curve(0.0), dtype=float))
    if start is None or not _verify_vertex(sys, start):
        return None, []
    points = [start]
    t, step = 0.0, 0.1
    while t < 1.0:
        t_next = min(1.0, t + step)
        predictor = np.asarray(curve(t_next), dtype=float)
        chord = np.linalg.norm(predictor - np.asarray(curve(t), dtype=float))
        corrected = _correct(sys, predictor)
        if (
            corrected is not None
            and np.linalg.norm(corrected - points[-1]) <= 4.0 * chord + 1e-6
            and _verify_vertex(sys, corrected)
            and _chord_in_region(sys, points[-1], corrected)
        ):
            points.append(corrected)
            t = t_next
            step = min(0.1, step * 1.6)
            continue
        step *= 0.5
        if step < 1e-6:
            return None, points
    return points, points


class _LinearCurve:
    """Straight leg (1 - t) x0 + t x1, which keeps its endpoints."""

    __slots__ = ("x0", "x1")

    def __init__(self, x0: np.ndarray, x1: np.ndarray):
        self.x0, self.x1 = x0, x1

    def __call__(self, t):
        return (1.0 - t) * self.x0 + t * self.x1


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


def _graph_curve(sys: ConstraintSystem, xp, xq, b_end_p, b_end_q):
    """Chart line in B for the graph family, with b from the equation.

    Where the linear form b' vanishes (only at an endpoint by linearity)
    the prescribed landing value is used instead of the 0/0 ratio.
    """
    _, bp_mat = sys.unpack(xp)
    _, bq_mat = sys.unpack(xq)
    row = _bprime_row(sys.D)

    def curve(t):
        b_mat = (1.0 - t) * bp_mat + t * bq_mat
        bp_val = float(row @ b_mat.ravel())
        if abs(bp_val) < 1e-9:
            b = b_end_p if t < 0.5 else b_end_q
        else:
            b = (sys.a_plus * _det2(b_mat) - sys.a_minus) / bp_val
        return sys.pack(b, b_mat)

    return curve


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
    for t in np.linspace(0.0, 1.0, 33):
        x = np.asarray(curve(t), dtype=float)
        b, b_mat = sys.unpack(x)
        if b <= _SAFE or _det2(b_mat) <= _SAFE:
            return False
    return True


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


def _stratum_candidates(sys: ConstraintSystem, count=12):
    """Points of {b' = 0, a_plus det B = a_minus, det B > 0} (B parts)."""
    if np.abs(_bprime_row(sys.D)).max() == 0:
        return []
    kern = _bprime_kernel(sys.D)
    target = None
    if sys.a_plus != 0:
        target = sys.a_minus / sys.a_plus
        if target <= 0:
            return []
    elif sys.a_minus != 0:
        return []
    rng = np.random.default_rng(7)
    out = []
    for _ in range(300):
        if len(out) >= count:
            break
        b_mat = (kern @ rng.uniform(-1.0, 1.0, 3)).reshape(2, 2)
        det = _det2(b_mat)
        if det <= 1e-9:
            continue
        if target is not None:
            b_mat = b_mat * math.sqrt(target / det)
        out.append(b_mat)
    return out


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


def _rev_leg(leg):
    return lambda t: leg(1.0 - t)


def _family_mids(sys: ConstraintSystem, desc, sign=0.0, count=16):
    """Deterministic well-placed family samples for one-bend routing."""
    key = 0 if not sign else (1 if sign > 0 else -1)
    if key in desc._mids:
        return desc._mids[key]
    rng = np.random.default_rng(13)
    row = _bprime_row(sys.D) if sys.m == 2 else None
    out = []
    for _ in range(400):
        if len(out) >= count:
            break
        cand = desc.draw(rng)
        if cand is None:
            continue
        b, b_mat = cand
        b_mat = np.atleast_2d(np.asarray(b_mat, dtype=float))
        if b <= 0.1 or _det2(b_mat) <= 0.1:
            continue
        if sign and float(row @ b_mat.ravel()) * sign <= 0:
            continue
        out.append(sys.pack(b, b_mat))
    desc._mids[key] = out
    return out


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
    _, b_mat = sys.unpack(x)
    land = _landing_b(sys, b_mat, b_star)
    if land is not None and land > _SAFE:
        x_land = sys.pack(land, b_star)
        leg = leg_for(x, x_land)
        if leg is not None:
            return [leg], x_land
    for x_mid in mids:
        _, bm_mat = sys.unpack(x_mid)
        land = _landing_b(sys, bm_mat, b_star)
        if land is None or land <= _SAFE:
            continue
        x_land = sys.pack(land, b_star)
        leg1 = leg_for(x, x_mid)
        leg2 = leg_for(x_mid, x_land) if leg1 is not None else None
        if leg2 is not None:
            return [leg1, leg2], x_land
    return None


def _route(sys: ConstraintSystem, desc: SolutionSetDescription, xp, xq, verdicts: dict):
    """Case-aware list of predictor curves from xp to xq, or None.

    Legs that need a region check are decided through the verdicts table
    (see _checked_leg).
    """
    kind = desc.kind
    c = desc.constants
    if kind == "empty":
        return None
    if sys.m == 1:
        b1p, b2p = xp[0], xp[1]
        b1q, b2q = xq[0], xq[1]
        if kind == "hyperbola":
            kappa = c["kappa"]
            return [lambda t: np.array([kappa / ((1 - t) * b2p + t * b2q), (1 - t) * b2p + t * b2q])]
        if kind == "ray":
            slope = c["slope"]
            return [lambda t: np.array([slope * ((1 - t) * b2p + t * b2q), (1 - t) * b2p + t * b2q])]
        return [_LinearCurve(xp, xq)]  # quadrant and point: the region is convex
    label = desc.case_label
    b_p, bp_mat = sys.unpack(xp)
    b_q, bq_mat = sys.unpack(xq)

    def checker(make_leg):
        return lambda x0, x1: _checked_leg(sys, verdicts, make_leg, x0, x1)

    if label == "L0.D0":
        if kind == "region":
            return _bend_route(checker(_LinearCurve), xp, xq, _family_mids(sys, desc))
        a = c["a"]

        def quad_leg(x0, x1):
            b0, m0 = sys.unpack(x0)
            b1, m1 = sys.unpack(x1)

            def curve(t):
                b_mat = (1.0 - t) * m0 + t * m1
                det = _det2(b_mat)
                if det <= 1e-12:
                    return sys.pack(-1.0, b_mat)  # flagged out of region
                return sys.pack((1.0 - t) * b0 + t * b1, b_mat * math.sqrt(a / det))

            return curve

        return _bend_route(checker(quad_leg), xp, xq, _family_mids(sys, desc))
    if label == "L0.Dnz":
        row = _bprime_row(sys.D)
        sp = float(row @ bp_mat.ravel())
        sq = float(row @ bq_mat.ravel())
        tol = 1e-9 * sys.scale
        if kind == "stratum":
            return _bend_route(checker(_LinearCurve), xp, xq, _family_mids(sys, desc))
        graph_leg = checker(
            lambda x0, x1: _graph_curve(sys, x0, x1, sys.unpack(x0)[0], sys.unpack(x1)[0])
        )
        if abs(sp) <= tol or abs(sq) <= tol or sp * sq > 0:
            side = sp if abs(sp) > tol else sq
            return _bend_route(graph_leg, xp, xq, _family_mids(sys, desc, sign=side))
        # opposite signs of b': route through a stratum point where the
        # graph value of b extends continuously to a positive limit
        mids_p = _family_mids(sys, desc, sign=sp)
        mids_q = _family_mids(sys, desc, sign=sq)
        for b_star in _stratum_candidates(sys):
            got_in = _stratum_approach(sys, graph_leg, xp, b_star, mids_p)
            if got_in is None:
                continue
            got_out = _stratum_approach(sys, graph_leg, xq, b_star, mids_q)
            if got_out is None:
                continue
            legs_in, x_in = got_in
            legs_out, x_out = got_out
            slide = [] if np.linalg.norm(x_in - x_out) <= 1e-12 else [_LinearCurve(x_in, x_out)]
            return legs_in + slide + [_rev_leg(leg) for leg in reversed(legs_out)]
        return None
    if label == "L.indep":
        m1, m2 = c["M1"], c["M2"]

        def curve(t):
            b = (1.0 - t) * b_p + t * b_q
            return sys.pack(b, m1 * b + m2 / b)

        return [curve]
    if label == "L.prop":
        return [_LinearCurve(xp, xq)]  # affine chart, affine constraints
    if label in ("L.mpzero", "L.ppzero"):
        # chart B = T [first_row(b); w], with b and the row w linear along a leg
        t_mat = c["transform"]
        t_inv = _inv2(t_mat)
        if label == "L.mpzero":
            lam = c["lambda"]

            def first_row(b):
                return [-b * lam[0], -b * lam[1]]

        else:
            l1, l2 = c["l1"], c["l2"]

            def first_row(b):
                return [l1 / b, l2 / b]

        def chart_leg(x0, x1):
            b0, m0 = sys.unpack(x0)
            b1, m1 = sys.unpack(x1)
            r0, r1 = (t_inv @ m0)[1], (t_inv @ m1)[1]

            def curve(t):
                b = (1.0 - t) * b0 + t * b1
                bw = np.array([first_row(b), (1.0 - t) * r0 + t * r1])
                return sys.pack(b, t_mat @ bw)

            return curve

        return _bend_route(checker(chart_leg), xp, xq, _family_mids(sys, desc))
    return None


def _walk_route(sys: ConstraintSystem, legs):
    path = []
    for leg in legs:
        seg, partial = _walk_curve(sys, leg)
        if seg is None:
            return None, partial
        path.extend(seg if not path else seg[1:])
    return path, path


def connect(p, q, sys: ConstraintSystem) -> ConnectPath:
    """Join two solutions by a verified polyline inside the family.

    Tries a case-aware chart route first, then the straight line, then a
    roadmap through sampled intermediate witnesses.  The description comes
    from solve(sys), and every leg's region check runs at most once a call.
    """
    xp = _as_position(sys, p)
    xq = _as_position(sys, q)
    for name, x in (("start", xp), ("end", xq)):
        if not _verify_vertex(sys, x):
            return ConnectPath(
                success=False,
                points=(),
                message=f"{name} point is not a verified solution",
                last_point=tuple(x),
            )
    if np.linalg.norm(xp - xq) <= 1e-12:
        return ConnectPath(success=True, points=(tuple(xp),))
    desc = solve(sys)

    last = tuple(xp)
    message = "continuation stalled"

    def attempt(legs):
        nonlocal last, message
        path, partial = _walk_route(sys, legs)
        if path is not None:
            return ConnectPath(success=True, points=tuple(tuple(v) for v in path))
        if partial:
            last = tuple(partial[-1])
        message = "corrector failed below the minimal step size"
        return None

    verdicts = {}
    direct = _route(sys, desc, xp, xq, verdicts)
    if direct is not None:
        result = attempt(direct)
        if result is not None:
            return result
    result = attempt([_LinearCurve(xp, xq)])
    if result is not None:
        return result

    # roadmap through sampled witnesses, edges = case-aware routable legs
    rng = np.random.default_rng(11)
    nodes = [xp, xq]
    for _ in range(120):
        if len(nodes) >= 22:
            break
        cand = desc.draw(rng)
        if cand is None:
            continue
        x = sys.pack(*cand)
        if _verify_vertex(sys, x):
            nodes.append(x)
    n = len(nodes)
    legs_for = {}
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            legs = _route(sys, desc, nodes[i], nodes[j], verdicts)
            if legs is not None:
                legs_for[(i, j)] = legs
                adj[i].append(j)
                adj[j].append(i)
    dead = set()
    for _ in range(6):
        # breadth-first search from 0 to 1 avoiding dead edges
        prev = {0: None}
        queue = [0]
        while queue:
            u = queue.pop(0)
            if u == 1:
                break
            for v in adj[u]:
                edge = (min(u, v), max(u, v))
                if v not in prev and edge not in dead:
                    prev[v] = u
                    queue.append(v)
        if 1 not in prev:
            break
        hops = []
        v = 1
        while prev[v] is not None:
            hops.append((prev[v], v))
            v = prev[v]
        hops.reverse()
        full = []
        failed_edge = None
        for u, v in hops:
            edge = (min(u, v), max(u, v))
            legs = legs_for[edge]
            if u > v:
                legs = [_rev_leg(leg) for leg in reversed(legs)]
            path, partial = _walk_route(sys, legs)
            if path is None:
                failed_edge = edge
                if partial:
                    last = tuple(partial[-1])
                break
            full.extend(path if not full else path[1:])
        if failed_edge is None:
            return ConnectPath(success=True, points=tuple(tuple(v) for v in full))
        dead.add(failed_edge)
    return ConnectPath(success=False, points=(), message=message, last_point=last)


# ---------------------------------------------------------------------------
# connectivity certificates


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Union-find summary of pairwise continuation between witnesses."""

    case_label: str
    component_count: int
    witnesses: tuple
    paths: tuple
    failures: tuple
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "case": self.case_label,
            "component_count": self.component_count,
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
    behind; an empty family certifies zero components.
    """
    desc = solve(sys)
    if desc.is_empty:
        return ConnectivityCertificate(
            case_label=desc.case_label,
            component_count=0,
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
    return ConnectivityCertificate(
        case_label=desc.case_label,
        component_count=count,
        witnesses=tuple(witnesses),
        paths=tuple(paths),
        failures=tuple(failures),
        samples=samples,
        seed=seed,
    )
