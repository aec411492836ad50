"""Seeded input pools for the benchmark workloads.

Every pool is a list of rounds.  A round holds a fixed number of ops of
each class, so the make-up of a pool (and with it the median op and the
share of failed ops) is the same for every seed; the seed only picks the
members of each class.  All generators here are plain integer and
Fraction arithmetic, written apart from the package so that the inputs do
not depend on the code under test.  The one exception is the sampler
seed of each certify-split op, which run.py picks with the CLI's own
sampler so that the witnesses lie on both nappes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from checks import rref

# m = 2, d = 1 bundle whose form splits along diag(1, 1, -1, -1): the
# second component carries the antisymmetric blocks on the +1 and -1 base
# eigenspaces, the first the mixed block.
THREE_COMPONENTS = (
    ((0, 0, -1, -1), (0, 0, 0, -1), (1, 0, 0, 0), (1, 1, 0, 0)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0)),
)
KODAIRA_COMPONENTS = (((0, 1), (-1, 0)), ((0, 0), (0, 0)))
STD_J1 = ((0.0, -1.0), (1.0, 0.0))

# Base frames T for which the per-vector primitive echelon basis of an
# eigenspace of A2 = T^-1 diag(1, 1, -1, -1) T has index 3, 3 and 2 in its
# lattice.  eigensplit returns these unsaturated bases every time; the
# frames are fixed, not seeded, so the failed share of a run is exact.
UNSATURATED_FRAMES = (
    ((2, -2, -1, 0), (-1, 1, 0, 0), (-1, 2, 2, 0), (-1, -1, 0, 1)),
    ((-1, 1, 0, 2), (0, -1, 1, -1), (1, -2, 1, -2), (-1, -1, 1, 1)),
    ((0, 1, 1, -1), (-2, 2, 1, -1), (2, 0, 1, -2), (-1, 1, 1, -1)),
)


@dataclass
class Op:
    """One unit of benchmark work and what its checks need to know."""

    cls: str
    command: str
    doc: dict
    args: tuple = ()
    expect: dict = field(default_factory=dict)
    path: object = None  # the document on disk, written before timing
    call: object = None  # the direct call of the eigensplit class


# ---------------------------------------------------------------------------
# exact integer helpers


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def unimodular_pair(rng, n, moves=None, coeffs=(-2, -1, 1, 2)):
    """A random integer matrix of determinant 1 and its exact inverse.

    Built from elementary row additions; each one is mirrored on the
    inverse by the opposite column operation.
    """
    u, ui = _identity(n), _identity(n)
    for _ in range(moves or 3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        # row_i += c row_j on u means ui gets column_j -= c column_i
        for row in ui:
            row[j] -= c * row[i]
    return u, ui


def _skew(rng, n, lo=-3, hi=3):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            mat[i][j], mat[j][i] = v, -v
    return mat


def _frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational(rng, num=12, den=7):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


# ---------------------------------------------------------------------------
# certify: m = 1 kinds and m = 2 labels


def _system_doc(m, a_plus, a_minus, d_block, l_pp, l_pm, l_mp, l_mm):
    block = {"m": m, "D": d_block, "l_pp": l_pp, "l_pm": l_pm, "l_mp": l_mp, "l_mm": l_mm}
    if m == 2:
        block["a_plus"], block["a_minus"] = a_plus, a_minus
    return {"system": block}


def _m1_system(rng, kind):
    nz = lambda: rng.choice((-3, -2, -1, 1, 2, 3))  # noqa: E731
    pos = lambda: rng.randint(1, 3)  # noqa: E731
    if kind == "quadrant":
        lpp = lpm = lmp = lmm = 0
    elif kind == "hyperbola":
        lpp = lmm = 0
        lmp = nz()
        lpm = pos() * (1 if lmp > 0 else -1)
    elif kind == "ray":
        lpp, lmm = pos(), -pos()
        if rng.random() < 0.5:
            lpp, lmm = -lpp, -lmm
        lpm = lmp = 0
    else:  # point: lpp lmm < 0 and (lpp lmp)(lpm lmm) < 0
        lpp, lmm = pos(), -pos()
        if rng.random() < 0.5:
            lpp, lmm = -lpp, -lmm
        lmp = nz()
        lpm = pos() * (1 if lpp * lmp * lmm < 0 else -1)
    return _system_doc(1, 0, 0, [[0]], [lpp], [lpm], [lmp], [lmm])


def _bprime(d_block, b_mat):
    p = _matmul(d_block, b_mat)
    return p[0][1] - p[1][0]


def _planted_m2(rng, label):
    """Integer m = 2 system in [-3, 3] with the planted solution b = 1, B.

    The label is fixed by the zero pattern of the rows: L.indep has
    independent leading rows, L.prop proportional nonzero ones (l_pp =
    +-l_mp, entries of l_mp in [-1, 1]), L.mpzero a vanishing l_mp,
    L.ppzero a vanishing l_pp (and a zero Jacobian, see _ppzero_jacobian).  B is an integer matrix with det B > 0, so the
    family is nonempty by construction.
    """
    small = lambda: rng.randint(-3, 3)  # noqa: E731
    while True:
        b_mat = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        det_b = b_mat[0][0] * b_mat[1][1] - b_mat[0][1] * b_mat[1][0]
        if det_b <= 0:
            continue
        d_block = [[small(), small()], [small(), small()]]
        l_pp = [small(), small()]
        l_mp = [small(), small()]
        if label == "L.mpzero":
            l_mp = [0, 0]
        elif label == "L.ppzero":
            l_pp = [0, 0]
        elif label == "L.prop":
            # |l_mp| <= 1 keeps the half-line chart within entries of about
            # 100; at |l_mp| = 3 some certificates fail (see CHANGES.md)
            l_mp = [rng.randint(-1, 1), rng.randint(-1, 1)]
            l_pp = [rng.choice((-1, 1)) * v for v in l_mp]
        rows_det = l_pp[0] * l_mp[1] - l_pp[1] * l_mp[0]
        if label == "L.indep" and rows_det == 0:
            continue
        if label != "L.ppzero" and l_pp == [0, 0]:
            continue
        if label != "L.mpzero" and l_mp == [0, 0]:
            continue
        l_mm = [-v for v in _matmul([l_pp], b_mat)[0]]
        l_pm = _matmul([l_mp], b_mat)[0]
        if label == "L.ppzero" and _ppzero_jacobian(d_block, l_mp, l_pm) != 0:
            continue
        a_plus = small()
        a_minus = a_plus * det_b - _bprime(d_block, b_mat)
        entries = l_mm + l_pm + [a_minus]
        if all(-3 <= v <= 3 for v in entries):
            return _system_doc(2, a_plus, a_minus, d_block, l_pp, l_pm, l_mp, l_mm)


def _ppzero_jacobian(d_block, l_mp, l_pm):
    """The L.ppzero Jacobian of the (b21, b22) chart, times |l_mp|^2.

    In the frame T = [[r1/|r|^2, -r2], [r2/|r|^2, r1]] with r = l_mp that
    sends the row to (1, 0), it is (D T)_12 l_pm[1] - (D T)_22 l_pm[0].
    Nonzero values give the quadrant kind, which is left out of the pool:
    on some seeds its certificate fails to join a connected family.
    """
    (d11, d12), (d21, d22) = d_block
    r1, r2 = l_mp
    return (d12 * r1 - d11 * r2) * l_pm[1] - (d22 * r1 - d21 * r2) * l_pm[0]


def _m2_system(rng, label):
    zero = [0, 0]
    small = lambda: rng.randint(-3, 3)  # noqa: E731
    if label == "L0.D0.region":
        return _system_doc(2, 0, 0, [[0, 0], [0, 0]], zero, zero, zero, zero)
    if label == "L0.D0.quadric":
        a_plus = rng.choice((-3, -2, -1, 1, 2, 3))
        a_minus = rng.randint(1, 3) * (1 if a_plus > 0 else -1)
        return _system_doc(2, a_plus, a_minus, [[0, 0], [0, 0]], zero, zero, zero, zero)
    if label == "L0.Dnz.hypersurface":
        # one-sided: a_plus a_minus <= 0 fixes the sign of a_plus det B -
        # a_minus, so the family is a graph over one side of b' = 0.  The
        # two-sided kind is left out: on some seeds its certificate fails
        # to join the two sides through the stratum.
        while True:
            d_block = [[small(), small()], [small(), small()]]
            a_plus, a_minus = small(), small()
            if any(any(r) for r in d_block) and (a_plus or a_minus) and a_plus * a_minus <= 0:
                return _system_doc(2, a_plus, a_minus, d_block, zero, zero, zero, zero)
    return _planted_m2(rng, label)


def split_signature(d_block):
    """Signature of det B on {b'(B) = 0}, from exact integer arithmetic.

    b'(B) = w . (b11, b12, b21, b22) with w = (-d21, d11, -d22, d12), and
    det B is the quadratic form b11 b22 - b12 b21.  On the hyperplane w = 0
    the restricted form is nondegenerate of signature (1, 2) exactly when
    the dual value q*(w) = w1 w4 - w2 w3 is positive (the hyperplane is the
    q-orthogonal complement of a q-positive vector), (2, 1) when it is
    negative; q* = 0 gives a degenerate restriction.
    """
    (d11, d12), (d21, d22) = d_block
    w = (-d21, d11, -d22, d12)
    if not any(w):
        return None
    dual = w[0] * w[3] - w[1] * w[2]
    if dual > 0:
        return (1, 2)
    if dual < 0:
        return (2, 1)
    return (1, 1)


def split_system(rng):
    """L0.Dnz with a_plus = a_minus = 0, L = 0 and a (1, 2) restriction."""
    zero = [0, 0]
    while True:
        d_block = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if split_signature(d_block) == (1, 2):
            return _system_doc(2, 0, 0, d_block, zero, zero, zero, zero)


CERTIFY_CLASSES = (
    # (class, count per round); m = 1 kinds first, then m = 2 labels.  The
    # m = 1 quadrant, hyperbola and ray certificates cost about the same
    # and fill the middle of the round, so they hold the median op.
    ("m1.quadrant", 3),
    ("m1.hyperbola", 3),
    ("m1.ray", 3),
    ("m1.point", 1),
    ("L0.D0.region", 1),
    ("L0.D0.quadric", 1),
    ("L0.Dnz.hypersurface", 1),
    ("L.indep", 1),
    ("L.prop", 1),
    ("L.mpzero", 1),
    ("L.ppzero", 1),
)
CERTIFY_SAMPLES = 6
# largest witness b kept on the hypersurface class: 100 sampling boxes,
# a factor 20 below the b at which its joins start to fail
WITNESS_B_MAX = 1000.0
SPLIT_SAMPLES = 2


def certify_round(rng, index):
    ops = []
    for cls, count in CERTIFY_CLASSES:
        for _ in range(count):
            if cls.startswith("m1."):
                doc = _m1_system(rng, cls[3:])
            else:
                doc = _m2_system(rng, cls)
            seed = rng.randrange(10**6)
            ops.append(
                Op(
                    cls=cls,
                    command="certify",
                    doc=doc,
                    args=("--samples", str(CERTIFY_SAMPLES), "--seed", str(seed)),
                    expect={"components": 1, "exit": 0},
                )
            )
    return ops


def certify_split_round(rng, index):
    doc = split_system(rng)
    return [
        Op(
            cls="L0.Dnz.stratum",
            command="certify",
            doc=doc,
            args=("--samples", str(SPLIT_SAMPLES), "--seed", str(rng.randrange(10**6))),
            expect={"split": True},
        )
    ]


# ---------------------------------------------------------------------------
# exact checks


def _conjugate_datum(components, s, s_inv, t):
    """Components of the form in the frame x = T x', y = S y'."""
    moved = [_matmul(_matmul(_transpose(t), c), t) for c in components]
    n = len(moved[0])
    return [
        [[sum(s_inv[k][l] * moved[l][i][j] for l in range(len(moved))) for j in range(n)]
         for i in range(n)]
        for k in range(len(moved))
    ]


def _fmat(rows):
    return [[_frac_str(x) for x in row] for row in rows]


def _fvec(v):
    return [_frac_str(x) for x in v]


def _fmatmul(a, b):
    return [[sum((Fraction(a[i][t]) * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _fmatvec(a, v):
    return [sum((Fraction(a[i][j]) * v[j] for j in range(len(v))), Fraction(0))
            for i in range(len(a))]


def _float_conj(j, t, t_inv):
    """T^-1 J T as float rows."""
    return [[float(x) for x in row] for row in _fmatmul(_fmatmul(t_inv, j), t)]


# Passing real structures in their diagonal frame: components, A1, A2 and
# a compatible pair (J1, J2) for which A1 and A2 are antiholomorphic.
_BASES = {
    1: {
        "components": KODAIRA_COMPONENTS,
        "A1": ((-1, 0), (0, 1)),
        "A2": ((1, 0), (0, -1)),
        "J1": STD_J1,
        "J2": STD_J1,
    },
    2: {
        "components": THREE_COMPONENTS,
        "A1": ((-1, 0), (0, 1)),
        "A2": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
        # from the block solution b = 1, B = I of the reduced equations
        "J1": ((0.0, 1.0), (-1.0, 0.0)),
        "J2": ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)),
    },
}


def real_structure_case(rng, m, breaks=None):
    """A real structure in a random unimodular frame, and its document.

    In the diagonal frame the coupling is zero, d2 is zero and d1 has a
    rational part along the -1 eigenspace of A1 (free: the translation
    normalization removes it) and a half-integer part along the +1
    eigenspace.  breaks="I6" moves the +1 part of d1 by 1/3; breaks="I4"
    adds a coupling E with E A2 = -A1 E and entries 1/2, which keeps I7.
    """
    base = _BASES[m]
    n, k = 2 * m, 2
    s, s_inv = unimodular_pair(rng, k, moves=2, coeffs=(-1, 1))
    t, t_inv = unimodular_pair(rng, n, moves=n, coeffs=(-1, 1))
    a1, a2 = base["A1"], base["A2"]
    d1 = [Fraction(0)] * k
    for i in range(k):
        if a1[i][i] == -1:
            d1[i] = _rational(rng)
        else:
            d1[i] = Fraction(rng.randint(-2, 2), 2)
    lmat = [[Fraction(0)] * n for _ in range(k)]
    if breaks == "I6":
        i = next(i for i in range(k) if a1[i][i] == 1)
        d1[i] += Fraction(1, 3)
    elif breaks == "I4":
        i = rng.randrange(k)
        allowed = [j for j in range(n) if a2[j][j] == -a1[i][i]]
        lmat[i][rng.choice(allowed)] = Fraction(1, 2)
    comps = _conjugate_datum(base["components"], s, s_inv, t)
    rs = {
        "A1": _fmatmul(_fmatmul(s_inv, a1), s),
        "A2": _fmatmul(_fmatmul(t_inv, a2), t),
        "L": _fmatmul(_fmatmul(s_inv, lmat), t),
        "d1": _fmatvec(s_inv, d1),
        "d2": [Fraction(0)] * n,
    }
    doc = {
        "m": m,
        "d": 1,
        "components": comps,
        "real_structure": {
            "A1": [[int(x) for x in row] for row in rs["A1"]],
            "A2": [[int(x) for x in row] for row in rs["A2"]],
            "L": _fmat(rs["L"]),
            "d1": _fvec(rs["d1"]),
            "d2": _fvec(rs["d2"]),
        },
        "J1": _float_conj(base["J1"], s, s_inv),
        "J2": _float_conj(base["J2"], t, t_inv),
    }
    return doc


def random_involution(rng, n):
    """U diag(signs) U^-1 for a random unimodular U, as integer rows."""
    u, u_inv = unimodular_pair(rng, n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    diag = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return [[int(x) for x in row] for row in _fmatmul(_fmatmul(u, diag), u_inv)]


def reconstruct_doc(rng, m):
    """Random rational structure on the base bundle, as in criterion 5."""
    comps = _BASES[m]["components"]
    n, k = 2 * m, 2
    return {
        "m": m,
        "d": 1,
        "components": [[list(r) for r in c] for c in comps],
        "real_structure": {
            "A1": random_involution(rng, k),
            "A2": random_involution(rng, n),
            "L": [[_frac_str(_rational(rng)) for _ in range(n)] for _ in range(k)],
            "d1": [_frac_str(_rational(rng)) for _ in range(k)],
            "d2": [_frac_str(_rational(rng)) for _ in range(n)],
        },
    }


def decompose_doc(rng, m):
    """A compatible pair, as in criterion 7.

    m = 1: any form with conjugates of the standard structures (every pair
    is compatible there).  m = 2: the standard m = 2 form moved by integer
    frame changes, with the standard pair transported along.
    """
    if m == 1:
        comps = [_skew(rng, 2), _skew(rng, 2)]
        j1 = _float_frame(rng, STD_J1)
        j2 = _float_frame(rng, STD_J1)
    else:
        om4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
        zero4 = tuple((0,) * 4 for _ in range(4))
        s, s_inv = unimodular_pair(rng, 2, moves=2, coeffs=(-1, 1))
        t, t_inv = unimodular_pair(rng, 4, moves=4, coeffs=(-1, 1))
        comps = _conjugate_datum((om4, zero4), s, s_inv, t)
        j1 = _float_conj(STD_J1, s, s_inv)
        std2 = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
        j2 = _float_conj(std2, t, t_inv)
    return {"m": m, "d": 1, "components": comps, "J1": j1, "J2": j2}


def _float_frame(rng, j):
    """T J T^-1 for T = I + 0.3 U(-1, 1), in floats."""
    t = [[float(i == c) + 0.3 * rng.uniform(-1.0, 1.0) for c in range(2)] for i in range(2)]
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    t_inv = [[t[1][1] / det, -t[0][1] / det], [-t[1][0] / det, t[0][0] / det]]
    tj = [[sum(t[i][x] * j[x][c] for x in range(2)) for c in range(2)] for i in range(2)]
    return [[sum(tj[i][x] * t_inv[x][c] for x in range(2)) for c in range(2)] for i in range(2)]


def bundle_doc(rng, m):
    return {"m": m, "d": 1, "components": [_skew(rng, 2 * m), _skew(rng, 2 * m)]}


def echelon_integral(mat):
    """Whether both eigenspaces of an integer involution have an integral
    reduced echelon kernel basis (then per-vector scaling is exact)."""
    n = len(mat)
    for sign in (1, -1):
        shifted = [[Fraction(mat[i][j] - (sign if i == j else 0)) for j in range(n)]
                   for i in range(n)]
        rows, pivots = rref(shifted)
        for r, _ in enumerate(pivots):
            if any(x.denominator != 1 for x in rows[r]):
                return False
    return True


def _inverse(t):
    n = len(t)
    rows, _ = rref([[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
                     for i, row in enumerate(t)])
    return [[int(x) for x in row[n:]] for row in rows]


def eigensplit_case(t):
    """THREE moved to the base frame T: A2 = T^-1 diag(1, 1, -1, -1) T."""
    base = _BASES[2]
    t_inv = _inverse(t)
    comps = _conjugate_datum(base["components"], _identity(2), _identity(2), t)
    a2 = [[int(x) for x in row] for row in _fmatmul(_fmatmul(t_inv, base["A2"]), t)]
    return {
        "m": 2,
        "d": 1,
        "components": comps,
        "real_structure": {
            "A1": [list(r) for r in base["A1"]],
            "A2": a2,
            "L": [[0] * 4, [0] * 4],
            "d1": [0, 0],
            "d2": [0] * 4,
        },
    }


def seeded_eigensplit_case(rng):
    while True:
        t, _ = unimodular_pair(rng, 4, coeffs=(-2, -1, 0, 1, 2))
        doc = eigensplit_case(t)
        if echelon_integral(doc["real_structure"]["A2"]):
            return doc


EXACT_CLASSES = (
    # (class, count per round).  Sorted by cost, eight cheaper ops (m = 2, 3
    # bundles, reconstruct and decompose at m = 1 and 2) sit below the six
    # check-real m = 1 ops and eight dearer ones above, so the median op is
    # a check-real m = 1 op.
    ("check-bundle.m2", 1),
    ("check-bundle.m3", 1),
    ("check-bundle.m4", 1),
    ("check-bundle.m5", 1),
    ("check-real.m1.pass", 2),
    ("check-real.m1.I6", 2),
    ("check-real.m1.I4", 2),
    ("check-real.m2.pass", 1),
    ("check-real.m2.I6", 1),
    ("check-real.m2.I4", 1),
    ("reconstruct.m1", 2),
    ("reconstruct.m2", 1),
    ("decompose.m1", 2),
    ("decompose.m2", 2),
    ("eigensplit.seeded", 1),
    ("eigensplit.unsaturated", 1),
)


def exact_round(rng, index):
    ops = []
    for cls, count in EXACT_CLASSES:
        parts = cls.split(".")
        for _ in range(count):
            if parts[0] == "check-bundle":
                ops.append(Op(cls, "check-bundle", bundle_doc(rng, int(parts[1][1:]))))
            elif parts[0] == "check-real":
                breaks = None if parts[2] == "pass" else parts[2]
                doc = real_structure_case(rng, int(parts[1][1:]), breaks)
                ops.append(Op(cls, "check-real", doc, expect={"breaks": [breaks] if breaks else []}))
            elif parts[0] == "reconstruct":
                ops.append(Op(cls, "reconstruct", reconstruct_doc(rng, int(parts[1][1:]))))
            elif parts[0] == "decompose":
                ops.append(Op(cls, "decompose", decompose_doc(rng, int(parts[1][1:]))))
            elif parts[1] == "seeded":
                ops.append(Op(cls, "eigensplit", seeded_eigensplit_case(rng)))
            else:
                frame = UNSATURATED_FRAMES[index % len(UNSATURATED_FRAMES)]
                ops.append(Op(cls, "eigensplit", eigensplit_case(frame), expect={"fault": True}))
    return ops
