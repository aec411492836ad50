"""Solution families: case labels, shapes, witnesses, paths, certificates."""

import itertools
import json
import logging
import re
from fractions import Fraction

import numpy as np
import pytest

import torusbundles.solver_explorer as se
from torusbundles.cli import main
from torusbundles.lattice_core import BundleDatum
from torusbundles.real_structures import (
    CompatibleStructure,
    RealStructureData,
    antiholomorphy_residual,
    eigensplit,
    rbr2_residual,
)
from _oracles import (
    eager_connect,
    family_contains,
    float_nappe_sign,
    float_restricted_signature,
    kodaira_equations,
    quadric_size,
    residual_pair_numpy,
    threefold_equations,
    vertex_failure_numpy,
)
from torusbundles.solver_explorer import (
    PATH_TOL,
    WITNESS_TOL,
    ConstraintSystem,
    classify_case,
    connect,
    connectivity_certificate,
    sample_solutions,
    solve,
    solve_kodaira,
    solve_threefold,
)

J2 = ((0, 1), (-1, 0))
Z2 = ((0, 0), (0, 0))
KODAIRA = BundleDatum(m=1, d=1, components=(J2, Z2))
RS_KOD = RealStructureData(
    A1=((-1, 0), (0, 1)),
    A2=((1, 0), (0, -1)),
    L=Z2,
    d1=(0, 0),
    d2=(0, 0),
)

COMP0 = ((0, 0, -1, -1), (0, 0, 0, -1), (1, 0, 0, 0), (1, 1, 0, 0))
COMP1 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 2), (0, 0, -2, 0))
THREE = BundleDatum(m=2, d=1, components=(COMP0, COMP1))
RS_THREE = RealStructureData(
    A1=((-1, 0), (0, 1)),
    A2=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    L=tuple((0,) * 4 for _ in range(2)),
    d1=(0, 0),
    d2=(0, 0, 0, 0),
)


def kod(l_pp, l_pm, l_mp, l_mm):
    return ConstraintSystem.from_blocks(
        1, 0.0, 0.0, [[0.0]], [l_pp], [l_pm], [l_mp], [l_mm])


def three(a_plus, a_minus, D, l_pp, l_pm, l_mp, l_mm):
    return ConstraintSystem.from_blocks(
        2, a_plus, a_minus, D, l_pp, l_pm, l_mp, l_mm)


ZL = [0.0, 0.0]


def check_witnesses(desc):
    assert desc.witnesses, "nonempty description carries witnesses"
    for w in desc.witnesses:
        anti, quad = w.residuals
        assert w.b > se.REGION_TOL and se._det2(w.b_matrix) > se.REGION_TOL
        assert anti <= 1e-9 and quad <= 1e-9 * quadric_size(desc.system, w.b, w.b_matrix)


# ---------------------------------------------------------------------------
# construction


def test_from_blocks_validation():
    with pytest.raises(ValueError, match="dimension 1 or 2"):
        ConstraintSystem.from_blocks(3, 0, 0, np.eye(3), [0] * 3, [0] * 3,
                                     [0] * 3, [0] * 3)
    with pytest.raises(ValueError, match="antisymmetric 1x1 blocks"):
        ConstraintSystem.from_blocks(1, 1.0, 0.0, [[0.0]], [0], [0], [0], [0])
    with pytest.raises(ValueError, match="D must be"):
        ConstraintSystem.from_blocks(1, 0, 0, np.eye(2), [0], [0], [0], [0])
    with pytest.raises(ValueError, match="l_pm must have length"):
        ConstraintSystem.from_blocks(2, 0, 0, np.eye(2), ZL, [0], ZL, ZL)


def test_from_split_kodaira():
    cs = ConstraintSystem.from_split(eigensplit(KODAIRA, RS_KOD))
    assert cs.m == 1
    assert cs.D.tolist() == [[-1.0]]
    assert np.abs(np.concatenate([cs.l_pp, cs.l_pm, cs.l_mp, cs.l_mm])).max() == 0
    assert solve(cs).kind == "quadrant"


def test_dispatch_checks_dimension():
    with pytest.raises(ValueError, match="dimension 1"):
        solve_kodaira(three(1.0, 1.0, np.eye(2), ZL, ZL, ZL, ZL))
    with pytest.raises(ValueError, match="dimension 2"):
        solve_threefold(kod(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# one-dimensional base


def test_kodaira_quadrant():
    desc = solve(kod(0, 0, 0, 0))
    assert desc.kind == "quadrant"
    assert desc.dimension == 2
    check_witnesses(desc)
    assert family_contains(desc, 0.3, [[7.5]])


def test_kodaira_sign_clash_empty():
    desc = solve(kod(1, 1, -1, 1))
    assert desc.is_empty
    assert desc.witnesses == ()
    assert desc.notes


def test_kodaira_hyperbola():
    desc = solve(kod(0, 2, 1, 0))
    assert desc.kind == "hyperbola"
    assert desc.dimension == 1
    assert desc.constants["kappa"] == 2.0
    check_witnesses(desc)
    for w in desc.witnesses:
        assert w.b * w.b_matrix[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert family_contains(desc, 4.0, [[0.5]])
    assert not family_contains(desc, 1.0, [[1.0]])


def test_kodaira_hyperbola_beyond_box():
    # kappa = 101 > _BOX^2: b1 b2 = kappa has no point with both in (0, 10]
    cs = kod(0, 101, 1, 0)
    desc = solve(cs)
    assert desc.kind == "hyperbola"
    check_witnesses(desc)
    assert connectivity_certificate(cs, samples=6, seed=0).component_count == 1


def test_kodaira_ray():
    desc = solve(kod(-1, 0, 0, 1))
    assert desc.kind == "ray"
    assert desc.constants["slope"] == 1.0
    check_witnesses(desc)
    for w in desc.witnesses:
        assert w.b == pytest.approx(w.b_matrix[0, 0], abs=1e-12)


def test_kodaira_point():
    desc = solve(kod(-1, 1, 1, 1))
    assert desc.kind == "point"
    assert desc.dimension == 0
    assert desc.constants["b2"] == pytest.approx(1.0, abs=1e-14)
    assert desc.constants["slope"] == 1.0
    check_witnesses(desc)
    assert family_contains(desc, 1.0, [[1.0]])
    assert not family_contains(desc, 2.0, [[2.0]])


def test_kodaira_inconsistent_point_empty():
    # both products nonzero with equal signs leaves no positive root
    assert solve(kod(-1, -1, 1, 1)).is_empty
    # second equation alone is inconsistent
    assert solve(kod(0, 1, 0, 0)).is_empty


# ---------------------------------------------------------------------------
# two-dimensional base, decoupled determinant equation


def test_quadric_family():
    desc = solve(three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL))
    assert desc.case_label == "L0.D0"
    assert desc.kind == "quadric"
    assert desc.dimension == 3
    assert desc.b_free
    assert family_contains(desc, 1.0, np.eye(2))
    check_witnesses(desc)
    for w in desc.witnesses:
        assert np.linalg.det(w.b_matrix) == pytest.approx(1.0, abs=1e-9)


def test_quadric_with_small_a_plus():
    # a_plus = 1 is tiny against a_minus = 1e10, but it is not zero.  A
    # witness's quadric residual is judged against a_plus det B = 1e10, so
    # the 1.9e-6 that rounding det B alone can leave is accepted
    desc = solve(three(1.0, 1e10, np.zeros((2, 2)), ZL, ZL, ZL, ZL))
    assert desc.kind == "quadric"
    check_witnesses(desc)


def test_quadric_sign_empty():
    assert solve(three(1.0, -1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)).is_empty


def test_unconstrained_region():
    desc = solve(three(0.0, 0.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL))
    assert desc.kind == "region"
    assert desc.dimension == 4
    assert desc.b_free
    check_witnesses(desc)


def test_hypersurface_from_split():
    cs = ConstraintSystem.from_split(eigensplit(THREE, RS_THREE))
    assert cs.m == 2
    assert (cs.a_plus, cs.a_minus) == (-1.0, -2.0)
    assert cs.D.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    desc = solve(cs)
    assert desc.case_label == "L0.Dnz"
    assert desc.kind == "hypersurface"
    assert desc.dimension == 3
    check_witnesses(desc)


def test_degenerate_stratum_splits():
    desc = solve(three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL))
    assert desc.kind == "stratum"
    assert desc.constants["restricted_signature"] == (1, 2)
    assert desc.constants["stratum_components"] == 2
    assert any("two connected components" in n for n in desc.notes)
    check_witnesses(desc)


def test_restricted_signature_exact_and_float_agree():
    # every nonzero D in [-3, 3]^4: the exact rule on q*(w) = det D against
    # the eigenvalues of the restricted Gram matrix; v is in ker b', det v > 0
    for entries in itertools.product(range(-3, 4), repeat=4):
        if not any(entries):
            continue
        d_block = np.array(entries, dtype=float).reshape(2, 2)
        sys = three(0.0, 0.0, d_block, ZL, ZL, ZL, ZL)
        assert se._restricted_signature(sys) == float_restricted_signature(d_block), entries
        v11, v12, v21, v22 = se._nappe_vector(sys)
        d11, d12, d21, d22 = entries
        assert -d21 * v11 + d11 * v12 - d22 * v21 + d12 * v22 == 0
        assert v11 * v22 - v12 * v21 > 0


@pytest.mark.parametrize("d_block, signature", [
    ([[1, 0], [0, 0]], (1, 1)),
    ([[2, 4], [1, 2]], (1, 1)),
    ([[10**6, 2 * 10**6], [5 * 10**5, 10**6]], (1, 1)),
    ([[10**6, 3], [-2, 10**6 + 1]], (1, 2)),
    ([[10**6, 10**6 + 1], [10**6 + 1, 10**6]], (2, 1)),
    # det D = +-1 against |w|^2 of about 4e12: the float rule of the
    # restricted Gram matrix calls both degenerate, (1, 1)
    ([[10**6, 999999], [10**6 + 1, 10**6]], (1, 2)),
    ([[10**6, 10**6 + 1], [10**6 + 1, 10**6 + 2]], (2, 1)),
])
def test_restricted_signature_degenerate_and_large(d_block, signature):
    desc = solve(three(0.0, 0.0, d_block, ZL, ZL, ZL, ZL))
    assert desc.kind == "stratum"
    assert desc.constants["restricted_signature"] == signature
    assert desc.constants["stratum_components"] == (1 if signature == (2, 1) else 2)
    assert ("nappe_vector" in desc.constants) == (signature != (2, 1))
    check_witnesses(desc)


def test_independent_rows_point():
    desc = solve(three(-1.0, 2.0, [[0, 0], [1, 0]],
                       [1, 0], [0, 2], [0, 1], [-1, 0]))
    assert desc.case_label == "L.indep"
    assert desc.kind == "point"
    assert desc.dimension == 0
    assert not desc.b_free
    assert desc.constants["alpha"] == pytest.approx(2.0, abs=1e-14)
    assert desc.constants["bhat"] == pytest.approx(2.0, abs=1e-12)
    w = desc.witnesses[0]
    assert w.b == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(w.b_matrix, np.diag([2.0, 1.0]), atol=1e-12)
    assert w.residuals == (0.0, 0.0)


def test_forced_determinant_empty():
    desc = solve(three(-1.0, 2.0, [[0, 0], [1, 0]],
                       [1, 0], [0, -2], [0, 1], [-1, 0]))
    assert desc.case_label == "L.indep"
    assert desc.is_empty


def test_proportional_rows_halfline():
    desc = solve(three(1.0, 7.0, [[0, 1], [1, 0]],
                       [2, 0], [3, 0], [1, 0], [-6, 0]))
    assert desc.case_label == "L.prop"
    assert desc.kind == "half-line"
    assert desc.dimension == 1
    assert desc.constants["bhat"] == pytest.approx(1.0, abs=1e-12)
    check_witnesses(desc)
    for w in desc.witnesses:
        assert w.b == pytest.approx(1.0, abs=1e-12)


def test_mixed_row_vanishing_quadrant():
    desc = solve(three(1.0, 1.0, np.eye(2), [1, 1], ZL, ZL, [1, 0]))
    assert desc.case_label == "L.mpzero"
    assert desc.kind == "quadrant"
    assert desc.dimension == 1
    assert desc.b_free
    check_witnesses(desc)


def test_plus_row_vanishing_quadrant():
    desc = solve(three(1.0, 1.0, [[1, 2], [0, 1]], ZL, [1, 1], [1, 0], ZL))
    assert desc.case_label == "L.ppzero"
    assert desc.kind == "quadrant"
    assert desc.dimension == 1
    assert desc.b_free
    check_witnesses(desc)


def test_lone_row_empty():
    desc = solve(three(1.0, 1.0, np.eye(2), ZL, [1, 0], ZL, ZL))
    assert desc.case_label == "L.rowszero"
    assert desc.is_empty


def test_case_constants_exposed():
    info = classify_case(three(-1.0, 2.0, [[0, 0], [1, 0]],
                               [1, 0], [0, 2], [0, 1], [-1, 0]))
    assert info.label == "L.indep"
    assert info.constants["alpha"] == pytest.approx(2.0)
    info = classify_case(three(1.0, 7.0, [[0, 1], [1, 0]],
                               [2, 0], [3, 0], [1, 0], [-6, 0]))
    assert info.label == "L.prop"
    assert info.constants["beta"] == pytest.approx(2.0)


def test_decimal_proportional_rows_stay_prop():
    # 0.1 and 0.3 are read as 1/10 and 3/10, so det_rows is exactly 0; on
    # their binary fractions it is 2^-55, an L.indep family of entries near
    # 1e16 with no verifiable witness
    desc = solve(three(1.0, 1.0, np.zeros((2, 2)), [0.1, 0.3], [1, 3], [1, 3], [-0.1, -0.3]))
    assert (desc.case_label, desc.kind) == ("L.prop", "half-line")
    assert len(desc.witnesses) == 3
    check_witnesses(desc)


def _seeded_systems(seed, count=300):
    """Integer systems in [-3, 3], one per (m, label, kind) a seeded search meets.

    A drawn zero pattern of the rows brings up every label, and half of the
    systems are planted on the solution b = 1 and an integer B with det B > 0.
    """
    rng = np.random.default_rng(seed)
    found = {}
    for _ in range(count):
        m = int(rng.integers(1, 3))

        def ints(*shape):
            return (rng.integers(-3, 4, size=shape) * (rng.random(shape) < 0.8)).astype(object)

        a_plus, a_minus = ints(2) if m == 2 else (0, 0)
        d_block = ints(m, m)
        l_pp, l_pm, l_mp, l_mm = ints(4, m)
        pattern = rng.integers(0, 5)
        if pattern == 1:
            l_mp = 0 * l_mp
        elif pattern == 2:
            l_pp = 0 * l_pp
        elif pattern == 3:
            l_pp = rng.integers(-2, 3) * l_mp
        elif pattern == 4:
            l_pp, l_mp = 0 * l_pp, 0 * l_mp
            if rng.random() < 0.5:
                l_pm, l_mm = 0 * l_pm, 0 * l_mm
                d_block = d_block * (rng.random() < 0.5)
        b_mat = rng.integers(-2, 3, size=(m, m)).astype(object)
        if pattern != 4 and rng.random() < 0.5 and np.linalg.det(b_mat.astype(float)) > 0.5:
            l_mm, l_pm = -l_pp @ b_mat, l_mp @ b_mat
            if m == 2:
                (b11, b12), (b21, b22) = b_mat
                (d11, d12), (d21, d22) = d_block
                bprime = d11 * b12 + d12 * b22 - d21 * b11 - d22 * b21
                a_minus = a_plus * (b11 * b22 - b12 * b21) - bprime
        rows = (r.tolist() for r in (l_pp, l_pm, l_mp, l_mm))
        blocks = (m, a_plus, a_minus, d_block.tolist(), *rows)
        desc = solve(ConstraintSystem.from_blocks(*blocks))
        found.setdefault((m, desc.case_label, desc.kind), blocks)
    return found


def _scaled(blocks, j, k):
    """The system with its l-rows times 10^j and (a_plus, a_minus, D) times 10^k."""
    m, a_plus, a_minus, d_block, *rows = blocks
    rf, af = Fraction(10) ** j, Fraction(10) ** k
    return ConstraintSystem.from_blocks(m, a_plus * af, a_minus * af,
                                        [[x * af for x in row] for row in d_block],
                                        *([x * rf for x in row] for row in rows))


def test_case_tree_is_scale_invariant():
    # both scalings leave the solution set as it is; a tolerance relative
    # to the largest entry moved an integer L.indep system to L0.Dnz at
    # j = -11 and to L.prop at j = k = -6
    found = _seeded_systems(11)
    assert {label for m, label, _ in found if m == 2} == {
        "L0.D0", "L0.Dnz", "L.rowszero", "L.indep", "L.prop", "L.mpzero", "L.ppzero"}
    assert {kind for m, _, kind in found if m == 1} == {
        "quadrant", "hyperbola", "ray", "point", "empty"}
    for (m, label, kind), blocks in found.items():
        for j, k in itertools.product((0, -6, -11), repeat=2):
            desc = solve(_scaled(blocks, j, k))
            assert (desc.case_label, desc.kind) == (label, kind), (blocks, j, k)
            assert desc.is_empty == (kind == "empty")
            if not desc.is_empty:
                check_witnesses(desc)


# ---------------------------------------------------------------------------
# vertex residuals


def _oracle_systems(rng):
    """Systems from raw blocks (m = 1, 2) and from exact eigensplits."""
    def ints(*shape):
        return rng.integers(-3, 4, size=shape).astype(float)

    systems = [kod(*ints(4)) for _ in range(6)]
    systems += [three(*ints(2), ints(2, 2), *ints(4, 2)) for _ in range(6)]
    systems += [kod(0.0, 1.0, 1.0, 0.0), three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)]
    rs_kod = RealStructureData(A1=RS_KOD.A1, A2=RS_KOD.A2, L=(("3/2", 0), (0, "-5/2")),
                               d1=(0, "1/2"), d2=("1/2", 0))
    rs_three = RealStructureData(A1=RS_THREE.A1, A2=RS_THREE.A2,
                                 L=((0, 0, "1/2", "3/2"), (-1, "1/2", 0, 0)),
                                 d1=(0, 0), d2=(0, 0, 0, 0))
    for datum, rs in ((KODAIRA, RS_KOD), (KODAIRA, rs_kod), (THREE, RS_THREE), (THREE, rs_three)):
        systems.append(ConstraintSystem.from_split(eigensplit(datum, rs)))
    return systems


def test_residual_pair_matches_block_operator_oracle():
    rng = np.random.default_rng(7)
    decisions = []
    for sys in _oracle_systems(rng):
        points = []
        if not solve(sys).is_empty:
            for w in sample_solutions(sys, 4, seed=1):
                points.append((w.b, w.b_matrix))
                points.append((w.b * 1.01, w.b_matrix + 1e-3 * rng.normal(size=w.b_matrix.shape)))
        for _ in range(6):
            points.append((rng.uniform(-5.0, 5.0), 3.0 * rng.normal(size=(sys.m, sys.m))))
        for b, b_mat in points:
            got = sys.residual_pair(b, b_mat)
            cs = CompatibleStructure(B1=[[b]], B2=b_mat)
            want = (antiholomorphy_residual(sys.split, cs), rbr2_residual(sys.split, cs))
            inv = np.linalg.inv(b_mat)
            size = max(1.0, np.abs(b_mat).sum(1).max(), np.abs(inv).sum(1).max())
            blocks = np.concatenate([[sys.a_plus, sys.a_minus], sys.D.ravel(),
                                     sys.l_pp, sys.l_pm, sys.l_mp, sys.l_mm])
            scale = max(1.0, np.abs(blocks).max()) * max(1.0, abs(b), 1.0 / abs(b)) * size ** 2
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * (1.0 + scale), (sys, b, b_mat)
            for tol in (PATH_TOL, WITNESS_TOL):
                assert (max(got) <= tol) == (max(want) <= tol)
            decisions.append(max(want) <= WITNESS_TOL)
    assert sum(decisions) >= 20 and decisions.count(False) >= 20


# an L.ppzero certificate witness with det B = 0.0177: the float difference
# p s - q r moves the l_pm B^-1 route by about 1e-11
PPZERO = three(0.0, -2.0, [[0.0, -2.0], [0.0, -1.0]], ZL, [2.0, 1.0], [-2.0, 3.0], ZL)
PPZERO_WITNESS = (7.52072524638187, np.array([[-22.243717196503706, -11.321307448044847],
                                              [-14.740500864427807, -7.503216332075899]]))


def test_residual_pair_exact_on_nearly_singular_block():
    sys, (b, b_mat) = PPZERO, PPZERO_WITNESS
    (p, q), (r, s) = [[Fraction(x) for x in row] for row in b_mat.tolist()]
    det = p * s - q * r
    inv_cols = ((s / det, -r / det), (-q / det, p / det))
    exact = max(abs(2 * c0 + c1 - Fraction(b) * l) for (c0, c1), l in zip(inv_cols, (-2, 3)))
    got, _ = sys.residual_pair(b, b_mat)
    assert abs(got - float(exact)) <= 1e-13


def test_residual_pair_singular_blocks_raise():
    for sys in (kod(1.0, 2.0, 1.0, -1.0), three(1.0, 2.0, np.eye(2), ZL, ZL, ZL, ZL)):
        eye = np.eye(sys.m)
        with pytest.raises(ValueError, match="B1 is singular"):
            sys.residual_pair(0.0, eye)
        singular = np.zeros((1, 1)) if sys.m == 1 else np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError, match="B2 is singular"):
            sys.residual_pair(1.0, singular)
        with pytest.raises(ValueError, match="B2 is singular"):
            CompatibleStructure(B1=[[1.0]], B2=singular)


def test_point_check_rejects_a_block_that_residual_pair_refuses():
    # p s - q r rounds to 2^-29 > REGION_TOL, yet the exact det B is 2^-51
    p, q, r, s = 3.479820653796196, 0.48702676594257355, 27623265.95844774, 3866081.394119546
    assert p * s - q * r > se.REGION_TOL and abs(se._det2_rounded(p, q, r, s)) < 1e-14
    sys = three(1.0, 2.0, np.eye(2), ZL, ZL, ZL, ZL)
    with pytest.raises(ValueError, match="B2 is singular"):
        sys.residual_pair(1.0, [[p, q], [r, s]])
    for tol in (PATH_TOL, WITNESS_TOL):
        why, res = se._vertex_failure(sys, [1.0, p, q, r, s], tol)
        assert why.endswith("leave the region") and res is None


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# the seed-425 system of a mixed-scale sweep, whose witness draws are
# ill-conditioned: max(1, |b|) max(1, |1/b|) max(1, |B|) max(1, |B^-1|)
# reaches about 1e11
SEED_425 = three(0, -97.91245074184081, [[-59245.05273081512, 2.1023785444008034], [0, 0]], ZL,
                 [-0.028305162999240584, 8.087443989392735], [-43659.10878745891, -87494.87335902329], ZL)


def test_point_checks_match_the_numpy_oracle_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []  # (system, b, B)
    for sys in _oracle_systems(rng):  # m = 1 and m = 2, raw blocks and eigensplits
        if not solve(sys).is_empty:
            for w in sample_solutions(sys, 4, seed=2):
                cases.append((sys, w.b, w.b_matrix))
                cases.append((sys, w.b, w.b_matrix * (1.0 + 1e-6)))
                cases.append((sys, w.b * 1.01, w.b_matrix + 1e-3 * rng.normal(size=w.b_matrix.shape)))
        for _ in range(6):
            cases.append((sys, rng.uniform(-5.0, 5.0), 3.0 * rng.normal(size=(sys.m, sys.m))))
    cases.append((PPZERO, *PPZERO_WITNESS))
    full = three(1.0, 2.0, [[1.0, 2.0], [3.0, 4.0]], [1.0, 0.5], [0.0, 1.0], [2.0, 0.0], [0.5, 1.0])
    for big in (1e151, 1e160):  # p s - q r beyond 1e300: the float difference is kept
        cases.append((full, 2.0, np.array([[big, 3.0], [5.0, big]])))
    for sys in (kod(1.0, 2.0, 1.0, -1.0), full):  # singular b, then singular B
        cases += [(sys, 0.0, np.eye(sys.m)), (sys, 1.0, np.zeros((sys.m, sys.m)))]
    cases.append((full, 1.0, np.array([[1.0, 2.0], [2.0, 4.0]])))
    seen = []  # every draw solve's witness search checks
    check = se._vertex_failure
    with monkeypatch.context() as patch:
        patch.setattr(se, "_vertex_failure",
                      lambda sys, x, *tol: seen.append((sys, *sys.unpack(x))) or check(sys, x, *tol))
        solve(SEED_425)
    cases += seen
    errors, failures = set(), set()
    for sys, b, b_mat in cases:
        want = _outcome(residual_pair_numpy, sys, b, b_mat)
        assert _outcome(sys.residual_pair, b, b_mat) == want
        assert _outcome(sys.residual_pair, b, np.asarray(b_mat).tolist()) == want
        if isinstance(want[0], type):
            errors.add((want[0], want[1].split(":")[0]))
        x = sys.pack(b, b_mat)
        for tol in (PATH_TOL, WITNESS_TOL):
            want = _outcome(vertex_failure_numpy, sys, x, tol)
            assert _outcome(se._vertex_failure, sys, x, tol) == want
            assert _outcome(se._vertex_failure, sys, x.tolist(), tol) == want
            failures.add(want[0].split(" ")[0] if isinstance(want[0], str) else want[0])
    assert errors == {(ValueError, "B1 is singular"), (ValueError, "B2 is singular")}
    assert {None, "b", "antiholomorphy", "block"} <= failures  # the region, then each residual


# ---------------------------------------------------------------------------
# sampling


def test_sampling_deterministic():
    cs = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    a = sample_solutions(cs, 6, seed=3)
    b = sample_solutions(cs, 6, seed=3)
    assert len(a) == 6
    assert all(np.array_equal(x.position(), y.position()) for x, y in zip(a, b))
    c = sample_solutions(cs, 6, seed=4)
    assert any(not np.array_equal(x.position(), y.position())
               for x, y in zip(a, c))


def test_draws_stops_at_want():
    calls = []
    found = se._draws(lambda rng: calls.append(1) or rng.uniform(), 3, 4, 100, lambda x: x)
    assert len(found) == 4 and len(calls) == 4


def test_draws_counts_a_rejected_draw_as_a_try():
    calls = []

    def every_other(rng):
        calls.append(1)
        return None if len(calls) % 2 else rng.uniform()

    assert len(se._draws(every_other, 0, 10, 7, lambda x: x)) == 3
    assert len(calls) == 7


def test_draws_matches_a_hand_written_loop():
    def draw(rng):
        x = rng.uniform(-1.0, 1.0)
        return None if x < -0.5 else x

    def keep(x):
        return 2 * x if x < 0.6 else None

    rng = np.random.default_rng(13)
    expected = []
    for _ in range(40):
        if len(expected) >= 9:
            break
        x = draw(rng)
        if x is not None and keep(x) is not None:
            expected.append(keep(x))
    assert se._draws(draw, 13, 9, 40, keep) == expected
    assert len(expected) == 9


def test_sampling_empty_family_raises():
    with pytest.raises(ValueError, match="empty solution family"):
        sample_solutions(kod(1, 1, -1, 1), 3)


def test_rejected_witness_draws_are_logged_with_the_reason(caplog):
    sys = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)  # the quadric det B = 1
    desc = solve(sys)
    draws = iter([(1.0, np.diag([1.0, -1.0])), (2.0, 2.0 * np.eye(2)), None, (0.5, np.eye(2))])
    desc._draw = lambda rng: next(draws)
    with caplog.at_level(logging.DEBUG, logger=se.__name__):
        got = sample_solutions(sys, 1, seed=0)
    assert [w.b for w in got] == [0.5]
    assert [r.getMessage() for r in caplog.records] == [
        "rejected witness draw at b=1.0: b = 1 and det B = -1 leave the region",
        "rejected witness draw at b=2.0: block quadric residual 3 exceeds 1e-09 x 4",
    ]


def test_hypersurface_b_is_the_unfused_graph_value():
    # b'(B) is summed one float operation at a time, so the b of a witness
    # and of a graph-leg vertex does not depend on whether the BLAS build
    # fuses multiply-adds
    sys = three(2.0, -1.0, [[1.0, -2.0], [3.0, 1.0]], ZL, ZL, ZL, ZL)  # one side of b' = 0
    assert solve(sys).kind == "hypersurface"
    (d11, d12), (d21, d22) = sys.D.tolist()

    def graph_b(x):
        p, q, r, s = x[1:]
        return (sys.a_plus * (p * s - q * r) - sys.a_minus) / (d11 * q + d12 * s - d21 * p - d22 * r)

    positions = [w.position().tolist() for w in sample_solutions(sys, 12, seed=5)]
    assert len(positions) == 12
    assert all(x[0] == graph_b(x) for x in positions)
    vertices = [leg(t).tolist() for x0, x1 in itertools.combinations(positions, 2)
                for leg in [se._graph_leg(sys, np.array(x0), np.array(x1))] for t in se._GRID[1:-1]]
    assert len(vertices) == 66 * 7 and all(x[0] == graph_b(x) for x in vertices)


# ---------------------------------------------------------------------------
# continuation paths


def test_connect_identical_points():
    cs = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    w = sample_solutions(cs, 1, seed=0)[0]
    path = connect(w, w, cs)
    assert path.success
    assert len(path.points) == 1


def test_connect_on_quadric():
    cs = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    p = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
    q = np.array([1.0, 2.0, 0.0, 0.0, 0.5])
    path = connect(p, q, cs)
    assert path.success
    assert np.allclose(path.points[0], p, atol=1e-8)
    assert np.allclose(path.points[-1], q, atol=1e-8)
    desc = solve(cs)
    for vertex in path.points:
        b, b_mat = cs.unpack(np.array(vertex))
        assert family_contains(desc, b, b_mat)


def test_connect_across_coupling_sign():
    # the graph family has two symmetric lobes joined through the locus
    # where the coupling form vanishes; paths must thread that locus
    cs = three(1.0, 2.0, [[1, 1], [0, 1]], ZL, ZL, ZL, ZL)
    ws = sample_solutions(cs, 10, seed=4)

    def coupling(w):
        B = w.b_matrix
        return B[0, 1] - B[1, 0] + B[1, 1]

    pos = next(w for w in ws if coupling(w) > 0)
    neg = next(w for w in ws if coupling(w) < 0)
    path = connect(pos, neg, cs)
    assert path.success
    desc = solve(cs)
    for vertex in path.points:
        b, b_mat = cs.unpack(np.array(vertex))
        assert family_contains(desc, b, b_mat)


def test_connect_rejects_nonsolution_endpoint():
    cs = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    w = sample_solutions(cs, 1, seed=0)[0]
    bad = np.array([1.0, 5.0, 0.0, 0.0, 5.0])
    path = connect(bad, w, cs)
    assert not path.success
    assert "start point is not a verified solution" in path.message
    path = connect(w, bad, cs)
    assert not path.success
    assert "end point" in path.message


# (system, kind, vertices of one leg): a chord of an affine family is walked
# as its ends and midpoint, a chart leg on the fixed 9-point grid; None where
# a route may bend (region, stratum) or is curved but not one chart leg
LEG_KINDS = (
    (kod(0, 0, 0, 0), "quadrant", 3),
    (kod(1, 0, 0, -1), "ray", 3),
    (kod(0, 2, 1, 0), "hyperbola", 9),
    (three(0, 0, np.zeros((2, 2)), ZL, ZL, ZL, ZL), "region", None),
    (three(0, 0, [[1, 1], [1, 0]], ZL, ZL, ZL, ZL), "stratum", None),  # (2, 1): one component
    (three(-2, -8, np.zeros((2, 2)), ZL, ZL, ZL, ZL), "quadric", None),
    (three(-1, -2, [[2, 0], [0, 0]], ZL, ZL, ZL, ZL), "hypersurface", None),
    (three(1, -1, [[1, 1], [0, 1]], ZL, ZL, ZL, ZL), "hypersurface", None),
    (three(0, 0, [[0, -1], [0, -2]], [-2, -1], [-1, -2], [0, -1], [3, 4]), "curve", 9),
    (three(1, -2, [[0, -1], [1, 2]], [0, -1], [1, 0], [0, -1], [-1, 0]), "half-line", 3),
    (three(1, -2, [[-1, -1], [1, -1]], [1, 0], [-1, -1], [1, 0], [1, 1]), "halfplane", 3),
    (three(1, 18, [[0, 2], [-2, 2]], [2, 0], ZL, ZL, [4, 2]), "quadrant", 9),
    (three(0, 0, np.zeros((2, 2)), [-2, -2], ZL, ZL, [-2, 8]), "halfplane", 3),
    (three(0, -2, [[0, 2], [0, -1]], [0, 1], ZL, ZL, [-2, 0]), "halfplane", 3),
    (three(2, 4, [[1, 0], [2, -2]], [0, 2], ZL, ZL, [-2, -4]), "interval-band", 9),
    (three(-2, -8, [[0, 0], [-2, 0]], ZL, [4, -1], [1, -1], ZL), "quadrant", 9),
    (three(0, 0, np.zeros((2, 2)), ZL, [5, 2], [-2, -1], ZL), "halfplane", 9),
    (three(1, -2, [[0, 1], [-2, -1]], ZL, [1, 3], [1, 2], ZL), "halfplane", 9),
    (three(-2, 0, [[0, 0], [0, 2]], ZL, [-1, -2], [0, -1], ZL), "band", 9),
    (three(0, 9, [[-2, -1], [1, -1]], ZL, [4, -2], [0, -2], ZL), "interval-band", 9),
)


def _oracle_off(cs, x):
    """The largest equation of tests/_oracles.py at x, against the size of its terms."""
    b, b_mat = x[0], np.reshape(x[1:], (cs.m, cs.m))
    if cs.m == 1:
        res = kodaira_equations(*(float(r[0]) for r in (cs.l_pp, cs.l_pm, cs.l_mp, cs.l_mm)), b, b_mat[0, 0])
        return np.abs(res).max() / (1.0 + abs(b) * (1.0 + abs(b_mat[0, 0])))
    res = threefold_equations((cs.l_pp, cs.l_pm, cs.l_mp, cs.l_mm, cs.a_plus, cs.a_minus, cs.D), b, b_mat)
    size = 1.0 + abs(b) * (1.0 + np.abs(b_mat).max()) * (1.0 + np.abs(cs.D).max())
    return np.abs(res).max() / (size + abs(cs.a_plus * np.linalg.det(b_mat)))


def _det_min_on_chord(p, q):
    """min over t in [0, 1] of det((1 - t) P + t Q), from the three coefficients."""
    c0 = np.linalg.det(p)
    c2 = np.linalg.det(q - p)
    c1 = np.linalg.det(q) - c0 - c2
    ts = [0.0, 1.0] + ([-c1 / (2.0 * c2)] if c2 != 0.0 and 0.0 < -c1 / (2.0 * c2) < 1.0 else [])
    return min(c0 + c1 * t + c2 * t * t for t in ts)


@pytest.mark.parametrize("cs, kind, leg_vertices", LEG_KINDS,
                         ids=[f"{solve(cs).case_label}.{kind}.{i}" for i, (cs, kind, _) in enumerate(LEG_KINDS)])
def test_legs_lie_on_the_family(cs, kind, leg_vertices):
    assert solve(cs).kind == kind
    cert = connectivity_certificate(cs, samples=6, seed=3)
    assert len(cert.witnesses) == 6
    assert cert.component_count == 1 and not cert.failures
    for path in cert.paths:
        pts = [np.array(x) for x in path.points]
        assert max(_oracle_off(cs, x) for x in pts) <= PATH_TOL
        assert all(x[0] > 0 and np.linalg.det(np.reshape(x[1:], (cs.m, cs.m))) > 0 for x in pts)
        if cs.m == 2:
            assert all(_det_min_on_chord(x[1:].reshape(2, 2), y[1:].reshape(2, 2)) > 0
                       for x, y in zip(pts, pts[1:]))
        if leg_vertices is not None:
            assert len(pts) == leg_vertices  # every join is the one direct leg
        else:
            assert len(pts) % 2 == 1


def test_chord_leg_is_its_ends_and_midpoint():
    cs = kod(1, 0, 0, -1)  # the ray b1 = b2
    p, q = np.array([1.0, 1.0]), np.array([3.0, 3.0])
    path = connect(p, q, cs)
    assert path.success and path.points == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))


def test_walk_names_the_chord_that_leaves_the_region():
    # det diag(t - 0.2, t - 0.3) is positive at t = 0, 1/2 and 1 but not at 1/4
    cs = three(0.0, 0.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    p, q = np.array([1.0, -0.2, 0.0, 0.0, -0.3]), np.array([1.0, 0.8, 0.0, 0.0, 0.7])
    assert se._vertex_failure(cs, 0.5 * (p + q))[0] is None
    path, failure = se._walk_route(cs, [se._LinearCurve(p, q)])
    assert path is None
    last, why = failure
    assert np.array_equal(last, p)
    got = re.fullmatch(r"leg 0 fails at t = 0\.5: the chord from the vertex before reaches det B = (\S+)", why)
    assert got and float(got.group(1)) == pytest.approx(-0.0025)


def test_walk_rejects_a_leg_where_its_chart_is_singular():
    cs = kod(0, 2, 1, 0)
    p, q = (w.position() for w in sample_solutions(cs, 2, seed=0))
    point, params = solve(cs)._chart
    cut = 0.5 * (params(p) + params(q))  # the chart fails beyond the middle of the segment
    leg = se._ChartLeg(p, q, lambda b2: point(b2) if (b2 - cut) * (params(q) - cut) < 0 else None,
                       params(p), params(q))
    path, (t, done, why) = se._walk_curve(cs, leg)
    assert path is None and (t, len(done), why) == (0.5, 4, "the chart is singular")


def test_failed_join_names_leg_t_and_margins(monkeypatch):
    # b = 1 at both ends and B = I, -I: only the chord is left, through B = 0
    cs = three(0.0, 0.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    desc = solve(cs)
    monkeypatch.setattr(se, "_family_mids", lambda *args, **kwargs: [])
    monkeypatch.setattr(desc, "_draw", lambda rng: None)
    p, q = np.array([1.0, 1.0, 0.0, 0.0, 1.0]), np.array([1.0, -1.0, 0.0, 0.0, -1.0])
    messages = {connect(p, q, cs).message for _ in range(2)}
    assert len(messages) == 1  # deterministic
    got = re.fullmatch(r"no verified path joins the endpoints; the last route walked: "
                       r"leg (\d+) fails at t = (\S+): b = (\S+) and det B = (\S+) leave the region",
                       messages.pop())
    assert got and [float(v) for v in got.groups()] == [0, 0.5, 1.0, 0.0]


def test_failed_join_names_the_residual(monkeypatch):
    # a chart pushed off the hyperbola b1 b2 = 2 by 1%: every chart leg fails
    # at its first interior grid point, and the chord at its midpoint
    cs = kod(0, 2, 1, 0)
    p, q = sample_solutions(cs, 2, seed=0)
    desc = solve(cs)
    point, params = desc._chart
    monkeypatch.setattr(desc, "_chart", (lambda b2: (1.01 * point(b2)[0], point(b2)[1]), params))
    walked = []
    real_walk = se._walk_route

    def recording(sys, legs):
        path, failure = real_walk(sys, legs)
        walked.append(failure)
        return path, failure

    monkeypatch.setattr(se, "_walk_route", recording)
    path = connect(p, q, cs)
    assert not path.success
    assert len(walked) == 1 + 5 + 1  # the direct leg, five roadmap rounds, the chord
    assert all(why.startswith("leg 0 fails at t = 0.125: ") for _, why in walked[:-1])
    got = re.fullmatch(r"no verified path joins the endpoints; the last route walked: "
                       r"leg 0 fails at t = 0\.5: antiholomorphy residual (\S+) exceeds 1e-07", path.message)
    assert got
    mid = 0.5 * (p.position() + q.position())
    assert float(got.group(1)) == pytest.approx(max(cs.residual_pair(mid[0], [[mid[1]]])), rel=1e-5)
    assert path.last_point == tuple(p.position())


def _direct_walks(walked, xp, xq):
    """Walked routes that are one non-chord leg from xp to xq."""
    return [legs for legs in walked
            if len(legs) == 1 and not isinstance(legs[0], se._LinearCurve)
            and np.allclose(legs[0](0.0), xp) and np.allclose(legs[0](1.0), xq)]


def test_connect_walks_a_failed_direct_route_once(monkeypatch):
    cs = kod(0, 2, 1, 0)  # hyperbola: the direct route is not the chord
    p, q = sample_solutions(cs, 2, seed=0)
    walked = []

    def failing(sys, legs):
        walked.append(legs)
        return None, (None, "leg 0 fails at t = 0: forced")

    monkeypatch.setattr(se, "_walk_route", failing)
    path = connect(p, q, cs)
    assert not path.success
    assert len(_direct_walks(walked, p.position(), q.position())) == 1
    # the chord comes last, once; the roadmap rounds walk 5 more paths
    assert [isinstance(legs[0], se._LinearCurve) for legs in walked].count(True) == 1
    assert isinstance(walked[-1][0], se._LinearCurve)
    assert len(walked) == 1 + 5 + 1


def test_connect_direct_join_builds_no_roadmap(monkeypatch):
    for cs in (kod(0, 2, 1, 0), three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)):
        p, q = sample_solutions(cs, 2, seed=1)
        desc = solve(cs)
        se._family_mids(cs, desc)  # the quadric's bend samples, drawn once per description
        routed, drawn = [], []
        real_route, real_draw = se._route, desc._draw
        monkeypatch.setattr(se, "_route", lambda *a: routed.append(a) or real_route(*a))
        monkeypatch.setattr(desc, "_draw", lambda rng: drawn.append(rng) or real_draw(rng))
        assert connect(p, q, cs).success
        assert len(routed) == 1
        assert drawn == []
        monkeypatch.undo()


def test_lazy_roadmap_joins_what_the_eager_search_joins():
    # (system, sampler seed): the first five join every pair by the direct
    # route; on the second two-sided hypersurface some pairs need the
    # roadmap, and on the split stratum the cross-nappe pairs fail
    systems = (
        (three(0.0, 0.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL), 0),
        (three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL), 0),
        (three(1.0, 1.0, np.eye(2), [1, 1], ZL, ZL, [1, 0]), 0),
        (three(-1.0, -2.0, [[0, 3], [-3, -2]], ZL, ZL, ZL, ZL), 2),
        (three(1.0, 3.0, [[-1, -1], [1, -2]], ZL, [1, -1], [-1, 0], ZL), 0),
        (three(-2.0, -3.0, [[-2, 2], [-3, 1]], ZL, ZL, ZL, ZL), 628860),
        (three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL), 5),
    )
    assert [(solve(cs).case_label, solve(cs).kind) for cs, _ in systems] == [
        ("L0.D0", "region"), ("L0.D0", "quadric"), ("L.mpzero", "quadrant"),
        ("L0.Dnz", "hypersurface"), ("L.ppzero", "quadrant"), ("L0.Dnz", "hypersurface"),
        ("L0.Dnz", "stratum")]
    pairs = []
    for cs, seed in systems:
        ws = sample_solutions(cs, 6, seed=seed)
        assert len(ws) == 6
        pairs += [(cs, p, q) for p, q in itertools.combinations(ws, 2)]
    # a region pair with b = 5e-7 at the start: every case route and roadmap
    # leg refuses b <= _SAFE, and only the straight chord joins it
    pairs.append((systems[0][0], np.array([5e-7, 1.0, 0.0, 0.0, 1.0]), np.array([1.0, 2.0, 0.0, 0.0, 2.0])))
    stages = []
    for cs, p, q in pairs:
        eager = eager_connect(p, q, cs)
        assert connect(p, q, cs).success == eager.success
        stages.append(eager.message if eager.success else "failed")
    assert {"direct", "chord", "roadmap", "failed"} <= set(stages)


SPLIT_D = ([[1, 0], [0, 1]], [[2, 1], [-1, 3]], [[-1, 2], [-3, 1]])


def _polar(v, b_mat):
    """Q(v, B) in floats, independent of the library's exact helper."""
    v11, v12, v21, v22 = map(float, v)
    (b11, b12), (b21, b22) = np.asarray(b_mat, dtype=float)
    return (v11 * b22 + v22 * b11 - v12 * b21 - v21 * b12) / 2


def _by_nappe(cs, witnesses):
    v = solve(cs).constants["nappe_vector"]
    pos = [w for w in witnesses if _polar(v, w.b_matrix) > 0]
    neg = [w for w in witnesses if _polar(v, w.b_matrix) < 0]
    return pos, neg


def test_connect_across_nappes_fails_without_continuation(monkeypatch):
    cs = three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL)
    pos, neg = _by_nappe(cs, sample_solutions(cs, 8, seed=5))
    assert pos and neg

    def refuse(*args):
        raise AssertionError("continuation ran on a cross-nappe join")

    monkeypatch.setattr(se, "_route", refuse)
    monkeypatch.setattr(se, "_walk_curve", refuse)
    v = solve(cs).constants["nappe_vector"]
    for p, q in ((pos[0], neg[0]), (neg[-1], pos[-1])):
        path = connect(p, q, cs)
        assert not path.success
        assert path.points == ()
        assert path.last_point == tuple(p.position())
        assert "opposite nappes" in path.message
        named = [float(x) for x in re.findall(r"Q\(v, B\) = (\S+) at the start and (\S+) at", path.message)[0]]
        assert np.allclose(named, [_polar(v, p.b_matrix), _polar(v, q.b_matrix)], rtol=1e-5)


def test_connect_within_a_nappe_joins():
    for d_block in SPLIT_D:
        cs = three(0.0, 0.0, d_block, ZL, ZL, ZL, ZL)
        v = solve(cs).constants["nappe_vector"]
        for side in _by_nappe(cs, sample_solutions(cs, 8, seed=2)):
            for p, q in zip(side, side[1:]):
                path = connect(p, q, cs)
                assert path.success
                assert len({np.sign(_polar(v, np.reshape(x[1:], (2, 2)))) for x in path.points}) == 1


def test_nappe_sign_matches_float_eigenframe():
    # the exact sign against the positive eigendirection of the restricted
    # form (an arbitrary but fixed labelling of the nappes per system)
    systems = SPLIT_D + ([[1, 0], [0, 0]], [[10**6, 3], [-2, 10**6 + 1]])
    total = 0
    for k, d_block in enumerate(systems):
        cs = three(0.0, 0.0, d_block, ZL, ZL, ZL, ZL)
        v = solve(cs).constants["nappe_vector"]
        ws = sample_solutions(cs, 100, seed=k)
        exact = [se._nappe_sign(v, w.b_matrix)[0] for w in ws]
        floats = [float_nappe_sign(d_block, w.b_matrix) for w in ws]
        assert 0 not in exact
        assert len({e * f for e, f in zip(exact, floats)}) == 1, d_block
        assert len(set(exact)) == 2
        total += len(ws)
    assert total == 500


def test_nappe_sign_zero_off_the_stratum():
    cs = three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL)
    v = solve(cs).constants["nappe_vector"]
    # ker b' is the symmetric matrices; this B has det 26 but lies far off it
    off = np.array([[1.0, 5.0], [-5.0, 1.0]])
    sign, q = se._nappe_sign(v, off)
    assert sign == 0 and q != 0
    # a residual of 1e-9 off ker b' keeps the sign, opposite on the other nappe
    near = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
    assert [se._nappe_sign(v, s * near)[0] for s in (1, -1)] in ([1, -1], [-1, 1])


# ---------------------------------------------------------------------------
# connectivity certificates


def test_certificate_hyperbola_single_component():
    cert = connectivity_certificate(kod(0, 2, 1, 0), samples=12, seed=1)
    assert cert.component_count == 1
    assert len(cert.witnesses) == 12
    assert not cert.failures


def test_certificate_quadric_single_component():
    cs = three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)
    cert = connectivity_certificate(cs, samples=10, seed=2)
    assert cert.component_count == 1
    assert not cert.failures


def test_certificate_empty_family():
    cert = connectivity_certificate(kod(1, 1, -1, 1), samples=5, seed=0)
    assert cert.component_count == 0
    assert cert.witnesses == ()
    assert cert.samples == 5


def test_certificate_detects_stratum_split(monkeypatch):
    solved = []
    real_solve = se.solve_threefold
    monkeypatch.setattr(se, "solve_threefold", lambda cs: solved.append(cs) or real_solve(cs))
    cs = three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL)
    cert = connectivity_certificate(cs, samples=8, seed=5)
    assert cert.component_count == 2
    assert cert.failures
    assert solved == [cs]  # one solve serves the sampler and every join


def test_stratum_points_drawn_once_per_certificate(monkeypatch):
    # two-sided hypersurface: joins across b' = 0 route through the stratum,
    # whose points depend only on the system; on this one the certificates
    # of seeds 14 and 19 route many joins across
    def certificates():
        out = []
        for seed in range(20):
            drawn.clear()
            cs = three(-2.0, -3.0, [[-2, 2], [-3, 1]], ZL, ZL, ZL, ZL)
            out.append(json.dumps(connectivity_certificate(cs, samples=6, seed=seed).to_dict()))
            counts.append(len(drawn))
        return out

    drawn, counts = [], []
    real_candidates, real_route = se._stratum_candidates, se._route
    monkeypatch.setattr(se, "_stratum_candidates", lambda cs: drawn.append(cs) or real_candidates(cs))
    kept = certificates()
    assert max(counts) == 1
    counts.clear()

    def redrawing_route(cs, desc, *rest):
        desc._mids.pop("stratum", None)
        return real_route(cs, desc, *rest)

    monkeypatch.setattr(se, "_route", redrawing_route)
    assert certificates() == kept  # the same certificates as a draw on every route
    assert sum(counts) > 20


def test_split_certificates_prove_their_components():
    for d_block in SPLIT_D:
        cs = three(0.0, 0.0, d_block, ZL, ZL, ZL, ZL)
        v = solve(cs).constants["nappe_vector"]
        for seed in range(20):
            cert = connectivity_certificate(cs, samples=8, seed=seed)
            assert cert.components_proven == cert.component_count
            for path in cert.paths:
                signs = {se._nappe_sign(v, np.reshape(x[1:], (2, 2)))[0] for x in path.points}
                assert len(signs) == 1 and 0 not in signs
            for failure in cert.failures:
                assert "opposite nappes" in failure.message


def test_components_proven_outside_the_split_stratum():
    assert connectivity_certificate(kod(0, 2, 1, 0), samples=4, seed=0).components_proven == 1
    assert connectivity_certificate(kod(1, 1, -1, 1), samples=4, seed=0).components_proven == 0
    one_sided = three(0.0, 0.0, [[1, 1], [1, 0]], ZL, ZL, ZL, ZL)  # det D < 0: (2, 1)
    assert "nappe_vector" not in solve(one_sided).constants
    assert connectivity_certificate(one_sided, samples=4, seed=0).components_proven == 1


def test_split_certify_machine_output_reproducible(tmp_path, capsys):
    doc = {"system": {"m": 2, "a_plus": 0, "a_minus": 0, "D": [[1, 0], [0, 1]],
                      "l_pp": ZL, "l_pm": ZL, "l_mp": ZL, "l_mm": ZL}}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    outs = []
    for _ in range(2):
        rc = main(["certify", str(path), "--samples", "8", "--seed", "5", "--format", "machine"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # a second certificate on the same system reuses its description
    cs = three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL)
    first = connectivity_certificate(cs, samples=8, seed=5).to_dict()
    assert connectivity_certificate(cs, samples=8, seed=5).to_dict() == first
    assert json.loads(outs[0])["certificate"] == first


def _sampled_leg_ok(x0, x1):
    """The 33-point test of b and det B along a straight leg."""
    for t in np.linspace(0.0, 1.0, 33):
        x = (1.0 - t) * x0 + t * x1
        if x[0] <= se._SAFE or np.linalg.det(x[1:].reshape(2, 2)) <= se._SAFE:
            return False
    return True


def test_exact_leg_check_never_accepts_a_sampled_rejection():
    cs = three(0.0, 0.0, np.eye(2), ZL, ZL, ZL, ZL)
    rng = np.random.default_rng(20061)
    chords = [(rng.uniform(-0.5, 3.0, 5), rng.uniform(-0.5, 3.0, 5)) for _ in range(400)]
    dips = []
    while len(dips) < 100:
        # B(t) = P diag(t - t1, t - t2) Q with t1 < t2 between two neighbouring
        # sample points: det B < 0 on (t1, t2) and positive at every sample
        p, q = rng.uniform(-2.0, 2.0, (2, 2, 2))
        if abs(np.linalg.det(p) * np.linalg.det(q)) < 0.5:
            continue
        if np.linalg.det(p) * np.linalg.det(q) < 0:
            p[0] *= -1.0
        t1, t2 = np.sort(rng.integers(0, 32) + rng.uniform(0.3, 0.7, 2)) / 32.0
        b0, b1 = rng.uniform(0.5, 3.0, 2)
        dips.append((np.concatenate(([b0], (p @ np.diag([-t1, -t2]) @ q).ravel())),
                     np.concatenate(([b1], (p @ np.diag([1 - t1, 1 - t2]) @ q).ravel()))))
    verdicts = [(se._graph_leg_ok(cs, se._LinearCurve(x0, x1)), _sampled_leg_ok(x0, x1))
                for x0, x1 in chords + dips]
    assert not any(exact and not sampled for exact, sampled in verdicts)
    assert any(exact for exact, _ in verdicts[:len(chords)])
    assert not any(exact for exact, _ in verdicts[len(chords):])
    assert all(sampled for _, sampled in verdicts[len(chords):])


def test_certificate_deterministic():
    cs = three(1.0, 2.0, [[1, 1], [0, 1]], ZL, ZL, ZL, ZL)
    one = connectivity_certificate(cs, samples=6, seed=3).to_dict()
    two = connectivity_certificate(cs, samples=6, seed=3).to_dict()
    assert one == two


def test_reports_serialize():
    descs = [
        solve(kod(0, 2, 1, 0)),
        solve(three(1.0, 1.0, np.zeros((2, 2)), ZL, ZL, ZL, ZL)),
        solve(three(1.0, 7.0, [[0, 1], [1, 0]], [2, 0], [3, 0], [1, 0], [-6, 0])),
        solve(three(0.0, 0.0, [[2, 1], [-1, 3]], ZL, ZL, ZL, ZL)),
    ]
    for desc in descs:
        json.dumps(desc.to_dict())
    assert descs[-1].to_dict()["constants"]["nappe_vector"] == ["1", "-1", "0", "1"]
    cert = connectivity_certificate(kod(0, 2, 1, 0), samples=4, seed=0)
    json.dumps(cert.to_dict())
