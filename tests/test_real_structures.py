"""Involution data: condition lists, eigenspace blocks, orbifold round trip."""

import random
from fractions import Fraction

import numpy as np
import pytest

from torusbundles import _rational as ratl
from torusbundles.complex_structures import ComplexStructurePair, decompose, standard_structure
from torusbundles.lattice_core import BundleDatum
from torusbundles.real_structures import (
    CompatibleStructure,
    OrbifoldConjugationData,
    RealStructureData,
    antiholomorphy_residual,
    build_J,
    check_dianalytic_conditions,
    check_integral_conditions,
    eigensplit,
    equivalence_conditioning,
    normalize_translation,
    orbifold_data,
    rbr2_residual,
    reconstruct_from_orbifold,
    tensor_equations_residuals,
)

from _oracles import float_lattice_labels

J2 = ((0, 1), (-1, 0))
Z2 = ((0, 0), (0, 0))
Z4 = ((0,) * 4,) * 4
KODAIRA = BundleDatum(m=1, d=1, components=(J2, Z2))

# conjugation fixing the first base / second fiber coordinate
RS_KOD = RealStructureData(
    A1=((-1, 0), (0, 1)),
    A2=((1, 0), (0, -1)),
    L=Z2,
    d1=(0, 0),
    d2=(0, 0),
)

# m=2, d=1 datum built so the eigenspaces of the involutions split the form:
# component 1 carries the two antisymmetric diagonal blocks, component 0 the
# mixed block.
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

STD_PAIR = ComplexStructurePair(J1=standard_structure(1), J2=standard_structure(1))


def test_involution_validation():
    with pytest.raises(ValueError, match="A1 squared is not the identity"):
        RealStructureData(A1=((1, 1), (0, 1)), A2=((1, 0), (0, 1)),
                          L=Z2, d1=(0, 0), d2=(0, 0))
    with pytest.raises(ValueError, match="A2 squared is not the identity"):
        RealStructureData(A1=((1, 0), (0, 1)), A2=((2, 0), (0, 1)),
                          L=Z2, d1=(0, 0), d2=(0, 0))


def test_normalize_translation_projects_d1():
    rs = RealStructureData(A1=((-1, 0), (0, 1)), A2=((1, 0), (0, -1)),
                           L=Z2, d1=("1/2", "1/3"), d2=("1/5", 0))
    out = normalize_translation(rs)
    assert out.d1 == (Fraction(0), Fraction(1, 3))
    assert out.d2 == rs.d2
    assert out.L == rs.L
    # idempotent
    assert normalize_translation(out) == out


def test_integral_conditions_conjugation_passes():
    rep = check_integral_conditions(KODAIRA, RS_KOD)
    assert rep["nondegenerate"]
    for key in ("I1", "I2", "I3", "I4", "I5", "I6", "I7"):
        assert rep[key]["ok"], key
    assert rep["all_ok"]
    assert rep["I7"]["witness"] == ["0", "0"]
    assert rep["I7"]["unique"]


def test_integral_conditions_flag_violations():
    bad = RealStructureData(A1=((1, 0), (0, -1)), A2=((1, 0), (0, -1)),
                            L=Z2, d1=(0, 0), d2=(0, 0))
    rep = check_integral_conditions(KODAIRA, bad)
    assert not rep["I3"]["ok"]
    assert not rep["all_ok"]
    frac_l = RealStructureData(A1=((-1, 0), (0, 1)), A2=((1, 0), (0, -1)),
                               L=(("1/2", 0), (0, 0)), d1=(0, 0), d2=(0, 0))
    rep = check_integral_conditions(KODAIRA, frac_l)
    assert not rep["I4"]["ok"]


def test_dianalytic_conjugation_example():
    rep = check_dianalytic_conditions(KODAIRA, RS_KOD, STD_PAIR)
    assert rep["prerequisites"]["ok"]
    for key in ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8"):
        assert rep[key]["ok"], key
    assert rep["all_ok"]
    reps = rep["complex_representatives"]
    assert np.allclose(reps["A1"], [[-1.0]])
    assert np.allclose(reps["A2"], [[1.0]])


def test_dianalytic_product_identity_representatives():
    """Plain conjugation on a split product: both representatives are I."""
    prod = BundleDatum(m=1, d=1, components=(Z2, Z2))
    rs = RealStructureData(A1=((1, 0), (0, -1)), A2=((1, 0), (0, -1)),
                           L=Z2, d1=(0, 0), d2=(0, 0))
    rep = check_dianalytic_conditions(prod, rs, STD_PAIR)
    assert rep["all_ok"]
    assert np.allclose(rep["complex_representatives"]["A1"], [[1.0]])
    assert np.allclose(rep["complex_representatives"]["A2"], [[1.0]])


def test_dianalytic_detects_translation_defect():
    prod = BundleDatum(m=1, d=1, components=(Z2, Z2))
    rs = RealStructureData(A1=((1, 0), (0, -1)), A2=((1, 0), (0, -1)),
                           L=Z2, d1=("1/3", 0), d2=(0, 0))
    rep = check_dianalytic_conditions(prod, rs, STD_PAIR)
    assert not rep["D8"]["ok"]
    assert not rep["all_ok"]


def test_translation_labels_reject_near_integers():
    """D7 and D8 are I5 and I6: a translation 1e-9 off the lattice fails both."""
    prod = BundleDatum(m=1, d=1, components=(Z2, Z2))
    split = dict(A1=((1, 0), (0, -1)), A2=((1, 0), (0, -1)), L=Z2)
    rs = RealStructureData(**split, d1=(0, 0), d2=("1/1000000000", 0))
    assert not check_integral_conditions(prod, rs)["I5"]["ok"]
    rep = check_dianalytic_conditions(prod, rs, STD_PAIR)
    assert not rep["D7"]["ok"]
    assert rep["D8"]["ok"]
    rs = RealStructureData(**split, d1=("1/1000000000", 0), d2=(0, 0))
    assert not check_integral_conditions(prod, rs)["I6"]["ok"]
    rep = check_dianalytic_conditions(prod, rs, STD_PAIR)
    assert rep["D7"]["ok"]
    assert not rep["D8"]["ok"]


def test_d1_exact_on_ill_conditioned_frame():
    """A2 = U^-1 diag(1, -1) U and J2 = U^-1 J U with U = [[1, 1000], [0, 1]]:
    a float solve in this frame misses the lattice by more than 1e-8."""
    rs = RealStructureData(A1=((1, 0), (0, -1)), A2=((1, 2000), (0, -1)),
                           L=Z2, d1=(0, 0), d2=(0, 0))
    u = np.array([[1.0, 1000.0], [0.0, 1.0]])
    pair = ComplexStructurePair(J1=standard_structure(1),
                                J2=np.linalg.inv(u) @ standard_structure(1) @ u)
    rep = check_dianalytic_conditions(KODAIRA, rs, pair)
    assert rep["prerequisites"]["A2_diagonal_component"] <= 1e-8
    assert rep["D1"]["ok"]
    assert not float_lattice_labels(decompose(KODAIRA, pair), rs)["D1"]


def _frame_pair(rng, k):
    """An integer involution and a complex structure it anticommutes with:
    diag(1, -1, ...) and the standard structure, moved by a unimodular U
    made of 2k elementary moves with coefficients +-1 (kept small so that
    float solves in the frame stay far inside 1e-8)."""
    n = 2 * k
    u = ratl.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    signs = [[Fraction((-1) ** i if i == j else 0) for j in range(n)] for i in range(n)]
    a = ratl.mat_mul(ratl.mat_mul(ratl.inverse(u), signs), u)
    uf = np.array(u, dtype=float)
    j = np.linalg.inv(uf) @ standard_structure(k) @ uf
    return tuple(tuple(int(x) for x in row) for row in a), j


def test_lattice_labels_match_float_oracle():
    """D1, D7 and D8 agree with the float memberships they replace.

    Pairs are built so that A1 and A2 anticommute with J1 and J2 (the D1
    prerequisites hold) or are drawn from an unrelated frame (they fail).
    Translations have denominators at most 3, far from the 1e-8 edge.
    """
    rng = random.Random(6)
    seen = {key: set() for key in ("prerequisites", "D1", "D7", "D8")}

    def small(rng):
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))

    for trial in range(120):
        # every pair is compatible with an m = 1 form and with the zero form
        m = 1 + trial % 2
        datum = KODAIRA if m == 1 else BundleDatum(m=2, d=1, components=(Z4, Z4))
        a1, j1 = _frame_pair(rng, 1)
        a2, j2 = _frame_pair(rng, m)
        if rng.random() < 0.5:
            a1, a2 = _frame_pair(rng, 1)[0], _frame_pair(rng, m)[0]
        rs = RealStructureData(
            A1=a1,
            A2=a2,
            L=tuple(tuple(small(rng) for _ in range(2 * m)) for _ in range(2)),
            d1=tuple(small(rng) for _ in range(2)),
            d2=tuple(small(rng) for _ in range(2 * m)),
        )
        pair = ComplexStructurePair(J1=j1, J2=j2)
        rep = check_dianalytic_conditions(datum, rs, pair)
        oracle = float_lattice_labels(decompose(datum, pair), rs)
        pre = rep["prerequisites"]
        held = max(pre["A1_diagonal_component"], pre["A2_diagonal_component"]) <= 1e-8
        seen["prerequisites"].add(held)
        # with the prerequisites failing the float D1 still holds when the
        # antilinear part (A + J A J) / 2 is unimodular; D1 no longer does
        assert rep["D1"]["ok"] == (held and oracle["D1"]), trial
        assert (rep["D7"]["ok"], rep["D8"]["ok"]) == (oracle["D7"], oracle["D8"]), trial
        for key in ("D1", "D7", "D8"):
            seen[key].add(rep[key]["ok"])
    assert all(values == {True, False} for values in seen.values()), seen


def test_eigensplit_kodaira_frozen():
    sp = eigensplit(KODAIRA, RS_KOD)
    assert sp.basis_V_plus.tolist() == [[1], [0]]
    assert sp.basis_V_minus.tolist() == [[0], [1]]
    assert sp.basis_U_plus.tolist() == [[0], [1]]
    assert sp.basis_U_minus.tolist() == [[1], [0]]
    assert sp.A_plus.tolist() == [[[0.0]]]
    assert sp.A_minus.tolist() == [[[0.0]]]
    assert sp.D.tolist() == [[[-1.0]]]
    assert sp.gamma_hat_plus.tolist() == [0.0]
    assert sp.reassembly_residual == 0.0
    assert not sp.degenerate


def test_eigensplit_threefold_frozen():
    sp = eigensplit(THREE, RS_THREE)
    # kernel bases come out lexicographically sorted
    assert sp.basis_V_plus.tolist() == [[0, 1], [1, 0], [0, 0], [0, 0]]
    assert sp.basis_V_minus.tolist() == [[0, 0], [0, 0], [0, 1], [1, 0]]
    assert sp.A_plus.tolist() == [[[0.0, -1.0], [1.0, 0.0]]]
    assert sp.A_minus.tolist() == [[[0.0, -2.0], [2.0, 0.0]]]
    assert sp.D.tolist() == [[[1.0, 1.0], [0.0, 1.0]]]
    assert sp.reassembly_residual == 0.0
    assert sp.gamma_hat_plus.tolist() == [0.0, 0.0]


def test_eigensplit_rejects_block_violation():
    bad = RealStructureData(A1=((1, 0), (0, -1)), A2=((1, 0), (0, -1)),
                            L=Z2, d1=(0, 0), d2=(0, 0))
    with pytest.raises(ValueError, match="block structure violated"):
        eigensplit(KODAIRA, bad)


def test_eigensplit_degenerate_diagnostic():
    zero = BundleDatum(m=1, d=1, components=(Z2, Z2))
    rs = RealStructureData(A1=((-1, 0), (0, -1)), A2=((-1, 0), (0, -1)),
                           L=Z2, d1=(0, 0), d2=(0, 0))
    sp = eigensplit(zero, rs)
    assert sp.degenerate
    assert any("degenerate" in note for note in sp.notes)
    assert sp.dim_V_plus == 0 and sp.dim_U_plus == 0
    assert sp.gamma_hat_plus.size == 0


def test_eigensplit_coupling_generator_recovered():
    # blocks generated by the lattice vector e1 + 2 e2 (split coords (2, 1))
    L = ((0, 0, "1/2", "3/2"), (-1, "1/2", 0, 0))
    rs = RealStructureData(A1=RS_THREE.A1, A2=RS_THREE.A2, L=L,
                           d1=(0, 0), d2=(0, 0, 0, 0))
    sp = eigensplit(THREE, rs)
    assert sp.gamma_hat_plus is not None
    assert np.allclose(sp.gamma_hat_plus, [2.0, 1.0])
    assert sp.gamma_residual <= 1e-12
    ambient = sp.basis_V_plus @ sp.gamma_hat_plus
    assert np.allclose(ambient, [1.0, 2.0, 0.0, 0.0])


def test_eigensplit_coupling_inconsistent():
    L = ((0, 0, 0, 0), (0, 1, 0, 0))
    rs = RealStructureData(A1=RS_THREE.A1, A2=RS_THREE.A2, L=L,
                           d1=(0, 0), d2=(0, 0, 0, 0))
    sp = eigensplit(THREE, rs)
    assert sp.gamma_hat_plus is None
    assert any("not generated" in note for note in sp.notes)


def test_eigensplit_coupling_not_lattice():
    L = ((0, 0, "1/4", "1/4"), (0, "1/4", 0, 0))
    rs = RealStructureData(A1=RS_THREE.A1, A2=RS_THREE.A2, L=L,
                           d1=(0, 0), d2=(0, 0, 0, 0))
    sp = eigensplit(THREE, rs)
    assert sp.gamma_hat_plus is None
    assert any("not a lattice vector" in note for note in sp.notes)


def test_build_j_frozen_and_anticommutation():
    sp = eigensplit(KODAIRA, RS_KOD)
    cs = CompatibleStructure(B1=[[2.0]], B2=[[0.5]])
    pair = build_J(sp, cs)
    assert np.allclose(pair.J1, [[0.0, 0.5], [-2.0, 0.0]])
    assert np.allclose(pair.J2, [[0.0, -0.5], [2.0, 0.0]])
    a1 = np.array(RS_KOD.A1, dtype=float)
    a2 = np.array(RS_KOD.A2, dtype=float)
    assert np.max(np.abs(pair.J1 @ a1 + a1 @ pair.J1)) == 0.0
    assert np.max(np.abs(pair.J2 @ a2 + a2 @ pair.J2)) == 0.0
    sp3 = eigensplit(THREE, RS_THREE)
    pair3 = build_J(sp3, CompatibleStructure(B1=[[1.0]], B2=np.eye(2)))
    a2 = np.array(RS_THREE.A2, dtype=float)
    assert np.max(np.abs(pair3.J2 @ a2 + a2 @ pair3.J2)) <= 1e-12


def test_build_j_dimension_mismatch():
    zero = BundleDatum(m=1, d=1, components=(Z2, Z2))
    rs = RealStructureData(A1=((-1, 0), (0, -1)), A2=((-1, 0), (0, -1)),
                           L=Z2, d1=(0, 0), d2=(0, 0))
    sp = eigensplit(zero, rs)
    with pytest.raises(ValueError, match="different dimensions"):
        build_J(sp, CompatibleStructure(B1=[[1.0]], B2=[[1.0]]))


def test_antiholomorphy_matches_operator_identity():
    rs = RealStructureData(A1=RS_KOD.A1, A2=RS_KOD.A2,
                           L=(("3/2", 0), (0, "-5/2")), d1=(0, "1/2"), d2=("1/2", 0))
    sp = eigensplit(KODAIRA, rs)
    # the two off-diagonal blocks force b1*b2 = l_pm / l_mp = -5/3
    cs = CompatibleStructure(B1=[[-5.0 / 3.0]], B2=[[1.0]])
    assert antiholomorphy_residual(sp, cs) <= 1e-12
    pair = build_J(sp, cs)
    lmat = np.array([[float(x) for x in row] for row in rs.L])
    assert np.max(np.abs(lmat @ pair.J2 + pair.J1 @ lmat)) <= 1e-12
    # an incompatible choice leaves both residuals visibly nonzero
    cs_bad = CompatibleStructure(B1=[[1.0]], B2=[[1.0]])
    assert antiholomorphy_residual(sp, cs_bad) > 1e-3
    pair_bad = build_J(sp, cs_bad)
    assert np.max(np.abs(lmat @ pair_bad.J2 + pair_bad.J1 @ lmat)) > 1e-3


def test_rbr2_residual_m1_vanishes():
    sp = eigensplit(KODAIRA, RS_KOD)
    for b1, b2 in ((1.0, 1.0), (2.0, 0.3), (0.7, 5.0)):
        assert rbr2_residual(sp, CompatibleStructure(B1=[[b1]], B2=[[b2]])) == 0.0


def test_rbr2_residual_threefold_frozen():
    sp = eigensplit(THREE, RS_THREE)
    sol = CompatibleStructure(B1=[[1.0]], B2=np.eye(2))
    off = CompatibleStructure(B1=[[2.0]], B2=np.eye(2))
    assert rbr2_residual(sp, sol) == 0.0
    assert rbr2_residual(sp, off) == 1.0


def test_tensor_equations_vanish_together():
    sp = eigensplit(THREE, RS_THREE)
    sol = tensor_equations_residuals(sp, CompatibleStructure(B1=[[1.0]], B2=np.eye(2)))
    assert max(sol) <= 1e-12
    off = tensor_equations_residuals(sp, CompatibleStructure(B1=[[2.0]], B2=np.eye(2)))
    assert min(off) > 0.1
    assert off == (1.0, 1.0, 0.5, 0.5)


def test_tensor_equations_equivalence_random():
    """Solving the second equation for A_minus makes all four vanish."""
    rng = np.random.default_rng(11)
    base = eigensplit(THREE, RS_THREE)
    for _ in range(20):
        a_plus = rng.uniform(-2, 2) * np.array([[[0.0, 1.0], [-1.0, 0.0]]])
        dd = rng.uniform(-2, 2, size=(1, 2, 2))
        b1 = np.array([[rng.uniform(0.2, 3.0)]])
        b2 = rng.uniform(-2, 2, size=(2, 2))
        while abs(np.linalg.det(b2)) < 0.3:
            b2 = rng.uniform(-2, 2, size=(2, 2))
        b2i = np.linalg.inv(b2)
        dT = np.transpose(dd, (0, 2, 1))
        rhs = np.einsum("sr,kst->krt", b2, a_plus) + np.einsum(
            "kl,lrs->krs", b1, -dd + np.einsum("sr,kst,tu->kru", b2, dT, b2i)
        )
        a_minus = np.einsum("krs,st->krt", rhs, b2)
        sp = base.__class__(
            basis_V_plus=base.basis_V_plus, basis_V_minus=base.basis_V_minus,
            basis_U_plus=base.basis_U_plus, basis_U_minus=base.basis_U_minus,
            A_plus=a_plus, A_minus=a_minus, D=dd,
            L_pp=base.L_pp, L_pm=base.L_pm, L_mp=base.L_mp, L_mm=base.L_mm,
        )
        cs = CompatibleStructure(B1=b1, B2=b2)
        res = tensor_equations_residuals(sp, cs)
        assert res[1] <= 1e-10
        assert max(res) <= 1e-10 * equivalence_conditioning(cs) + 1e-12


def test_equivalence_conditioning_frozen():
    cs = CompatibleStructure(B1=[[2.0]], B2=[[0.5]])
    assert equivalence_conditioning(cs) == 16.0
    assert equivalence_conditioning(CompatibleStructure(B1=[[1.0]], B2=[[1.0]])) == 1.0


def test_orbifold_data_frozen():
    rs = RealStructureData(A1=RS_KOD.A1, A2=RS_KOD.A2,
                           L=(("3/2", 0), (0, "-5/2")), d1=(0, "1/2"), d2=("1/2", 0))
    od = orbifold_data(KODAIRA, rs)
    assert od.generator_translations == (
        (Fraction(3, 2), Fraction(0)),
        (Fraction(-1, 2), Fraction(-5, 2)),
    )
    assert od.square_translation_y == (Fraction(3, 4), Fraction(1))
    assert od.square_translation_x == (Fraction(1), Fraction(0))
    back = reconstruct_from_orbifold(KODAIRA, od)
    assert back == normalize_translation(rs)


def _random_unimodular(rng, n):
    mat = ratl.identity(n)
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _random_involution(rng, n):
    u = _random_unimodular(rng, n)
    ui = ratl.inverse(u)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    s = [[Fraction(signs[i] if i == j else 0) for j in range(n)] for i in range(n)]
    m = ratl.mat_mul(ratl.mat_mul(u, s), ui)
    return tuple(tuple(int(x) for x in row) for row in m)


def _random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 7))


def test_orbifold_round_trip_random():
    rng = random.Random(5)
    for datum in (KODAIRA, THREE):
        n, k = 2 * datum.m, 2 * datum.d
        for _ in range(25):
            rs = RealStructureData(
                A1=_random_involution(rng, k),
                A2=_random_involution(rng, n),
                L=tuple(tuple(_random_rational(rng) for _ in range(n)) for _ in range(k)),
                d1=tuple(_random_rational(rng) for _ in range(k)),
                d2=tuple(_random_rational(rng) for _ in range(n)),
            )
            lifts = tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)) for _ in range(n)
            )
            od = orbifold_data(datum, rs, lifts=lifts)
            assert od.lifts == lifts
            back = reconstruct_from_orbifold(datum, od)
            assert back == normalize_translation(rs)


def test_reconstruct_validates_inputs():
    od = orbifold_data(KODAIRA, RS_KOD)
    tampered = OrbifoldConjugationData(
        A1=od.A1, A2=od.A2, d2=("1/3", 0),
        generator_translations=od.generator_translations,
        square_translation_y=od.square_translation_y,
        square_translation_x=od.square_translation_x,
        lifts=od.lifts,
    )
    with pytest.raises(ValueError, match="square translation"):
        reconstruct_from_orbifold(KODAIRA, tampered)
    bad_a1 = OrbifoldConjugationData(
        A1=((1, 1), (0, 1)), A2=od.A2, d2=od.d2,
        generator_translations=od.generator_translations,
        square_translation_y=od.square_translation_y,
        square_translation_x=od.square_translation_x,
        lifts=od.lifts,
    )
    with pytest.raises(ValueError, match="A1 squared"):
        reconstruct_from_orbifold(KODAIRA, bad_a1)
