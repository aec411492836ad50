"""Solution families: case labels, shapes, witnesses, paths, certificates."""

import json

import numpy as np
import pytest

import torusbundles.solver_explorer as se
from torusbundles.cli import main
from torusbundles.lattice_core import BundleDatum
from torusbundles.real_structures import RealStructureData, eigensplit
from torusbundles.solver_explorer import (
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
        assert max(w.residuals) <= 1e-9
        assert desc.contains(w.b, w.b_matrix)


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
    assert desc.contains(0.3, [[7.5]])


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
    assert desc.contains(4.0, [[0.5]])
    assert not desc.contains(1.0, [[1.0]])


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
    assert desc.contains(1.0, [[1.0]])
    assert not desc.contains(2.0, [[2.0]])


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
    assert desc.contains(1.0, np.eye(2))
    check_witnesses(desc)
    for w in desc.witnesses:
        assert np.linalg.det(w.b_matrix) == pytest.approx(1.0, abs=1e-9)


def test_quadric_with_small_a_plus():
    # a_plus = 1 is below ZERO_TOL times the scale 1e10, but it is not zero
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


def test_sampling_empty_family_raises():
    with pytest.raises(ValueError, match="empty solution family"):
        sample_solutions(kod(1, 1, -1, 1), 3)


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
        assert desc.contains(b, b_mat)


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
        assert desc.contains(b, b_mat)


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
    ]
    for desc in descs:
        json.dumps(desc.to_dict())
    cert = connectivity_certificate(kod(0, 2, 1, 0), samples=4, seed=0)
    json.dumps(cert.to_dict())
