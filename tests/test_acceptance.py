"""Acceptance gate: end-to-end properties with frozen tolerances and budgets.

One test per acceptance property.  Seeds, sample counts, tolerances and
time budgets are pinned here; a failure is a build failure, not a tuning
suggestion.  Oracles live in _oracles and are implementation-independent.
"""

import random
import time
from fractions import Fraction

import numpy as np

from torusbundles import _rational as ratl
from torusbundles.complex_structures import (
    ComplexStructurePair,
    decompose,
    riemann_residual,
    standard_structure,
)
from torusbundles.lattice_core import (
    BundleDatum,
    GroupElement,
    form_values,
    group_commutator,
    group_multiply,
    lower_triangular_split,
    normalized_action,
    pfaffian_binary_form,
    pfaffian_reality,
    psi,
    psi_inverse,
    t_minus_action,
)
from torusbundles.real_structures import (
    CompatibleStructure,
    RealStructureData,
    normalize_translation,
    orbifold_data,
    reconstruct_from_orbifold,
    tensor_equations_residuals,
)
from torusbundles.solver_explorer import (
    ConstraintSystem,
    connectivity_certificate,
    sample_solutions,
    solve,
    solve_kodaira,
)

from _oracles import (
    kodaira_grid_solutions,
    projective_sweep_has_real_root,
    random_antisymmetric,
    random_involution,
    random_rational,
    random_rational_vector,
    threefold_multistart_solutions,
)

J2X2 = ((0, 1), (-1, 0))
Z2X2 = ((0, 0), (0, 0))
OM4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
Z4X4 = tuple(tuple(0 for _ in range(4)) for _ in range(4))

STD_M1 = BundleDatum(m=1, d=1, components=(J2X2, Z2X2))
STD_M2 = BundleDatum(m=2, d=1, components=(OM4, Z4X4))


# ---------------------------------------------------------------------------
# 1. the four mixed-block tensor equations vanish together


def test_criterion_1_tensor_equation_equivalence():
    """residual(2) <= 1e-10 forces residuals (1), (3), (4) <= 1e-8."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    triggered = 0
    for i in range(1000):
        a_plus = float(rng.integers(-3, 4))
        d_block = rng.integers(-3, 4, size=(2, 2)).astype(float)
        b = float(rng.uniform(0.2, 3.0))
        while True:
            b2 = rng.uniform(-2.0, 2.0, size=(2, 2))
            if np.linalg.det(b2) >= 0.5:
                break
        if i % 2 == 0:
            # choose the antisymmetric block so the second equation holds
            cross = b2.T @ d_block.T - d_block @ b2
            a_minus = a_plus * float(np.linalg.det(b2)) + b * float(cross[0, 1])
        else:
            a_minus = float(rng.uniform(-4.0, 4.0))
        sys2 = ConstraintSystem.from_blocks(
            2,
            a_plus,
            a_minus,
            d_block,
            rng.integers(-3, 4, size=2).astype(float),
            rng.integers(-3, 4, size=2).astype(float),
            rng.integers(-3, 4, size=2).astype(float),
            rng.integers(-3, 4, size=2).astype(float),
        )
        cs = CompatibleStructure(B1=[[b]], B2=b2)
        res = tensor_equations_residuals(sys2.split, cs)
        if res[1] <= 1e-10:
            triggered += 1
            assert max(res[0], res[2], res[3]) <= 1e-8, (i, res)
    elapsed = time.perf_counter() - t0
    assert triggered >= 500
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 1 PASS: {triggered}/1000 non-vacuous, {elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 2. one-dimensional base: descriptions match the grid oracle


def _grid_shape(points):
    """Classify oracle output; the full-plane family is the fallthrough."""
    if not points:
        return "empty", {}
    pts = np.array(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    if len(pts) == 1 or (x.std() < 1e-4 and y.std() < 1e-4):
        return "point", {"b1": float(x.mean()), "b2": float(y.mean())}
    prod = x * y
    if prod.std() <= 1e-4 * max(1.0, abs(prod.mean())):
        return "hyperbola", {"kappa": float(prod.mean())}
    ratio = x / y
    if ratio.std() <= 1e-4 * max(1.0, abs(ratio.mean())):
        return "ray", {"slope": float(ratio.mean())}
    return "quadrant", {}


def _draw_kodaira_blocks(rng):
    """Random integers in [-3, 3]; zero patterns mixed in for shape coverage."""
    style = rng.random()
    if style < 0.08:
        return 0, 0, 0, 0
    if style < 0.25:
        return 0, rng.randint(-3, 3), rng.randint(-3, 3), 0
    if style < 0.40:
        sign = rng.choice((1, -1))
        return sign * rng.choice((1, 2, 3)), 0, 0, -sign * rng.choice((1, 2, 3))
    if style < 0.70:
        lpp = rng.choice((1, 2, 3))
        lmm = rng.choice((-1, -2, -3))
        if rng.random() < 0.5:
            lpp, lmm = -lpp, -lmm
        return lpp, rng.randint(-3, 3), rng.randint(-3, 3), lmm
    return tuple(rng.randint(-3, 3) for _ in range(4))


def test_criterion_2_kodaira_families_match_grid_oracle():
    """100 random integer systems: emptiness, shape, parameters, one component."""
    rng = random.Random(2)
    t0 = time.perf_counter()
    seen = {}
    for trial in range(100):
        lpp, lpm, lmp, lmm = _draw_kodaira_blocks(rng)
        sysk = ConstraintSystem.from_blocks(
            1, 0.0, 0.0, [[0.0]], [lpp], [lpm], [lmp], [lmm]
        )
        desc = solve_kodaira(sysk)
        shape, params = _grid_shape(kodaira_grid_solutions(lpp, lpm, lmp, lmm))
        ctx = (trial, lpp, lpm, lmp, lmm)
        assert (not desc.is_empty) == (shape != "empty"), ctx
        seen[shape] = seen.get(shape, 0) + 1
        if desc.is_empty:
            continue
        assert desc.kind == shape, (ctx, desc.kind, shape)
        if shape == "hyperbola":
            kappa = desc.constants["kappa"]
            assert abs(params["kappa"] - kappa) <= 1e-5 * max(1.0, abs(kappa)), ctx
        elif shape == "ray":
            slope = desc.constants["slope"]
            assert abs(params["slope"] - slope) <= 1e-5 * max(1.0, abs(slope)), ctx
        elif shape == "point":
            b2 = desc.constants["b2"]
            b1 = desc.constants["slope"] * b2
            assert abs(params["b2"] - b2) <= 1e-6 * max(1.0, abs(b2)), ctx
            assert abs(params["b1"] - b1) <= 1e-6 * max(1.0, abs(b1)), ctx
        cert = connectivity_certificate(sysk, samples=20, seed=0)
        assert cert.component_count == 1, ctx
    elapsed = time.perf_counter() - t0
    nonempty = sum(v for s, v in seen.items() if s != "empty")
    assert nonempty >= 25, seen
    for shape in ("quadrant", "hyperbola", "ray", "point", "empty"):
        assert seen.get(shape, 0) > 0, seen
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 2 PASS: shapes {seen}, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 3. two-dimensional base: nonempty families certify as one component


def _draw_threefold_system(rng):
    """Random integer blocks in [-3, 3], mixing degenerate row patterns."""
    def row():
        return [rng.randint(-3, 3) for _ in range(2)]

    a_plus, a_minus = rng.randint(-3, 3), rng.randint(-3, 3)
    d_block = [row(), row()]
    style = rng.random()
    if style < 0.25:
        rows = [[0, 0], [0, 0], [0, 0], [0, 0]]
    elif style < 0.45:
        base = row()
        c = rng.choice((-1, 1))
        rows = [base, row(), [c * v for v in base], row()]
    elif style < 0.60:
        rows = [[0, 0], row(), row(), row()]
    elif style < 0.75:
        rows = [row(), row(), [0, 0], row()]
    else:
        rows = [row(), row(), row(), row()]
    return a_plus, a_minus, d_block, rows


def test_criterion_3_threefold_families_certify_one_component():
    """>= 50 nonempty random integer systems, 20 samples each, count = 1."""
    rng = random.Random(3)
    t0 = time.perf_counter()
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 600:
        attempts += 1
        a_plus, a_minus, d_block, rows = _draw_threefold_system(rng)
        l_zero = all(v == 0 for r in rows for v in r)
        if l_zero and a_plus == 0 and a_minus == 0:
            # the family may genuinely split here; outside this property
            continue
        sys2 = ConstraintSystem.from_blocks(2, a_plus, a_minus, d_block, *rows)
        if solve(sys2).is_empty:
            continue
        cert = connectivity_certificate(sys2, samples=20, seed=0)
        assert cert.component_count == 1, (a_plus, a_minus, d_block, rows)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 50
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 3 PASS: {checked} systems certified, {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# 4. vanishing linear part and mixed block: determinant pinned to a ratio


def test_criterion_4_quadric_family_sampler_and_empty_side():
    zrow = [0.0, 0.0]
    zmat = [[0.0, 0.0], [0.0, 0.0]]
    for a_plus, a_minus in ((1, 1), (2, 3), (-1, -2), (3, 2), (1, 5)):
        sys2 = ConstraintSystem.from_blocks(
            2, a_plus, a_minus, zmat, zrow, zrow, zrow, zrow
        )
        desc = solve(sys2)
        assert desc.case_label == "L0.D0" and desc.kind == "quadric"
        ratio = a_minus / a_plus
        samples = sample_solutions(sys2, 40, seed=4)
        assert len(samples) >= 30
        for wit in samples:
            assert wit.b > 0
            assert abs(np.linalg.det(wit.b_matrix) - ratio) <= 1e-9
    znp = np.zeros(2)
    dnp = np.zeros((2, 2))
    for a_plus, a_minus in ((1, -1), (-2, 3), (1, 0), (2, -5)):
        sys2 = ConstraintSystem.from_blocks(
            2, a_plus, a_minus, zmat, zrow, zrow, zrow, zrow
        )
        assert solve(sys2).is_empty, (a_plus, a_minus)
        roots = threefold_multistart_solutions(
            (znp, znp, znp, znp, float(a_plus), float(a_minus), dnp),
            tries=120,
            seed=4,
        )
        assert roots == [], (a_plus, a_minus)
    print("criterion 4 PASS: |det B - ratio| <= 1e-9 on all samples; empty side confirmed")


# ---------------------------------------------------------------------------
# 5. involution data round trip is exact in rational arithmetic


def test_criterion_5_orbifold_round_trip_exact():
    """100 random rational structures reconstruct exactly after normalization."""
    rng = random.Random(5)
    total = 0
    for datum in (STD_M1, STD_M2):
        n, k = 2 * datum.m, 2 * datum.d
        for _ in range(50):
            rs = RealStructureData(
                A1=random_involution(rng, k),
                A2=random_involution(rng, n),
                L=tuple(tuple(random_rational(rng, 12) for _ in range(n)) for _ in range(k)),
                d1=tuple(random_rational(rng, 12) for _ in range(k)),
                d2=tuple(random_rational(rng, 12) for _ in range(n)),
            )
            od = orbifold_data(datum, rs)
            back = reconstruct_from_orbifold(datum, od)
            assert normalize_translation(back) == normalize_translation(rs)
            total += 1
    assert total == 100
    print("criterion 5 PASS: 100/100 exact rational round trips")


# ---------------------------------------------------------------------------
# 6. the two compatibility-residual formulations agree


def _identity_by_loops(comps, J1, J2):
    """Residual of the defining identity evaluated entrywise on the basis."""
    n = J2.shape[0]
    eye = np.eye(n)
    worst = 0.0

    def form(x, y):
        return np.array([x @ a @ y for a in comps])

    for i in range(n):
        for j in range(n):
            x, y = eye[:, i], eye[:, j]
            val = (
                form(x, J2 @ y)
                + form(J2 @ x, y)
                - J1 @ form(x, y)
                + J1 @ form(J2 @ x, J2 @ y)
            )
            worst = max(worst, float(np.max(np.abs(val))))
    return worst


def test_criterion_6_compatibility_residual_routes_agree():
    """1000 random pairs; the residual computes both ways and must not drift."""
    pyrng = random.Random(6)
    nprng = np.random.default_rng(60)
    t0 = time.perf_counter()
    m1_checked = 0
    for i in range(1000):
        m = (i % 3) + 1
        d = 1 if i % 3 != 2 else 2
        comps = tuple(
            tuple(tuple(r) for r in random_antisymmetric(pyrng, 2 * m))
            for _ in range(2 * d)
        )
        datum = BundleDatum(m=m, d=d, components=comps)
        n1 = 2 * d
        T1 = np.eye(n1) + 0.3 * nprng.uniform(-1, 1, size=(n1, n1))
        J1 = T1 @ standard_structure(d) @ np.linalg.inv(T1)
        n2 = 2 * m
        T2 = np.eye(n2) + 0.3 * nprng.uniform(-1, 1, size=(n2, n2))
        J2 = T2 @ standard_structure(m) @ np.linalg.inv(T2)
        pair = ComplexStructurePair(J1, J2)
        # the call itself raises if the two internal routes drift past 1e-10
        res = riemann_residual(datum, pair)
        if m == 1:
            m1_checked += 1
            assert res <= 1e-10, (i, res)
        if i % 20 == 0:
            loops = _identity_by_loops(
                np.array(datum.components, dtype=float), pair.J1, pair.J2
            )
            assert abs(loops - res) <= 1e-10 * max(1.0, loops), (i, loops, res)
    elapsed = time.perf_counter() - t0
    assert m1_checked >= 300
    print(f"criterion 6 PASS: 1000 pairs agree within 1e-10, {m1_checked} vanish (m=1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. decomposition reassembles the form; mixed piece swaps antisymmetrically


def _acc_int_unimodular(rng, n, ops):
    mat = np.eye(n, dtype=np.int64)
    for _ in range(ops):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j:
            continue
        mat[i] += int(rng.choice((-1, 1))) * mat[j]
    return mat


def test_criterion_7_decomposition_fidelity():
    rng = np.random.default_rng(7)
    pyrng = random.Random(70)
    cases = []
    for _ in range(50):
        comps = (
            tuple(tuple(r) for r in random_antisymmetric(pyrng, 2)),
            tuple(tuple(r) for r in random_antisymmetric(pyrng, 2)),
        )
        datum = BundleDatum(m=1, d=1, components=comps)
        T1 = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
        T2 = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
        pair = ComplexStructurePair(
            T1 @ standard_structure(1) @ np.linalg.inv(T1),
            T2 @ standard_structure(1) @ np.linalg.inv(T2),
        )
        cases.append((datum, pair))
    comps0 = np.array(STD_M2.components, dtype=np.int64)
    for _ in range(50):
        # integer change of frame transports the compatible seed pair
        t_mat = _acc_int_unimodular(rng, 4, 3)
        s_mat = _acc_int_unimodular(rng, 2, 2)
        moved = np.einsum("kl,ir,lij,js->krs", s_mat, t_mat, comps0, t_mat)
        datum = BundleDatum(
            m=2,
            d=1,
            components=tuple(
                tuple(tuple(int(v) for v in r) for r in mat) for mat in moved
            ),
        )
        pair = ComplexStructurePair(
            s_mat @ standard_structure(1) @ np.linalg.inv(s_mat.astype(float)),
            np.linalg.inv(t_mat.astype(float)) @ standard_structure(2) @ t_mat,
        )
        cases.append((datum, pair))
    for idx, (datum, pair) in enumerate(cases):
        dec = decompose(datum, pair)
        assert dec.reconstruction_residual <= 1e-12, (idx, dec.reconstruction_residual)
        comps = np.array(datum.components, dtype=complex)
        v_basis = dec.v_basis
        scale = max(1.0, float(np.max(np.abs(comps.real))))
        lhs = np.einsum("ri,krs,sj->kij", v_basis, comps, np.conj(v_basis))
        rhs = np.einsum("ri,krs,sj->kij", np.conj(v_basis), comps, v_basis)
        gap = float(np.max(np.abs(lhs + np.transpose(rhs, (0, 2, 1)))))
        assert gap <= 1e-12 * scale, (idx, gap)
    print("criterion 7 PASS: 100 pairs, reconstruction <= 1e-12 relative, swap exact")


# ---------------------------------------------------------------------------
# 8. degree-two pfaffian reality: exact decisions match the dense sweep


def test_criterion_8_pfaffian_reality_decisions_agree():
    rng = random.Random(8)
    t0 = time.perf_counter()
    positives = 0
    for i in range(1000):
        comps = tuple(
            tuple(tuple(r) for r in random_antisymmetric(rng, 4)) for _ in range(2)
        )
        datum = BundleDatum(m=2, d=1, components=comps)
        sturm = pfaffian_reality(datum, method="sturm")
        disc = pfaffian_reality(datum, method="discriminant")
        sweep = projective_sweep_has_real_root(pfaffian_binary_form(datum))
        assert sturm == disc == sweep, (i, comps, sturm, disc, sweep)
        positives += int(sweep)
    elapsed = time.perf_counter() - t0
    assert 0 < positives < 1000
    print(f"criterion 8 PASS: 1000/1000 agree ({positives} with real zeros), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. group law: exact rational identities


def _pt(y, x):
    return GroupElement(y=tuple(y), x=tuple(x), is_lattice=False)


def _lat(y, x):
    return GroupElement(y=tuple(y), x=tuple(x), is_lattice=True)


def test_criterion_9_group_law_suite_exact():
    rng = random.Random(9)
    comps = tuple(
        tuple(tuple(r) for r in random_antisymmetric(rng, 4)) for _ in range(2)
    )
    data = (STD_M1, BundleDatum(m=2, d=1, components=comps))
    for datum in data:
        n, k = 2 * datum.m, 2 * datum.d
        norm = lower_triangular_split(datum)
        basis = [
            _lat((0,) * k, tuple(1 if i == j else 0 for i in range(n)))
            for j in range(n)
        ]
        pairs = [(g, h) for g in basis for h in basis]
        for _ in range(100):
            pairs.append(
                (
                    _pt(random_rational_vector(rng, k), random_rational_vector(rng, n)),
                    _pt(random_rational_vector(rng, k), random_rational_vector(rng, n)),
                )
            )
        for g, h in pairs:
            w = _pt(random_rational_vector(rng, k), random_rational_vector(rng, n))
            lhs = group_multiply(group_multiply(g, h, norm), w, norm)
            rhs = group_multiply(g, group_multiply(h, w, norm), norm)
            assert lhs == rhs
            c = group_commutator(g, h, norm)
            assert c.x == (Fraction(0),) * n
            assert c.y == form_values(datum, g.x, h.x)
            assert group_multiply(c, w, norm) == group_multiply(w, c, norm)
        for _ in range(100):
            p = _pt(random_rational_vector(rng, k), random_rational_vector(rng, n))
            gamma = _lat(
                [rng.randint(-4, 4) for _ in range(k)],
                [rng.randint(-4, 4) for _ in range(n)],
            )
            direct = normalized_action(p, gamma, datum, norm)
            via = psi(t_minus_action(psi_inverse(p, norm), gamma, norm), norm)
            assert direct == via
    print("criterion 9 PASS: associativity, centrality, commutator, conjugation exact")
