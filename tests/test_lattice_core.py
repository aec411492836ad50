"""Exact tests for the lattice group law and pfaffian machinery.

Expected values in the frozen examples were computed by hand from the
defining formulas before the implementation existed.
"""

import random
from fractions import Fraction

import pytest

from torusbundles import _rational as ratl
from torusbundles.lattice_core import (
    BundleDatum,
    GroupElement,
    form_values,
    group_commutator,
    group_identity,
    group_inverse,
    group_multiply,
    is_nondegenerate,
    lower_triangular_split,
    normalized_action,
    pfaffian,
    pfaffian_binary_form,
    pfaffian_reality,
    psi,
    psi_inverse,
    sturm_distinct_real_roots,
    t_minus_action,
)

from _oracles import fraction_det, random_antisymmetric, random_rational_vector

J2 = ((0, 1), (-1, 0))
Z2 = ((0, 0), (0, 0))

# the standard m = 1, d = 1 datum: first component the symplectic form
STD_KODAIRA = BundleDatum(m=1, d=1, components=(J2, Z2))


def lattice(y, x):
    return GroupElement(y=tuple(y), x=tuple(x), is_lattice=True)


def point(y, x):
    return GroupElement(y=tuple(y), x=tuple(x), is_lattice=False)


# ---------------------------------------------------------------------------
# datum validation


def test_datum_rejects_non_antisymmetric_entry():
    bad = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match=r"components\[0\]\[0\]\[1\]"):
        BundleDatum(m=1, d=1, components=(bad, Z2))


def test_datum_rejects_wrong_component_count():
    with pytest.raises(ValueError, match="2 component"):
        BundleDatum(m=1, d=1, components=(J2,))


def test_datum_rejects_non_integer():
    bad = ((0, 0.5), (-0.5, 0))
    with pytest.raises(ValueError, match="not an integer"):
        BundleDatum(m=1, d=1, components=(bad, Z2))


# ---------------------------------------------------------------------------
# splitting


def test_split_frozen_example():
    # A = [[0, 1], [-1, 0]] keeps only the (1, 0) entry below the diagonal
    norm = lower_triangular_split(STD_KODAIRA)
    assert norm.T_minus[0] == ((0, 0), (-1, 0))
    assert norm.S[0] == (
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(0)),
    )
    assert norm.T_minus[1] == ((0, 0), (0, 0))


def test_split_reassembles_form():
    rng = random.Random(11)
    for _ in range(25):
        comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
        comps = tuple(tuple(tuple(r) for r in c) for c in comps)
        datum = BundleDatum(m=2, d=1, components=comps)
        norm = lower_triangular_split(datum)
        for k in range(2):
            tm = ratl.frac_matrix(norm.T_minus[k])
            rebuilt = ratl.mat_sub(tm, ratl.transpose(tm))
            assert ratl.mat_eq(rebuilt, ratl.frac_matrix(datum.components[k]))


def test_split_integrality_invariant():
    # 2 S(gamma, gamma) must be an integer vector on basis vectors and sums
    rng = random.Random(5)
    comps = tuple(random_antisymmetric(rng, 6) for _ in range(2))
    datum = BundleDatum(m=3, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps))
    norm = lower_triangular_split(datum)
    basis = [[1 if i == j else 0 for i in range(6)] for j in range(6)]
    vectors = list(basis)
    for i in range(6):
        for j in range(i + 1, 6):
            vectors.append([a + b for a, b in zip(basis[i], basis[j])])
    for v in vectors:
        for smat in norm.S:
            val = 2 * ratl.vec_mat_vec(v, ratl.frac_matrix(smat), v)
            assert val.denominator == 1


# ---------------------------------------------------------------------------
# group law


def test_group_law_frozen_example():
    norm = lower_triangular_split(STD_KODAIRA)
    e1 = lattice((0, 0), (1, 0))
    e2 = lattice((0, 0), (0, 1))
    p12 = group_multiply(e1, e2, norm)
    p21 = group_multiply(e2, e1, norm)
    # T-(e1, e2) = 0 and T-(e2, e1) = -1 for the symplectic component
    assert p12.y == (Fraction(0), Fraction(0))
    assert p21.y == (Fraction(-1), Fraction(0))
    assert p12.x == p21.x == (Fraction(1), Fraction(1))


def test_associativity_and_inverse_random():
    rng = random.Random(23)
    comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
    datum = BundleDatum(m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps))
    norm = lower_triangular_split(datum)
    e = group_identity(datum)
    for _ in range(100):
        g = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        h = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        k = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        lhs = group_multiply(group_multiply(g, h, norm), k, norm)
        rhs = group_multiply(g, group_multiply(h, k, norm), norm)
        assert lhs == rhs
        gi = group_inverse(g, norm)
        left = group_multiply(g, gi, norm)
        right = group_multiply(gi, g, norm)
        assert (left.y, left.x) == (e.y, e.x)
        assert (right.y, right.x) == (e.y, e.x)


def test_commutator_equals_form_value_and_is_central():
    rng = random.Random(31)
    comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
    datum = BundleDatum(m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps))
    norm = lower_triangular_split(datum)
    basis = [lattice((0, 0), tuple(1 if i == j else 0 for i in range(4))) for j in range(4)]
    pairs = [(g, h) for g in basis for h in basis]
    for _ in range(100):
        g = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        h = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        pairs.append((g, h))
    for g, h in pairs:
        c = group_commutator(g, h, norm)
        assert c.x == (Fraction(0),) * 4
        assert c.y == form_values(datum, g.x, h.x)
        # central: commutes with everything
        w = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        assert group_multiply(c, w, norm) == group_multiply(w, c, norm)


# ---------------------------------------------------------------------------
# normalized coordinates


def test_normalized_action_frozen_example():
    norm = lower_triangular_split(STD_KODAIRA)
    p = point((0, 0), (0, 1))
    gamma = lattice((0, 0), (1, 0))
    out = normalized_action(p, gamma, STD_KODAIRA, norm)
    # A(e2, e1) = -1 in the first component, S(e1, e1) = 0
    assert out.y == (Fraction(-1), Fraction(0))
    assert out.x == (Fraction(1), Fraction(1))


def test_normalized_action_is_psi_conjugate():
    rng = random.Random(47)
    comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
    datum = BundleDatum(m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps))
    norm = lower_triangular_split(datum)
    for _ in range(100):
        p = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        gamma = lattice(
            [rng.randint(-4, 4) for _ in range(2)],
            [rng.randint(-4, 4) for _ in range(4)],
        )
        via_raw = psi(t_minus_action(psi_inverse(p, norm), gamma, norm), norm)
        assert normalized_action(p, gamma, datum, norm) == via_raw


def test_normalized_action_composes_with_raw_product():
    rng = random.Random(53)
    comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
    datum = BundleDatum(m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps))
    norm = lower_triangular_split(datum)
    for _ in range(50):
        p = point(random_rational_vector(rng, 2), random_rational_vector(rng, 4))
        g1 = lattice(
            [rng.randint(-3, 3) for _ in range(2)],
            [rng.randint(-3, 3) for _ in range(4)],
        )
        g2 = lattice(
            [rng.randint(-3, 3) for _ in range(2)],
            [rng.randint(-3, 3) for _ in range(4)],
        )
        one_shot = normalized_action(p, group_multiply(g1, g2, norm), datum, norm)
        two_step = normalized_action(normalized_action(p, g1, datum, norm), g2, datum, norm)
        assert one_shot == two_step


def test_normalized_action_preserves_lattice_points():
    norm = lower_triangular_split(STD_KODAIRA)
    p = lattice((3, -2), (5, 7))
    gamma = lattice((1, 0), (-2, 3))
    out = normalized_action(p, gamma, STD_KODAIRA, norm)
    assert out.is_lattice
    assert all(v.denominator == 1 for v in out.y + out.x)


def test_action_rejects_non_lattice():
    norm = lower_triangular_split(STD_KODAIRA)
    p = point((0, 0), (0, 0))
    not_lattice = point((Fraction(1, 2), 0), (0, 0))
    with pytest.raises(ValueError):
        normalized_action(p, not_lattice, STD_KODAIRA, norm)
    with pytest.raises(ValueError):
        t_minus_action(p, not_lattice, norm)


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegenerate_standard_pair():
    assert is_nondegenerate(STD_KODAIRA)


def test_degenerate_common_kernel():
    # both components kill e4
    a1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    a2 = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]]
    datum = BundleDatum(
        m=2, d=1, components=(tuple(map(tuple, a1)), tuple(map(tuple, a2)))
    )
    assert not is_nondegenerate(datum)


# ---------------------------------------------------------------------------
# pfaffians


def test_pfaffian_small_sizes():
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    mat = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    # a12 a34 - a13 a24 + a14 a23
    assert pfaffian(mat) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_squares_to_determinant():
    rng = random.Random(61)
    for n in (2, 4, 6):
        for _ in range(20):
            mat = random_antisymmetric(rng, n, -5, 5)
            pf = pfaffian(mat)
            assert pf * pf == fraction_det(mat)


def test_binary_form_frozen_examples():
    # form s^2 + t^2: no real root
    a1 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    a2 = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
    datum = BundleDatum(m=2, d=1, components=(a1, a2))
    assert pfaffian_binary_form(datum) == (1, 0, 1)
    assert pfaffian_reality(datum) is False
    assert pfaffian_reality(datum, method="sturm") is False

    # form s t: real roots at both axes
    b1 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    b2 = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    datum2 = BundleDatum(m=2, d=1, components=(b1, b2))
    assert pfaffian_binary_form(datum2) == (0, 1, 0)
    assert pfaffian_reality(datum2) is True
    assert pfaffian_reality(datum2, method="sturm") is True


def test_binary_form_endpoint_coefficients():
    rng = random.Random(71)
    for _ in range(30):
        comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
        datum = BundleDatum(
            m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps)
        )
        coeffs = pfaffian_binary_form(datum)
        assert coeffs[2] == pfaffian(datum.components[0])
        assert coeffs[0] == pfaffian(datum.components[1])


def test_pfaffian_reality_degenerate_directions():
    # second component zero: the form is Pf(A1) s^m with root (0, 1)
    a1 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    z4 = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    datum = BundleDatum(m=2, d=1, components=(a1, z4))
    assert pfaffian_reality(datum) is True
    # identically zero form
    datum0 = BundleDatum(m=2, d=1, components=(z4, z4))
    assert pfaffian_reality(datum0) is True


def test_sturm_counts():
    # (t - 1)(t - 2)(t - 3) has three distinct roots
    assert sturm_distinct_real_roots([-6, 11, -6, 1]) == 3
    # t^2 + 1 has none
    assert sturm_distinct_real_roots([1, 0, 1]) == 0
    # (t - 1)^2 counts once
    assert sturm_distinct_real_roots([1, -2, 1]) == 1
    # t^3 counts once
    assert sturm_distinct_real_roots([0, 0, 0, 1]) == 1


def test_sturm_matches_discriminant_on_random_pencils():
    rng = random.Random(83)
    for _ in range(1000):
        comps = tuple(random_antisymmetric(rng, 4) for _ in range(2))
        datum = BundleDatum(
            m=2, d=1, components=tuple(tuple(tuple(r) for r in c) for c in comps)
        )
        assert pfaffian_reality(datum, method="sturm") == pfaffian_reality(
            datum, method="discriminant"
        )


def test_pfaffian_reality_needs_d_one():
    comps = tuple(
        tuple(tuple(r) for r in random_antisymmetric(random.Random(1), 2))
        for _ in range(4)
    )
    datum = BundleDatum(m=1, d=2, components=comps)
    with pytest.raises(ValueError):
        pfaffian_reality(datum)
