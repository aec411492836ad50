"""Tests for Hodge subspaces, compatibility residuals and the cocycle.

The frozen decomposition values for the symplectic example were computed
by hand: pairing v = (1, -i) against its conjugate through the block form
gives 2i per block, whose fiber frame coordinate is i.
"""

import numpy as np
import pytest

from torusbundles.lattice_core import BundleDatum
from torusbundles.complex_structures import (
    AppellHumbertPoint,
    ComplexStructurePair,
    cocycle_F,
    decompose,
    fiber_lattice_coordinates,
    hodge_subspace,
    holonomy_action,
    is_parallelizable,
    is_singular_point,
    orientation_preserving,
    riemann_residual,
    standard_structure,
)

from _oracles import random_antisymmetric

OM4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
Z4 = tuple(tuple(0 for _ in range(4)) for _ in range(4))
SYMPLECTIC = BundleDatum(m=2, d=1, components=(OM4, Z4))
STD_PAIR = ComplexStructurePair(standard_structure(1), standard_structure(2))


def near_standard_structure(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random conjugate of the standard structure by a mild perturbation."""
    n = 2 * k
    T = np.eye(n) + 0.3 * rng.uniform(-1, 1, size=(n, n))
    return T @ standard_structure(k) @ np.linalg.inv(T)


def random_datum(rng: np.random.Generator, m: int, d: int) -> BundleDatum:
    pyrng = _PyRNG(rng)
    comps = tuple(
        tuple(tuple(row) for row in random_antisymmetric(pyrng, 2 * m))
        for _ in range(2 * d)
    )
    return BundleDatum(m=m, d=d, components=comps)


class _PyRNG:
    """Adapter so the shared integer generator runs off a numpy Generator."""

    def __init__(self, rng):
        self.rng = rng

    def randint(self, lo, hi):
        return int(self.rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# hodge subspaces


def test_hodge_subspace_frozen_column():
    basis = hodge_subspace(standard_structure(1))
    assert basis.shape == (2, 1)
    np.testing.assert_allclose(basis[:, 0], [1.0, -1.0j], atol=1e-14)


def test_hodge_subspace_block_columns():
    basis = hodge_subspace(standard_structure(2))
    assert basis.shape == (4, 2)
    np.testing.assert_allclose(basis[:, 0], [1, -1j, 0, 0], atol=1e-14)
    np.testing.assert_allclose(basis[:, 1], [0, 0, 1, -1j], atol=1e-14)


def test_hodge_columns_are_plus_i_eigenvectors():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        J = near_standard_structure(rng, k)
        basis = hodge_subspace(J)
        np.testing.assert_allclose(J @ basis, 1j * basis, atol=1e-10)
        full = np.column_stack([basis, np.conj(basis)])
        assert np.linalg.matrix_rank(full) == 2 * k


def test_hodge_subspace_rejects_non_structure():
    with pytest.raises(ValueError):
        hodge_subspace(np.eye(2))


def test_orientation_flips_with_structure_sign():
    assert orientation_preserving(standard_structure(1))
    assert not orientation_preserving(-standard_structure(1))


def test_pair_orientation_flag():
    assert STD_PAIR.orientation_ok
    # a sign flip on a single two dimensional factor reverses orientation;
    # flipping both blocks of the base structure would preserve it
    flipped = ComplexStructurePair(-standard_structure(1), standard_structure(2))
    assert not flipped.orientation_ok


# ---------------------------------------------------------------------------
# compatibility residual


def test_symplectic_pair_is_compatible():
    assert riemann_residual(SYMPLECTIC, STD_PAIR) <= 1e-13


def test_residual_zero_for_m_one_always():
    # for a one dimensional base both routes vanish identically
    rng = np.random.default_rng(19)
    for _ in range(50):
        datum = random_datum(rng, 1, 1)
        pair = ComplexStructurePair(
            near_standard_structure(rng, 1), near_standard_structure(rng, 1)
        )
        assert riemann_residual(datum, pair) <= 1e-10


def test_residual_routes_agree_on_incompatible_data():
    rng = np.random.default_rng(23)
    for _ in range(50):
        datum = random_datum(rng, 2, 1)
        pair = ComplexStructurePair(
            near_standard_structure(rng, 1), near_standard_structure(rng, 2)
        )
        # must not raise: the two routes have to agree even far from zero
        riemann_residual(datum, pair)


def test_decompose_rejects_incompatible():
    bad = list(map(list, OM4))
    bad[0][2] = 5
    bad[2][0] = -5
    datum = BundleDatum(m=2, d=1, components=(tuple(map(tuple, bad)), Z4))
    if riemann_residual(datum, STD_PAIR) > 1e-8:
        with pytest.raises(ValueError, match="not compatible"):
            decompose(datum, STD_PAIR)


# ---------------------------------------------------------------------------
# decomposition pieces


def test_frozen_decomposition_of_symplectic_example():
    dec = decompose(SYMPLECTIC, STD_PAIR)
    np.testing.assert_allclose(dec.B_prime, np.zeros((1, 2, 2)), atol=1e-13)
    np.testing.assert_allclose(
        dec.B_doubleprime, np.array([[[1j, 0], [0, 1j]]]), atol=1e-13
    )
    assert dec.reconstruction_residual <= 1e-12
    assert not is_parallelizable(dec)
    assert not is_singular_point(dec)


def test_zero_form_is_parallelizable_and_singular_for_m_three():
    z6 = tuple(tuple(0 for _ in range(6)) for _ in range(6))
    datum = BundleDatum(m=3, d=1, components=(z6, z6))
    pair = ComplexStructurePair(standard_structure(1), standard_structure(3))
    dec = decompose(datum, pair)
    assert is_parallelizable(dec)
    assert is_singular_point(dec)
    # for m = 2 the family has no singular points
    datum2 = BundleDatum(m=2, d=1, components=(Z4, Z4))
    dec2 = decompose(datum2, STD_PAIR)
    assert not is_singular_point(dec2)


def test_singularity_needs_d_one():
    z2 = ((0, 0), (0, 0))
    datum = BundleDatum(m=1, d=2, components=(z2, z2, z2, z2))
    pair = ComplexStructurePair(standard_structure(2), standard_structure(1))
    dec = decompose(datum, pair)
    with pytest.raises(ValueError):
        is_singular_point(dec)


def test_double_prime_skew_exchange_on_basis():
    # B''(v, conj w) = -B''(w, conj v) realized through the ambient form
    dec = decompose(SYMPLECTIC, STD_PAIR)
    comps = np.array(SYMPLECTIC.components, dtype=complex)
    V = dec.v_basis
    lhs = np.einsum("ri,krs,sj->kij", V, comps, np.conj(V))
    rhs = np.einsum("ri,krs,sj->kij", np.conj(V), comps, V)
    np.testing.assert_allclose(lhs, -np.transpose(rhs, (0, 2, 1)), atol=1e-13)


# ---------------------------------------------------------------------------
# cocycle and action


def test_cocycle_composition_modulo_fiber_lattice():
    rng = np.random.default_rng(31)
    dec = decompose(SYMPLECTIC, STD_PAIR)
    for _ in range(50):
        gamma1 = rng.integers(-5, 6, size=4).astype(float)
        gamma2 = rng.integers(-5, 6, size=4).astype(float)
        u = rng.normal(size=1) + 1j * rng.normal(size=1)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u1, v1 = holonomy_action(dec, gamma2, u, v)
        u12, v12 = holonomy_action(dec, gamma1, u1, v1)
        u_sum, v_sum = holonomy_action(dec, gamma1 + gamma2, u, v)
        np.testing.assert_allclose(v12, v_sum, atol=1e-10)
        diff = u12 - u_sum
        assert fiber_lattice_coordinates(dec, diff) is not None


def test_cocycle_vanishes_at_zero():
    dec = decompose(SYMPLECTIC, STD_PAIR)
    out = cocycle_F(dec, np.zeros(4), np.array([1.0 + 0.5j, -2.0]))
    np.testing.assert_allclose(out, np.zeros(1), atol=1e-14)


def test_phi_shift_enters_linearly():
    dec = decompose(SYMPLECTIC, STD_PAIR)
    phi = np.array([[2.0 + 1.0j, -1.0j]])
    point = AppellHumbertPoint(structure=dec, phi=phi)
    gamma = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.3 + 0.1j, -0.7j])
    base = cocycle_F(dec, gamma, v)
    shifted = cocycle_F(point, gamma, v)
    g = dec._frame2.plus_coords(gamma)
    np.testing.assert_allclose(shifted - base, phi @ g, atol=1e-13)


def test_phi_shape_validated():
    dec = decompose(SYMPLECTIC, STD_PAIR)
    with pytest.raises(ValueError):
        AppellHumbertPoint(structure=dec, phi=np.zeros((2, 2)))


def test_fiber_lattice_membership_detects_non_members():
    dec = decompose(SYMPLECTIC, STD_PAIR)
    inside = dec._frame1.plus_coords(np.array([3.0, -2.0]))
    assert fiber_lattice_coordinates(dec, inside) is not None
    outside = inside + 0.37
    assert fiber_lattice_coordinates(dec, outside) is None


def test_structure_check_scales_and_rejects_non_finite():
    # J^2 = -I with entries 1e200 and 1e-200: squaring 1e200 used to overflow
    pair = ComplexStructurePair(standard_structure(1), np.array([[0.0, 1e200], [-1e-200, 0.0]]))
    assert pair.J2[0, 1] == 1e200
    with pytest.raises(ValueError, match="does not square"):
        ComplexStructurePair(standard_structure(1), np.array([[0.0, 1e300], [-1e300, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="J2 entries must be finite"):
            ComplexStructurePair(standard_structure(1), np.array([[0.0, -1.0], [1.0, bad]]))
