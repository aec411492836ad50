"""The integer core of the exact layer against independent references.

The pfaffian is checked against its row expansion and against the
determinant, and the integer rank against elimination over Fractions.
"""

import random
import time

import pytest

from torusbundles import _rational as ratl
from torusbundles.lattice_core import BundleDatum, pfaffian, pfaffian_reality

from _oracles import pfaffian_expansion, random_antisymmetric


def _congruent(p, core):
    """P core P^T for an integer n x k matrix P and a k x k matrix core."""
    return ratl.mat_mul(ratl.mat_mul(p, core), ratl.transpose(p))


def test_pfaffian_matches_expansion_oracle():
    rng = random.Random(101)
    for m in range(1, 6):
        n = 2 * m
        for trial in range(30 if m < 5 else 6):
            mat = random_antisymmetric(rng, n)
            if trial % 3 == 1:  # sparse: zero pivots and pivot swaps
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.6:
                            mat[i][j] = mat[j][i] = 0
            if trial % 3 == 2 and m > 1:  # singular: rank at most n - 2
                p = [[rng.randint(-2, 2) for _ in range(n - 2)] for _ in range(n)]
                mat = _congruent(p, random_antisymmetric(rng, n - 2))
            assert pfaffian(mat) == pfaffian_expansion(mat)


def test_pfaffian_pivot_swaps_and_rational_entries():
    # pairs (0, 1), (2, 4), (3, 5): the second pivot A[2][3] vanishes
    mat = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 1), (2, 4), (3, 5)):
        mat[i][j], mat[j][i] = 1, -1
    assert pfaffian(mat) == pfaffian_expansion(mat) == -1
    # exchanging indices 0 and 2 makes the first pivot A[0][1] vanish
    swapped = [row[:] for row in mat]
    swapped[0], swapped[2] = swapped[2], swapped[0]
    for row in swapped:
        row[0], row[2] = row[2], row[0]
    assert swapped[0][1] == 0
    assert pfaffian(swapped) == pfaffian_expansion(swapped) == 1
    # unimodular congruences keep the pfaffian
    rng = random.Random(103)
    for _ in range(20):
        p = [[int(i == j) + (rng.randint(-1, 1) if j > i else 0) for j in range(6)]
             for i in range(6)]
        dense = _congruent(p, swapped)
        assert pfaffian(dense) == pfaffian_expansion(dense) == 1
    half = ratl.frac_matrix([["0", "1/2", "2/3", "0"], ["-1/2", "0", "0", "5"],
                             ["-2/3", "0", "0", "-3/4"], ["0", "-5", "3/4", "0"]])
    assert pfaffian(half) == pfaffian_expansion(half)
    # elimination divides exactly only on antisymmetric input
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [2, 0]])


def test_pfaffian_squares_to_determinant_up_to_m7():
    rng = random.Random(107)
    for m in range(1, 8):
        for trial in range(4):
            mat = random_antisymmetric(rng, 2 * m, -5, 5)
            if trial == 3 and m > 1:
                p = [[rng.randint(-2, 2) for _ in range(2 * m - 2)] for _ in range(2 * m)]
                mat = _congruent(p, random_antisymmetric(rng, 2 * m - 2))
            pf = pfaffian(mat)
            assert pf * pf == ratl.det(ratl.frac_matrix(mat))


def test_integer_rank_matches_fraction_rank():
    rng = random.Random(109)
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if rng.random() < 0.4:  # low rank product
            k = rng.randint(1, 3)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
            mat = ratl.mat_mul(left, right)
        else:
            mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            if rng.random() < 0.25:
                mat[i] = [0] * cols
        for j in range(cols):
            if rng.random() < 0.25:
                for row in mat:
                    row[j] = 0
        assert ratl._bareiss_rank(mat) == ratl.rank(ratl.frac_matrix(mat))
        assert ratl.rank(mat) == ratl._bareiss_rank(mat)


def test_pfaffian_reality_m7_within_budget():
    rng = random.Random(113)
    comps = tuple(tuple(map(tuple, random_antisymmetric(rng, 14))) for _ in range(2))
    datum = BundleDatum(m=7, d=1, components=comps)
    t0 = time.perf_counter()
    verdict = pfaffian_reality(datum)
    # (13)!! = 135135 terms by row expansion; the elimination needs milliseconds
    assert time.perf_counter() - t0 < 2.0
    # a real binary form of odd degree always has a real root
    assert verdict is True
