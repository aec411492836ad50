"""The integer core of the exact layer against independent references.

The pfaffian is checked against its row expansion and against the
determinant; rank, solve, integer_kernel and inverse, all one
fraction-free elimination, against Gauss-Jordan over Fractions; the integral conditions
and the orbifold translations on the scaled integer data against direct
Fraction evaluation.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from torusbundles import _rational as ratl
from torusbundles.lattice_core import BundleDatum, pfaffian, pfaffian_binary_form, pfaffian_reality
from torusbundles.real_structures import (
    RealStructureData,
    _square_translation,
    check_integral_conditions,
    orbifold_data,
)

from _oracles import (
    fraction_det,
    fraction_generator_translations,
    fraction_i4_failing_generator,
    fraction_i7_witness,
    fraction_square_translation,
    pfaffian_expansion,
    random_antisymmetric,
    random_involution,
    random_rational,
    rref_inverse,
    rref_kernel,
    rref_rank,
    rref_solve,
)


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
            assert pf * pf == fraction_det(mat)


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
        assert ratl.rank(mat) == rref_rank(mat)
        assert ratl.rank(ratl.frac_matrix(mat)) == rref_rank(mat)


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


def _random_matrix(rng, rows, cols):
    """ints, integral Fractions or rational Fractions, sometimes a low rank
    product, with some rows and columns zeroed."""
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.randint(1, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[random_rational(rng, 5, 4) for _ in range(cols)] for _ in range(k)]
        mat = ratl.mat_mul(left, right)
    elif kind == 1:
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    else:
        den = 1 if kind == 2 else 6
        mat = [[random_rational(rng, 9, den) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            mat[i] = [0] * cols
    for j in range(cols):
        if rng.random() < 0.15:
            for row in mat:
                row[j] = 0
    return mat


def _primitive(v):
    """A rational vector scaled to a primitive integer one, first nonzero > 0."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return [sign * x // g for x in ints]


def test_eliminations_match_rref_oracles():
    rng = random.Random(127)
    seen = Counter()
    for trial in range(500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, rows, cols)
        rk = rref_rank(mat)
        assert ratl.rank(mat) == rk
        assert ratl.integer_kernel(mat) == sorted(map(_primitive, rref_kernel(mat)))
        if trial % 2:  # a right side in the column space
            rhs = ratl.mat_vec(mat, [random_rational(rng) for _ in range(cols)])
        else:
            rhs = [random_rational(rng) for _ in range(rows)]
        got = ratl.solve(mat, rhs)
        assert got == rref_solve(mat, rhs)
        assert got is None or all(isinstance(x, Fraction) for x in got)
        q = rng.randint(1, 12)  # an integer right side over a common denominator
        int_rhs = [rng.randint(-20, 20) for _ in range(rows)]
        assert ratl.solve(mat, int_rhs, q) == rref_solve(mat, [Fraction(x, q) for x in int_rhs])
        if rows == cols:
            want = rref_inverse(mat)
            if want is None:
                with pytest.raises(ValueError):
                    ratl.inverse(mat)
            else:
                assert ratl.inverse(mat) == want
        seen["tall" if rows > cols else "wide" if rows < cols else "square"] += 1
        seen["inconsistent" if got is None else "solved"] += 1
        seen["singular" if rows == cols and rk < rows else "other"] += 1
        seen["zero row"] += any(not any(row) for row in mat)
        seen["zero column"] += any(not any(col) for col in zip(*mat))
    assert min(seen.values()) >= 20, seen


def test_pfaffian_pencil_vandermonde_matches_rref_oracle():
    rng = random.Random(131)
    for m in range(1, 8):
        vand = [[t**j for j in range(m + 1)] for t in range(m + 1)]
        samples = [rng.randint(-10**6, 10**6) for _ in range(m + 1)]
        assert ratl.solve(vand, samples) == rref_solve(vand, samples)
        assert ratl.inverse(vand) == rref_inverse(vand)
    for m in range(1, 5):
        a1, a2 = random_antisymmetric(rng, 2 * m), random_antisymmetric(rng, 2 * m)
        datum = BundleDatum(m=m, d=1, components=(a1, a2))
        vand = [[t**j for j in range(m + 1)] for t in range(m + 1)]
        samples = [
            pfaffian_expansion([[t * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a1, a2)])
            for t in range(m + 1)
        ]
        assert pfaffian_binary_form(datum) == tuple(rref_solve(vand, samples))


# the frames of the benchmark's eigensplit.unsaturated class, with the
# eigenbases integer_kernel gives for A2 = T^-1 diag(1, 1, -1, -1) T; each
# spans a sublattice of index > 1 of its eigenspace, and the benchmark
# expects exactly these until the saturation fix changes both together
UNSATURATED_FRAMES = (
    ((2, -2, -1, 0), (-1, 1, 0, 0), (-1, 2, 2, 0), (-1, -1, 0, 1)),
    ((-1, 1, 0, 2), (0, -1, 1, -1), (1, -2, 1, -2), (-1, -1, 1, 1)),
    ((0, 1, 1, -1), (-2, 2, 1, -1), (2, 0, 1, -2), (-1, 1, 1, -1)),
)
UNSATURATED_EIGENBASES = (
    ([[2, -2, 3, 0], [2, 1, 0, 3]], [[0, 0, 0, 1], [1, 1, 0, 0]]),
    ([[1, 2, 3, 0], [4, -1, 0, 3]], [[1, -1, 0, 1], [1, 1, 1, 0]]),
    ([[1, 2, 0, 1], [1, 3, -2, 0]], [[1, 2, -2, 0], [1, 2, 0, 2]]),
)


def test_integer_kernel_unchanged_on_unsaturated_frames():
    diag = [[(1 if i < 2 else -1) * int(i == j) for j in range(4)] for i in range(4)]
    for frame, bases in zip(UNSATURATED_FRAMES, UNSATURATED_EIGENBASES):
        a2 = ratl.mat_mul(ratl.mat_mul(rref_inverse(frame), diag), frame)
        for sign, want in zip((1, -1), bases):
            shifted = [[int(x) - sign * (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(a2)]
            assert ratl.integer_kernel(shifted) == want


def _random_structure(rng, m, style):
    """A bundle with d = 1 and a real structure of the given style:

    "rational": random involutions, L, d1, d2 with denominators up to 6;
    "integral": the same with integer entries, so I4 and I6 hold;
    "witness": A1 = A2 = s I and L = -(s / 2) A(., gamma0), so the I7
    witness is gamma0 when the form is nondegenerate, and gamma0 is
    integral or not.
    """
    n = 2 * m
    comps = (random_antisymmetric(rng, n), random_antisymmetric(rng, n))
    datum = BundleDatum(m=m, d=1, components=comps)
    den = 1 if style == "integral" else 6

    def draw():
        return random_rational(rng, 12, den)

    if style == "witness":
        s = rng.choice((1, -1))
        a1 = tuple(tuple(s * int(i == j) for j in range(2)) for i in range(2))
        a2 = tuple(tuple(s * int(i == j) for j in range(n)) for i in range(n))
        gamma0 = [random_rational(rng, 6, rng.choice((1, 3))) for _ in range(n)]
        lmat = tuple(
            tuple(Fraction(-s, 2) * sum(c[i][j] * g for j, g in enumerate(gamma0)) for i in range(n))
            for c in comps
        )
    else:
        a1, a2 = random_involution(rng, 2), random_involution(rng, n)
        lmat = tuple(tuple(draw() for _ in range(n)) for _ in range(2))
    rs = RealStructureData(
        A1=a1, A2=a2, L=lmat, d1=tuple(draw() for _ in range(2)), d2=tuple(draw() for _ in range(n))
    )
    return datum, rs


def test_integral_conditions_and_orbifold_match_fraction_evaluation():
    rng = random.Random(137)
    seen = Counter()
    for trial in range(240):
        m = 1 + trial % 2
        style = ("rational", "integral", "witness")[trial % 3]
        datum, rs = _random_structure(rng, m, style)
        fiber, base = fraction_square_translation(rs)
        assert _square_translation(rs) == (tuple(fiber), tuple(base))
        report = check_integral_conditions(datum, rs)
        bad4 = fraction_i4_failing_generator(datum, rs)
        assert report["I4"]["failing_generator"] == bad4
        assert report["I4"]["ok"] == (bad4 is None)
        assert report["I5"]["value"] == [str(x) for x in base]
        assert report["I6"]["value"] == [str(x) for x in fiber]
        assert report["I6"]["ok"] == all(x.denominator == 1 for x in fiber)
        gamma = fraction_i7_witness(datum, rs)
        if gamma is None:
            assert report["I7"]["witness"] is None
        else:
            assert report["I7"]["witness"] == [str(x) for x in gamma]
        assert report["I7"]["ok"] == (gamma is not None and all(x.denominator == 1 for x in gamma))
        lifts = None
        if trial % 4 == 0:
            lifts = tuple(tuple(random_rational(rng, 5, 3) for _ in range(2)) for _ in range(2 * m))
        od = orbifold_data(datum, rs, lifts=lifts)
        zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2 * m))
        want = fraction_generator_translations(datum, rs, lifts or zero)
        assert od.generator_translations == tuple(map(tuple, want))
        for name in ("I4", "I6", "I7"):
            seen[name, report[name]["ok"]] += 1
        seen["I7 witness", gamma is not None] += 1
    assert len(seen) == 8 and min(seen.values()) >= 5, seen


def test_i7_uniqueness_is_the_nondegeneracy_rank():
    rng = random.Random(139)
    seen = set()
    for trial in range(160):
        m = 1 + trial % 2
        n = 2 * m
        comps = [random_antisymmetric(rng, n) for _ in range(2)]
        if trial % 3 == 0:  # kill e_0 in both components
            for c in comps:
                for i in range(n):
                    c[0][i] = c[i][0] = 0
        elif trial % 3 == 1 and m == 2:  # both factor through a rank 2 congruence
            p = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]
            comps = [ratl.mat_mul(ratl.mat_mul(p, random_antisymmetric(rng, 2)), ratl.transpose(p))
                     for _ in range(2)]
        datum = BundleDatum(m=m, d=1, components=comps)
        zero_l = trial % 2 == 0  # L = 0: the witness 0 always exists
        rs = RealStructureData(
            A1=random_involution(rng, 2),
            A2=random_involution(rng, n),
            L=tuple(tuple(0 if zero_l else random_rational(rng) for _ in range(n)) for _ in range(2)),
            d1=(0, 0),
            d2=(0,) * n,
        )
        report = check_integral_conditions(datum, rs)
        full = rref_rank([row for c in comps for row in c]) == n
        assert report["nondegenerate"] == full
        if report["I7"]["witness"] is not None:
            assert report["I7"]["unique"] == full
            seen.add(full)
    assert seen == {True, False}
