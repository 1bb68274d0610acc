"""Pfaffian arithmetic against the matching-sum definition, plus the
complete-intersection / Roberts classification of the Pfaffian rings."""

from fractions import Fraction
from math import comb

import pytest

from grasstodd import (
    AntisymmetricMatrix,
    classify_B,
    cross_check_B2,
    determinant,
    pfaffian,
)
from grasstodd.pfaffian import _exact_quotients
from oracles import (
    exact_determinant,
    expansion_pfaffian,
    matching_sum_pfaffian,
    random_antisymmetric,
)


def _sparse_cases(rng, sizes, per_size):
    """Random antisymmetric matrices of each size, dense and with zero
    entries that force pivot swaps, plus the all-zero one."""
    for size in sizes:
        yield [[Fraction(0)] * size for _ in range(size)]
        for n in range(per_size):
            yield random_antisymmetric(rng, size, zero_share=(0.0, 0.5, 0.8)[n % 3])


def test_from_rows_validation():
    with pytest.raises(ValueError, match="diagonal"):
        AntisymmetricMatrix.from_rows([[1, 2], [-2, 0]])
    with pytest.raises(ValueError, match="negative"):
        AntisymmetricMatrix.from_rows([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="row 2"):
        AntisymmetricMatrix.from_rows([[0, 1], [-1]])
    z = AntisymmetricMatrix.from_rows([[0, "1/2"], ["-1/2", 0]])
    assert z.size == 2
    assert z.entries[0][1] == Fraction(1, 2)


def test_from_rows_compares_values_not_spellings():
    z = AntisymmetricMatrix.from_rows(
        [[0, "2/4", 3, "1.5"], ["-1/2", 0, 0, 0], [Fraction(-3), 0, 0, 0], ["-3/2", 0, 0, 0]]
    )
    assert z.entries[0] == (0, Fraction(1, 2), 3, Fraction(3, 2))
    assert all(type(x) is Fraction for row in z.entries for x in row)
    # the first offending entry, in row order, is the one named
    rows = [[0, 1, 2], [-1, 5, 7], [-2, 3, 4]]
    with pytest.raises(ValueError, match=r"^entry \(2,2\) must be zero on the diagonal$"):
        AntisymmetricMatrix.from_rows(rows)
    rows[1][1] = 0
    with pytest.raises(ValueError, match=r"^entry \(3,2\) is not the negative of \(2,3\)$"):
        AntisymmetricMatrix.from_rows(rows)
    rows[2] = ["-2", "-7/1", "0.0"]
    rows[0][2] = Fraction(5, 2)
    with pytest.raises(ValueError, match=r"^entry \(3,1\) is not the negative of \(1,3\)$"):
        AntisymmetricMatrix.from_rows(rows)
    # equal numerators, denominators that differ
    with pytest.raises(ValueError, match="negative"):
        AntisymmetricMatrix.from_rows([[0, "1/2"], ["-1/3", 0]])


def test_pfaffian_small_cases():
    assert pfaffian(AntisymmetricMatrix.from_rows([])) == 1
    assert pfaffian(AntisymmetricMatrix.from_rows([[0]])) == 0
    z = AntisymmetricMatrix.from_rows([[0, 5], [-5, 0]])
    assert pfaffian(z) == 5


def test_pfaffian_4x4_closed_form():
    # pf = z12 z34 - z13 z24 + z14 z23
    a, b, c, d, e, f = (Fraction(x) for x in (2, 3, 5, 7, 11, 13))
    rows = [
        [0, a, b, c],
        [-a, 0, d, e],
        [-b, -d, 0, f],
        [-c, -e, -f, 0],
    ]
    z = AntisymmetricMatrix.from_rows(rows)
    assert pfaffian(z) == a * f - b * e + c * d


def test_pfaffian_matches_matching_sum(rng):
    for size in (2, 4, 6):
        for _ in range(12):
            rows = random_antisymmetric(rng, size)
            z = AntisymmetricMatrix.from_rows(rows)
            assert pfaffian(z) == matching_sum_pfaffian(rows)
    for rows in _sparse_cases(rng, range(0, 11), 6):
        z = AntisymmetricMatrix.from_rows(rows)
        assert pfaffian(z) == matching_sum_pfaffian(rows), rows


def test_pfaffian_squares_to_determinant(rng):
    for size in (2, 4, 6, 8):
        for _ in range(8):
            rows = random_antisymmetric(rng, size)
            z = AntisymmetricMatrix.from_rows(rows)
            assert pfaffian(z) ** 2 == determinant(rows)


def test_odd_size_pfaffian_vanishes(rng):
    for size in (3, 5):
        rows = random_antisymmetric(rng, size)
        assert pfaffian(AntisymmetricMatrix.from_rows(rows)) == 0
        assert determinant(rows) == 0  # odd antisymmetric matrices are singular


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_classify_counts():
    out = classify_B(2, 5)
    assert out.generators == 5
    assert out.height == 3
    assert not out.is_complete_intersection
    assert not out.is_roberts


def test_classify_roberts_iff_complete_intersection():
    # Across the legal range the two notions coincide: n = 2m (hypersurface)
    # or m = 1 (the generic point case).
    for m in range(1, 6):
        for n in range(2 * m, 13):
            out = classify_B(m, n)
            assert out.generators == comb(n, 2 * m)
            assert out.height == (n - 2 * m + 1) * (n - 2 * m + 2) // 2
            assert out.is_roberts == (n == 2 * m or m == 1)
            assert out.is_complete_intersection == out.is_roberts


def test_classify_validates_arguments():
    with pytest.raises(ValueError):
        classify_B(0, 4)
    with pytest.raises(ValueError):
        classify_B(3, 5)


def test_cross_check_against_cone_verdicts():
    for n in range(4, 10):
        assert cross_check_B2(n), n
    with pytest.raises(ValueError):
        cross_check_B2(3)


# -- the fraction-free fast paths against the slow paths -----------------------


def test_pfaffian_matches_expansion(rng):
    for rows in _sparse_cases(rng, range(0, 15), 9):
        z = AntisymmetricMatrix.from_rows(rows)
        assert pfaffian(z) == expansion_pfaffian(rows), rows


def test_pfaffian_pivot_swap_sign():
    # a_01 = 0 forces the swap of indices 1 and 2; Pf = a01 a23 - a02 a13 + a03 a12
    rows = [[0, 0, 2, 3], [0, 0, 5, 7], [-2, -5, 0, 0], [-3, -7, 0, 0]]
    assert pfaffian(AntisymmetricMatrix.from_rows(rows)) == -2 * 7 + 3 * 5
    assert expansion_pfaffian([[Fraction(x) for x in r] for r in rows]) == 1


def _random_square(rng, size, zero_share):
    def entry():
        if rng.random() < zero_share:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    return [[entry() for _ in range(size)] for _ in range(size)]


def test_determinant_matches_elimination_oracle(rng):
    for size in range(0, 9):
        for n in range(9):
            rows = _random_square(rng, size, (0.0, 0.5, 0.8)[n % 3])
            if size and n == 3:
                rows[0][0] = Fraction(0)  # zero leading entry: row swap
            if size > 1 and n in (4, 5):
                rows[-1] = [2 * x for x in rows[0]]  # singular: dependent rows
            if size and n == 6:
                for row in rows:
                    row[size // 2] = Fraction(0)  # singular: zero column
            assert determinant(rows) == exact_determinant(rows), rows


def test_determinant_singular_and_integer_inputs():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([["1/2", 0], [0, "2/3"]]) == Fraction(1, 3)


def test_pfaffian_squares_to_determinant_at_size_40(rng):
    # far beyond what the O(2^k) expansion could finish
    for zero_share in (0.0, 0.6):
        rows = random_antisymmetric(rng, 40, zero_share=zero_share)
        pf = pfaffian(AntisymmetricMatrix.from_rows(rows))
        assert pf ** 2 == determinant(rows)
        assert pf != 0 or zero_share


def test_inexact_division_raises():
    assert _exact_quotients([-12, 0, 8], 4) == [-3, 0, 2]
    assert _exact_quotients([], 3) == []
    with pytest.raises(ArithmeticError, match="^fraction-free elimination: 4 does not divide 6$"):
        _exact_quotients([-12, 6, 8, 7], 4)
