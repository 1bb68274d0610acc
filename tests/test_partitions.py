import math

import pytest
from hypothesis import given, strategies as st

from grasstodd import (
    GrassmannShape,
    conjugate,
    enumerate_box,
    fits_box,
    normalize_partition,
    plucker_relation_count,
    ssyt_count,
)
from oracles import brute_force_ssyt, gaussian_binomial


def test_shape_validation():
    with pytest.raises(ValueError):
        GrassmannShape(0, 4)
    with pytest.raises(ValueError):
        GrassmannShape(4, 4)
    with pytest.raises(ValueError):
        GrassmannShape(3, 2)
    s = GrassmannShape(2, 5)
    assert s.cols == 3
    assert s.dim == 6


def test_shape_make_and_replace_keep_the_check():
    with pytest.raises(ValueError, match=r"^need 1 <= d <= n-1, got d=0, n=4$"):
        GrassmannShape(2, 4)._replace(d=0)
    with pytest.raises(ValueError, match=r"^need 1 <= d <= n-1, got d=5, n=3$"):
        GrassmannShape._make((5, 3))
    assert GrassmannShape(2, 4)._replace(n=6) == GrassmannShape(2, 6)
    assert type(GrassmannShape._make((2, 6))) is GrassmannShape


def test_normalize_strips_zeros_and_rejects_bad_input():
    assert normalize_partition([3, 1, 0, 0]) == (3, 1)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])


@pytest.mark.parametrize("parts, want", [
    ((3, 1, 0, 0), (3, 1)),
    ((0, 0), ()),
    ([], ()),
    ((2.0, 1), (2, 1)),
    ((2, 2, 1), (2, 2, 1)),
])
def test_normalize_partition_results(parts, want):
    got = normalize_partition(parts)
    assert got == want and type(got) is tuple and all(type(p) is int for p in got)


@pytest.mark.parametrize("parts, message", [
    ((2, -1), "partition parts must be nonnegative: (2, -1)"),
    ([2, -1, 0], "partition parts must be nonnegative: [2, -1, 0]"),
    ((0, -1), "partition parts must be nonnegative: (0, -1)"),
    ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
    ((3, 0, 1), "partition parts must be weakly decreasing: (3, 0, 1)"),
    ((-1, 2), "partition parts must be nonnegative: (-1, 2)"),
])
def test_normalize_partition_messages(parts, message):
    # each message names the parts as the caller gave them
    with pytest.raises(ValueError) as info:
        normalize_partition(parts)
    assert str(info.value) == message


def test_fits_box():
    s = GrassmannShape(2, 5)
    assert fits_box((3, 3), s)
    assert fits_box((), s)
    assert not fits_box((4,), s)
    assert not fits_box((1, 1, 1), s)


def test_enumerate_box_order_and_counts():
    s = GrassmannShape(2, 4)
    assert enumerate_box(s, 0) == ((),)
    assert enumerate_box(s, 1) == ((1,),)
    assert enumerate_box(s, 2) == ((2,), (1, 1))
    assert enumerate_box(s, 3) == ((2, 1),)
    assert enumerate_box(s, 4) == ((2, 2),)
    assert enumerate_box(s, 5) == ()


def test_enumerate_box_totals_match_gaussian_binomial():
    # Graded count of partitions in the d x (n-d) box is the q-binomial.
    for d, n in [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7), (4, 9)]:
        s = GrassmannShape(d, n)
        coeffs = gaussian_binomial(n, d)
        for deg in range(s.dim + 1):
            expect = coeffs[deg] if deg < len(coeffs) else 0
            assert len(enumerate_box(s, deg)) == expect
        assert sum(len(enumerate_box(s, k)) for k in range(s.dim + 1)) == math.comb(n, d)


def test_enumerate_box_is_graded_lex_descending():
    s = GrassmannShape(3, 7)
    for deg in range(s.dim + 1):
        out = list(enumerate_box(s, deg))
        assert out == sorted(out, reverse=True)
        assert len(set(out)) == len(out)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2, 2)) == (3, 3)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=5))
def test_conjugate_involution(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert conjugate(conjugate(lam)) == lam


def test_ssyt_count_examples():
    # s_{(1)} in n variables has n tableaux; one column of height n has 1.
    assert ssyt_count((1,), 4) == 4
    assert ssyt_count((1, 1, 1), 3) == 1
    assert ssyt_count((2, 1), 3) == 8
    assert ssyt_count((3, 2), 2) == 2


def test_ssyt_count_against_brute_force():
    shapes = []
    for a in range(0, 5):
        for b in range(0, a + 1):
            for c in range(0, b + 1):
                lam = tuple(x for x in (a, b, c) if x)
                if sum(lam) <= 6:
                    shapes.append(lam)
    for lam in set(shapes):
        for n in range(1, 5):
            assert ssyt_count(lam, n) == brute_force_ssyt(lam, n), (lam, n)


def test_ssyt_count_zero_when_too_tall():
    assert ssyt_count((1, 1, 1, 1), 3) == 0


def test_plucker_relation_counts():
    # Dimension counts: binom(N+1, 2) minus quadrics in the coordinate ring.
    assert plucker_relation_count(GrassmannShape(2, 4)) == 1
    assert plucker_relation_count(GrassmannShape(2, 5)) == 5
    assert plucker_relation_count(GrassmannShape(3, 6)) == 35
