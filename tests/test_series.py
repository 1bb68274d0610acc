"""Series-layer tests, run in a free polynomial algebra with no geometry.

The Todd-logarithm coefficients are cross-checked against the Bernoulli
closed form, and the test bed's Newton identities against honest symmetric
polynomials.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from grasstodd import bernoulli, todd_log_coeff
from oracles import _bernoulli_numbers, series_todd_log_coeffs
from testbed import (
    PolynomialAlgebra,
    elementary_from_power_sums,
    exp_graded,
    log_graded,
    power_sums_from_elementary,
)


def test_bernoulli_values():
    expect = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for k, v in expect.items():
        assert bernoulli(k) == v
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_odd_bernoulli_vanish():
    assert all(bernoulli(k) == 0 for k in range(3, 20, 2))


def test_bernoulli_matches_full_recurrence():
    # the oracle keeps every odd-index term of the recurrence
    bernoulli.cache_clear()
    want = _bernoulli_numbers(60)
    assert [bernoulli(k) for k in range(61)] == want


def test_todd_log_coeffs_closed_form():
    # a_m = -B_m / (m * m!) for m >= 1 (B_1 = -1/2 convention)
    a = [todd_log_coeff(m) for m in range(11)]
    assert a[0] == 0
    for m in range(1, 11):
        assert a[m] == -bernoulli(m) / (m * factorial(m))
    assert a[1] == Fraction(1, 2)
    assert a[2] == Fraction(-1, 24)
    assert a[4] == Fraction(1, 2880)
    assert all(a[m] == 0 for m in (3, 5, 7, 9))


def test_todd_log_coeffs_match_series_arithmetic():
    # the closed form against the reciprocal and logarithm of the series
    for trunc in (1, 2, 7, 16, 36):
        assert [todd_log_coeff(m) for m in range(trunc + 1)] == series_todd_log_coeffs(trunc)


def test_todd_log_coeffs_bounds():
    # defined from m = 0; a negative index is an error, not a zero
    assert todd_log_coeff(0) == 0
    with pytest.raises(ValueError):
        todd_log_coeff(-1)


def test_exp_of_todd_log_is_todd_series():
    # exp(sum a_m t^m) must reproduce x/(1 - e^{-x}) term by term, whose
    # coefficients are (-1)^k B_k / k!.
    trunc = 10
    alg = PolynomialAlgebra({"t": 1}, trunc)
    ctx = alg.context()
    t = alg.generator("t")
    x = alg.zero()
    for m in range(1, trunc + 1):
        x = x + todd_log_coeff(m) * t ** m
    y = exp_graded(x, ctx)
    for k in range(trunc + 1):
        assert y.coefficient({"t": k}) == Fraction((-1) ** k) * bernoulli(k) / factorial(k)


def test_newton_identities_on_true_symmetric_polynomials():
    # Four degree-1 generators; e_i and p_m computed directly, then compared.
    alg = PolynomialAlgebra({f"x{i}": 1 for i in range(4)}, 6)
    ctx = alg.context()
    xs = [alg.generator(f"x{i}") for i in range(4)]
    e = []
    for k in range(1, 5):
        acc = alg.zero()
        for combo in combinations(xs, k):
            term = alg.one()
            for v in combo:
                term = term * v
            acc = acc + term
        e.append(acc)
    p = power_sums_from_elementary(e, 4, ctx)
    for m in range(1, 7):
        direct = alg.zero()
        for v in xs:
            direct = direct + v ** m
        assert p[m - 1] == direct
    back = elementary_from_power_sums(p, ctx)
    for k in range(4):
        assert back[k] == e[k]
    for k in range(4, 6):
        assert back[k] == alg.zero()


def test_newton_round_trip_with_weighted_generators():
    # e_i living in degree i, the shape the geometry actually uses.
    alg = PolynomialAlgebra({"c1": 1, "c2": 2, "c3": 3}, 7)
    ctx = alg.context()
    e = [alg.generator("c1"), alg.generator("c2"), alg.generator("c3")]
    p = power_sums_from_elementary(e, 3, ctx)
    assert p[0] == e[0]
    assert p[1] == e[0] ** 2 - 2 * e[1]
    assert p[2] == e[0] ** 3 - 3 * e[0] * e[1] + 3 * e[2]
    back = elementary_from_power_sums(p, ctx)
    assert back[:3] == e
    assert all(v == alg.zero() for v in back[3:])


def test_exp_log_round_trip():
    alg = PolynomialAlgebra({"a": 1, "b": 2}, 6)
    ctx = alg.context()
    x = alg.generator("a") + Fraction(3, 7) * alg.generator("b")
    u = exp_graded(x, ctx)
    assert ctx.component(u, 0) == alg.one()
    assert log_graded(u, ctx) == x
    y = Fraction(-2, 5) * alg.generator("a") * alg.generator("a") + alg.generator("b")
    assert log_graded(exp_graded(y, ctx), ctx) == y


def test_exp_is_homomorphism():
    alg = PolynomialAlgebra({"a": 1, "b": 2}, 6)
    ctx = alg.context()
    x = alg.generator("a")
    y = Fraction(1, 3) * alg.generator("b")
    assert exp_graded(x + y, ctx) == exp_graded(x, ctx) * exp_graded(y, ctx)


def test_exp_log_validate_degree_zero():
    alg = PolynomialAlgebra({"a": 1}, 4)
    ctx = alg.context()
    with pytest.raises(ValueError):
        exp_graded(alg.one(), ctx)
    with pytest.raises(ValueError):
        log_graded(alg.generator("a"), ctx)


@given(
    st.fractions(max_denominator=6),
    st.fractions(max_denominator=6),
)
def test_exp_log_round_trip_random_coefficients(qa, qb):
    alg = PolynomialAlgebra({"a": 1, "b": 2}, 5)
    ctx = alg.context()
    x = qa * alg.generator("a") + qb * alg.generator("b")
    assert log_graded(exp_graded(x, ctx), ctx) == x


def test_polynomial_algebra_basics():
    alg = PolynomialAlgebra({"u": 1, "v": 2}, 8)
    u, v = alg.generator("u"), alg.generator("v")
    el = (u + v) ** 2
    assert el.coefficient({"u": 2}) == 1
    assert el.coefficient({"u": 1, "v": 1}) == 2
    assert el.coefficient({"v": 2}) == 1
    assert el.degrees() == (2, 3, 4)
    assert alg.component(el, 3) == 2 * u * v
    with pytest.raises(KeyError):
        el.coefficient({"w": 1})
    with pytest.raises(ValueError):
        PolynomialAlgebra({"bad": 0}, 3)


def test_polynomial_algebra_truncates():
    alg = PolynomialAlgebra({"u": 1}, 3)
    u = alg.generator("u")
    assert u ** 4 == alg.zero()
    assert (u ** 2 * u ** 2) == alg.zero()
