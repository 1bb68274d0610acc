"""Bernoulli numbers and the coefficients of the Todd logarithm.

td = exp(sum_m a_m m! ch_m) with a_m the coefficients of
log(x / (1 - e^{-x})); the tangent-bundle pipeline reads them one at a time
from `todd_log_coeff(m)`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number, B_1 = -1/2 convention, exact.

    Defining recurrence: sum_{j=0}^{k} binom(k+1, j) B_j = 0 for k >= 1.
    B_k vanishes for odd k >= 3, so those are returned at once and the
    recurrence sums only j = 1 and the even j < k.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k == 0:
        return Fraction(1)
    if k > 1 and k & 1:
        return Fraction(0)
    acc = Fraction(-(k + 1), 2) if k > 1 else Fraction(0)  # binom(k+1, 1) B_1
    for j in range(0, k, 2):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def todd_log_coeff(m: int) -> Fraction:
    """a_m of log(x / (1 - e^{-x})): a_0 = 0 and a_m = -B_m / (m * m!), so
    a_1 = 1/2 and a_3, a_5, ... vanish; a negative m raises ValueError."""
    return -bernoulli(m) / (m * factorial(m)) if m else Fraction(0)

