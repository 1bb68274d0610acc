"""Bernoulli numbers and the coefficients of the Todd logarithm.

td = exp(sum_m a_m m! ch_m) with a_m the coefficients of
log(x / (1 - e^{-x})); the tangent-bundle pipeline reads them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ToddLogCoeffs:
    """Coefficients a_m of log(x / (1 - e^{-x})), so td = exp(sum a_m m! ch_m)."""

    truncation: int
    a: tuple

    def __getitem__(self, m: int) -> Fraction:
        if not 0 <= m <= self.truncation:
            raise IndexError(f"coefficient index {m} out of range")
        return self.a[m]


def todd_log_coeff(m: int) -> Fraction:
    """a_m of log(x / (1 - e^{-x})): a_0 = 0 and a_m = -B_m / (m * m!)."""
    return -bernoulli(m) / (m * factorial(m)) if m else Fraction(0)


@lru_cache(maxsize=None)
def todd_log_coeffs(trunc: int) -> ToddLogCoeffs:
    """Formal log of x/(1 - e^{-x}) up to the given degree, exact.

    By the closed form a_m = -B_m / (m * m!) over the cached Bernoulli
    numbers; a_1 = 1/2 and the odd coefficients a_3, a_5, ... all vanish
    (the series minus x/2 is even).
    """
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    return ToddLogCoeffs(trunc, tuple(todd_log_coeff(m) for m in range(trunc + 1)))
