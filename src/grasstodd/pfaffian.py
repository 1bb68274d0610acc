"""Exact Pfaffians and the classification of Pfaffian rings.

The rings B_m(n) are cut out of a polynomial ring in the entries of a
generic antisymmetric n x n matrix by its 2m-Pfaffians. Minimal generator
and height counts have closed forms, which settle when the ring is a
complete intersection — and, by the classification theorem, when it is a
Roberts ring: exactly for n = 2m or m = 1.

Pfaffians and determinants of rational matrices are exact and O(k^3):
fraction-free elimination on Python ints (a skew Bareiss step for the
Pfaffian, Bareiss for the determinant) after one division by the cleared
denominators. Both divide each new row by the last pivot in
`_exact_quotients`, which checks that every division is exact. The two
share only that check, so Pf^2 = det tests each against the other.
`AntisymmetricMatrix` and `PfaffianClassification` are immutable named
tuples, each equal to the tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, lcm, prod

from .cone import roberts_verdict
from .partitions import GrassmannShape


class AntisymmetricMatrix(namedtuple("AntisymmetricMatrix", "entries")):
    """Square rational matrix with z_ij = -z_ji and zero diagonal, its rows
    in `entries`. `from_rows` is the checked constructor."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "AntisymmetricMatrix":
        """Validate and freeze; names the first offending entry on failure."""
        data = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)
        k = len(data)
        for i, row in enumerate(data):
            if len(row) != k:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {k}")
        for i, row in enumerate(data):
            if row[i]:
                raise ValueError(f"entry ({i + 1},{i + 1}) must be zero on the diagonal")
            for j in range(i + 1, k):
                a, b = row[j], data[j][i]
                if a.numerator != -b.numerator or a.denominator != b.denominator:
                    raise ValueError(
                        f"entry ({j + 1},{i + 1}) is not the negative of ({i + 1},{j + 1})"
                    )
        return cls(data)


def _exact_quotients(row: list, den: int) -> list:
    """[x / den for x in row] in ints; raises ArithmeticError where den does not divide x."""
    out = []
    for num in row:
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"fraction-free elimination: {den} does not divide {num}")
        out.append(q)
    return out


def pfaffian(z: AntisymmetricMatrix) -> Fraction:
    """Pfaffian by fraction-free skew elimination, O(k^3), exact.

    The matrix is scaled to integers by D, the lcm of its denominators;
    only the entries above the diagonal are kept. Each step takes the
    first nonzero entry a_0q of the first row as the pivot p (a zero row
    means Pf = 0) and moves index q to position 1, which multiplies Pf by
    (-1)^(q-1). The other indices, in order, get
    a'_ij = (p a_ij - a_iq a_0j + a_0i a_jq) / p_prev, the Pfaffian of the
    pivot indices so far plus {i, j} (the Pfaffian form of Sylvester's
    identity), so each division is exact, and checked.
    The last pivot, signed, is Pf(D z) = D^(k/2) Pf(z).

    Size 0 gives 1; odd sizes give 0. Agrees with the signed
    perfect-matching sum, and pfaffian(z)**2 = det(z).
    """
    k = z.size
    if k % 2:
        return Fraction(0)
    scale = lcm(*(q.denominator for row in z.entries for q in row))
    m = [[q.numerator * (scale // q.denominator) for q in row[i + 1:]]
         for i, row in enumerate(z.entries)]
    sign, prev = 1, 1
    while m:
        p = next((j for j, x in enumerate(m[0]) if x), None)
        if p is None:
            return Fraction(0)
        q, pivot, sign = p + 1, m[0][p], sign * (-1) ** p
        # the other indices i, in order: a_0i, a_iq, and row i without column q
        a0 = m[0][:p] + m[0][q:]
        aq = [row[q - i - 1] for i, row in enumerate(m[1:q], 1)] + [-x for x in m[q]]
        rows = [row[: q - i - 1] + row[q - i:] for i, row in enumerate(m[1:q], 1)] + m[q + 1:]
        m = []
        for a, (row, ia0, iaq) in enumerate(zip(rows, a0, aq)):
            nums = [pivot * x - iaq * y + ia0 * w for x, y, w in zip(row, a0[a + 1:], aq[a + 1:])]
            m.append(_exact_quotients(nums, prev))
        prev = pivot
    return Fraction(sign * prev, scale ** (k // 2))


def determinant(rows) -> Fraction:
    """Exact determinant of a square rational matrix, O(k^3).

    Fraction-free Bareiss elimination on the matrix with each row scaled
    to integers by the lcm of its own denominators: with row swaps for a
    nonzero pivot, a'_rj = (p a_rj - a_rc a_cj) / p_prev is a minor of the
    scaled matrix, so each division is exact, and checked. The last pivot,
    signed, is det(rows) times the product of the row scales. Neither the
    scaling nor the elimination is shared with `pfaffian`, so Pf^2 = det
    is a real check.
    """
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant needs a square matrix")
    scales = [lcm(*(q.denominator for q in row)) for row in m]
    m = [[q.numerator * (s // q.denominator) for q in row] for row, s in zip(m, scales)]
    sign, prev = 1, 1
    while m:
        p = next((r for r, row in enumerate(m) if row[0]), None)
        if p is None:
            return Fraction(0)
        if p:
            m[0], m[p] = m[p], m[0]
            sign = -sign
        (pivot, *top), rows, m = m[0], m[1:], []
        for f, *row in rows:
            m.append(_exact_quotients([pivot * x - f * t for x, t in zip(row, top)], prev))
        prev = pivot
    return Fraction(sign * prev, prod(scales))


class PfaffianClassification(
    namedtuple("PfaffianClassification", "m n generators height is_complete_intersection is_roberts")
):
    """The counts and verdicts of `classify_B` for B_m(n)."""

    __slots__ = ()


def classify_B(m: int, n: int) -> PfaffianClassification:
    """Classification of B_m(n) from the generator and height counts.

    The ideal of 2m-Pfaffians has binom(n, 2m) minimal generators and
    height (n-2m+1)(n-2m+2)/2, which is also how far the ring's dimension
    falls below the ambient polynomial ring. Complete intersection means
    the two counts agree; the Roberts condition is n = 2m or m = 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got m={m}, n={n}")
    generators = comb(n, 2 * m)
    height = (n - 2 * m + 1) * (n - 2 * m + 2) // 2
    return PfaffianClassification(
        m=m,
        n=n,
        generators=generators,
        height=height,
        is_complete_intersection=generators == height,
        is_roberts=n == 2 * m or m == 1,
    )


def cross_check_B2(n: int) -> bool:
    """B_2(n) is the cone ring of the (2,n) Grassmannian; compare verdicts."""
    if n < 4:
        raise ValueError("cross-check needs n >= 4")
    cone_side = roberts_verdict(GrassmannShape(2, n), mode="verdict").verdict
    return classify_B(2, n).is_roberts == cone_side
