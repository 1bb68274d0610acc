"""Exact Pfaffians and the classification of Pfaffian rings.

The rings B_m(n) are cut out of a polynomial ring in the entries of a
generic antisymmetric n x n matrix by its 2m-Pfaffians. Minimal generator
and height counts have closed forms, which settle when the ring is a
complete intersection — and, by the classification theorem, when it is a
Roberts ring: exactly for n = 2m or m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cone import roberts_verdict
from .partitions import GrassmannShape


@dataclass(frozen=True)
class AntisymmetricMatrix:
    """Square rational matrix with z_ij = -z_ji and zero diagonal."""

    entries: tuple

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "AntisymmetricMatrix":
        """Validate and freeze; names the first offending entry on failure."""
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        k = len(data)
        for i, row in enumerate(data):
            if len(row) != k:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {k}")
        for i in range(k):
            if data[i][i]:
                raise ValueError(f"entry ({i + 1},{i + 1}) must be zero on the diagonal")
            for j in range(i + 1, k):
                if data[i][j] != -data[j][i]:
                    raise ValueError(
                        f"entry ({j + 1},{i + 1}) is not the negative of ({i + 1},{j + 1})"
                    )
        return cls(data)


def pfaffian(z: AntisymmetricMatrix) -> Fraction:
    """Pfaffian by expansion along the first remaining index, memoized.

    Size 0 gives 1; odd sizes give 0. Agrees with the signed
    perfect-matching sum, and pfaffian(z)**2 = det(z).
    """
    if z.size % 2:
        return Fraction(0)
    ent = z.entries
    memo: dict = {(): Fraction(1)}

    def pf(idx: tuple) -> Fraction:
        hit = memo.get(idx)
        if hit is not None:
            return hit
        first = idx[0]
        acc = Fraction(0)
        for pos in range(1, len(idx)):
            c = ent[first][idx[pos]]
            if c:
                rest = idx[1:pos] + idx[pos + 1:]
                acc += c * pf(rest) if pos % 2 else -c * pf(rest)
        memo[idx] = acc
        return acc

    return pf(tuple(range(z.size)))


def determinant(rows) -> Fraction:
    """Exact determinant of a square rational matrix, by elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(size):
        out *= m[i][i]
    return out


@dataclass(frozen=True)
class PfaffianClassification:
    m: int
    n: int
    generators: int
    height: int
    is_complete_intersection: bool
    is_roberts: bool


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
