"""Partitions in a rectangular box, tableau counts, and Pluecker relation counts.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the zero-weight partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """Canonical form of a partition: trailing zeros dropped, order checked."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    if any(p < 0 for p in out):
        raise ValueError(f"partition parts must be nonnegative: {parts}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return out


@dataclass(frozen=True)
class GrassmannShape:
    """A Grassmannian of d-dimensional subspaces of an n-dimensional space.

    Schubert classes live in a d x (n-d) box; the projective dimension is
    dim = d*(n-d).
    """

    d: int
    n: int

    def __post_init__(self):
        if not 1 <= self.d <= self.n - 1:
            raise ValueError(f"need 1 <= d <= n-1, got d={self.d}, n={self.n}")

    @property
    def cols(self) -> int:
        """Number of box columns, n - d."""
        return self.n - self.d

    @property
    def dim(self) -> int:
        """Dimension of the projective variety, d*(n-d)."""
        return self.d * (self.n - self.d)


def fits_box(lam: Partition, shape: GrassmannShape) -> bool:
    """True iff lam has at most d parts, each at most n-d."""
    return len(lam) <= shape.d and (not lam or lam[0] <= shape.cols)


def enumerate_box(shape: GrassmannShape, degree: int) -> tuple[Partition, ...]:
    """All partitions of the given weight inside the shape's box.

    Ordered graded-lexicographically, largest first part first. Degrees
    outside [0, dim] give the empty tuple. Nothing is kept here: the
    shape's engine keeps each basis it reads (`chow.Engine.basis`).
    """
    if degree < 0 or degree > shape.dim:
        return ()

    def gen(remaining: int, max_part: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or max_part == 0:
            return
        # smallest admissible first part: ceil(remaining / slots)
        lo = -(-remaining // slots)
        for first in range(min(max_part, remaining), lo - 1, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    return tuple(gen(degree, shape.cols, shape.d))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def ssyt_count(lam: Partition, n: int) -> int:
    """Number of semistandard Young tableaux of shape lam with entries in 1..n.

    Uses the hook-content product; exact integer. Returns 0 when n is
    smaller than the number of parts.
    """
    lam = normalize_partition(lam)
    if n < len(lam):
        return 0
    conj = conjugate(lam)
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1
    assert num % den == 0
    return num // den


def plucker_relation_count(shape: GrassmannShape) -> int:
    """Number of independent quadrics among the Pluecker coordinates.

    The quadratic part of the defining ideal has dimension
    binom(N+1, 2) - ssyt_count((2,)*d, n) where N = binom(n, d).
    """
    big_n = comb(shape.n, shape.d)
    return comb(big_n + 1, 2) - ssyt_count((2,) * shape.d, shape.n)
