"""Partitions in a rectangular box, tableau counts, and Pluecker relation counts.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the zero-weight partition. A
`GrassmannShape` is an immutable named tuple, equal to the tuple (d, n).
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """Canonical form of a partition: trailing zeros dropped, order checked."""
    out = tuple(map(int, parts))
    while out and out[-1] == 0:
        out = out[:-1]
    if out and min(out) < 0:
        raise ValueError(f"partition parts must be nonnegative: {parts}")
    if list(out) != sorted(out, reverse=True):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return out


class GrassmannShape(namedtuple("GrassmannShape", "d n")):
    """A Grassmannian of d-dimensional subspaces of an n-dimensional space.

    Schubert classes live in a d x (n-d) box; the projective dimension is
    dim = d*(n-d). An immutable named tuple: it equals the tuple (d, n) and
    hashes as a tuple, which is how the shape's engine is looked up.
    """

    __slots__ = ()

    def __new__(cls, d: int, n: int):
        if not 1 <= d <= n - 1:
            raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
        return super().__new__(cls, d, n)

    @classmethod
    def _make(cls, iterable):
        # through `__new__` and its check; `_replace` builds its shape here
        return cls(*iterable)

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
    return tuple(_box_partitions(degree, shape.cols, shape.d))


def _box_partitions(remaining: int, max_part: int, slots: int):
    """Partitions of `remaining` into at most `slots` parts of at most
    `max_part` each, largest first part first."""
    if remaining == 0:
        yield ()
        return
    if slots == 0 or max_part == 0:
        return
    # smallest admissible first part: ceil(remaining / slots)
    lo = -(-remaining // slots)
    for first in range(min(max_part, remaining), lo - 1, -1):
        for rest in _box_partitions(remaining - first, first, slots - 1):
            yield (first,) + rest


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
