"""Tautological-bundle classes on a Grassmannian.

Chern classes and Chern characters of the quotient bundle Q, the subbundle
S and its dual, and of the tangent bundle T = S* (x) Q, together with the
Todd class of the tangent bundle — everything as exact Schubert-basis classes.

`TangentPipeline` builds these classes one degree at a time from the
power-sum action of the Chern characters. `chow_pipeline(shape)` is its
per-shape instance on the Chow ring, and every constructor here reads a
prefix of its degrees; `cone.TauStream` is the instance whose classes are
reduced modulo h.

Chern classes and characters are `BundleClass`es. All constructors but
`chern_Q` take `max_degree`, the top degree to compute: None or a value
above t = d(n-d) means every degree, and a negative one raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .chow import ChowElement, combine, ring, scale, sigma, unit, zero
from .partitions import GrassmannShape
from .series import todd_log_coeff


@dataclass(frozen=True)
class BundleClass:
    """Graded class of a rank-`rank` bundle: Chern classes or Chern character.

    parts[k] is the degree-k piece for k = 0..cap, each homogeneous of
    degree k or zero: the unit c_0 = 1 for Chern classes, rank * unit for
    the character. Degrees past the stored ones read as zero.
    """

    shape: GrassmannShape
    rank: int
    parts: tuple

    def component(self, m: int) -> ChowElement:
        if 0 <= m < len(self.parts):
            return self.parts[m]
        return zero(self.shape)


class TangentPipeline:
    """The tangent-bundle classes of one shape, one degree at a time.

    m! ch_m of a bundle is the m-th power sum of its Chern roots. For S* it
    is p_m times the unit, by the Murnaghan-Nakayama step
    (`_Ring.power_sum`); for Q it is (-1)^(m+1) p_m; the ranks d and n-d
    sit in degree 0. m! ch_m(T) acts on a class through
    `_Ring.tangent_power_sum`. The Todd and the Chern classes of T share
    one recurrence over that action,
        y_k = (1/k) sum_j w_j (j! ch_j(T)) y_(k-j),
    with w_j = j a_j for td = exp(sum_j a_j j! ch_j(T)) and
    w_j = (-1)^(j-1) for the Chern classes (Newton's identities).

    Each sequence maps a degree to its homogeneous class, computed on first
    use, passed through `reduce` and kept. A degree where `vanishes(k)`
    holds is zero in every sequence with no work, and the recurrence skips
    the terms whose operator j! ch_j(T) lies in such a degree.
    """

    def __init__(self, shape: GrassmannShape, vanishes, reduce):
        self.shape = shape
        self._ring = ring(shape)
        self._vanishes = vanishes
        self._reduce = reduce
        self._todd_work: list = []
        self.todd = self._graded(self._todd)
        self.chern = self._graded(self._chern)
        power, tangent = self._ring.power_sum, self._ring.tangent_power_sum
        self.ch_tangent = self._graded(partial(self._ch_piece, shape.dim, 1, tangent))
        self.ch_s_dual = self._graded(partial(self._ch_piece, shape.d, 1, power))
        self.ch_q = self._graded(lambda m: self._ch_piece(shape.cols, (-1) ** (m + 1), power, m))
        # ch_m(S) = (-1)^m ch_m(S*)
        self.ch_s = self._graded(lambda m: scale((-1) ** m, self.ch_s_dual(m)))

    def _graded(self, rule):
        memo: dict = {}

        def at(k: int) -> ChowElement:
            hit = memo.get(k)
            if hit is None:
                hit = zero(self.shape) if self._vanishes(k) else rule(k)
                memo[k] = hit
            return hit

        return at

    def _ch_piece(self, rank: int, sign: int, power, m: int) -> ChowElement:
        """ch_m = sign * power((), m) / m! for m >= 1, and the rank at m = 0."""
        if m == 0:
            return scale(rank, unit(self.shape))
        ch = scale(Fraction(sign, factorial(m)), ChowElement(self.shape, power((), m)))
        return self._reduce(ch)

    def _recurrence(self, k: int, y, weight) -> ChowElement:
        """y_k by one `combine`; w_j is tested before `vanishes(j)`, which
        may build an echelon form."""
        tangent = self._ring.tangent_power_sum

        def terms():
            for j in range(1, k + 1):
                w = weight(j)
                if w and not self._vanishes(j):
                    for lam, c in y(k - j).terms.items():
                        wc = w * c
                        for mu, a in tangent(lam, j).items():
                            yield mu, wc * a

        return self._reduce(scale(Fraction(1, k), combine(self.shape, terms())))

    def _todd(self, k: int) -> ChowElement:
        if k == 0:
            return unit(self.shape)
        self._todd_work.append(k)
        return self._recurrence(k, self.todd, lambda j: j * todd_log_coeff(j))

    def _chern(self, k: int) -> ChowElement:
        if k == 0:
            return unit(self.shape)
        return self._recurrence(k, self.chern, lambda j: (-1) ** (j - 1))

    @property
    def todd_degrees(self) -> tuple:
        """Degrees >= 1 whose Todd component ran the recurrence."""
        return tuple(sorted(self._todd_work))


@lru_cache(maxsize=None)
def chow_pipeline(shape: GrassmannShape) -> TangentPipeline:
    """The per-shape pipeline on the Chow ring; degrees above t vanish."""
    return TangentPipeline(shape, lambda k: k > shape.dim, lambda a: a)


def _cap(shape: GrassmannShape, max_degree: int | None) -> int:
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    return shape.dim if max_degree is None else min(max_degree, shape.dim)


def _character(shape: GrassmannShape, rank: int, piece, max_degree) -> BundleClass:
    return BundleClass(shape, rank, tuple(piece(m) for m in range(_cap(shape, max_degree) + 1)))


def chern_Q(shape: GrassmannShape) -> BundleClass:
    """Chern classes of the rank-(n-d) quotient bundle: c_m = sigma_m."""
    return _character(shape, shape.cols, partial(sigma, shape), shape.cols)


def ch_Q(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of Q: m! ch_m(Q) = (-1)^(m+1) p_m, by the Murnaghan-Nakayama step."""
    return _character(shape, shape.cols, chow_pipeline(shape).ch_q, max_degree)


def ch_S(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of the subbundle: ch(S) = n - ch(Q) by additivity."""
    return _character(shape, shape.d, chow_pipeline(shape).ch_s, max_degree)


def ch_S_dual(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of S*: degree-m component picks up (-1)^m."""
    return _character(shape, shape.d, chow_pipeline(shape).ch_s_dual, max_degree)


def ch_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of the tangent bundle: ch(T) = ch(S*) ch(Q), each m! ch_m(T)
    acting on the unit through `_Ring.tangent_power_sum`."""
    return _character(shape, shape.dim, chow_pipeline(shape).ch_tangent, max_degree)


def chern_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern classes of the tangent bundle, recovered from its character."""
    return _character(shape, shape.dim, chow_pipeline(shape).chern, max_degree)


def todd_tangent(shape: GrassmannShape, max_degree: int | None = None) -> ChowElement:
    """Todd class of the tangent bundle: exp(sum_m a_m m! ch_m), exact.

    Inhomogeneous, degree-0 part 1, components up to max_degree (default t),
    joined from the pipeline's disjoint graded pieces.
    """
    todd = chow_pipeline(shape).todd
    degrees = range(_cap(shape, max_degree) + 1)
    return combine(shape, (term for k in degrees for term in todd(k).terms.items()))
