"""Tautological-bundle classes on a Grassmannian.

Chern classes and Chern characters of the quotient bundle Q, the subbundle
S and its dual, and of the tangent bundle T = S* (x) Q, together with the
Todd class of the tangent bundle — everything as exact Schubert-basis classes.

`TangentPipeline` builds these classes one degree at a time in a graded
ring. `chow_pipeline(shape)` is its per-shape instance on the Chow ring,
and every constructor here reads a prefix of its degrees; `cone.TauStream`
is the instance on the quotient A/(h).

All constructors accept `max_degree` to truncate the computation early;
the default carries every class up to the top degree t = d(n-d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from .chow import ChowElement, graded_context, pieri, sigma, unit, zero
from .partitions import GrassmannShape
from .series import GradedContext, cauchy_sum, exp_piece, newton_power_sum, todd_log_coeff


@dataclass(frozen=True)
class BundleCharacter:
    """Graded Chern character: parts[k] is the degree-k component, k = 0..D.

    parts[0] is rank * unit; each parts[k] is homogeneous of degree k or zero.
    """

    shape: GrassmannShape
    rank: int
    parts: tuple

    def component(self, m: int) -> ChowElement:
        if 0 <= m < len(self.parts):
            return self.parts[m]
        return zero(self.shape)

    @property
    def ch(self) -> tuple:
        """Components indexed from degree 1 (rank excluded)."""
        return self.parts[1:]


@dataclass(frozen=True)
class BundleChern:
    """Chern classes c_1..c_D of a bundle; c_i = 0 for i > rank is implicit."""

    shape: GrassmannShape
    rank: int
    c: tuple

    def component(self, i: int) -> ChowElement:
        if 1 <= i <= len(self.c):
            return self.c[i - 1]
        return zero(self.shape)


class TangentPipeline:
    """The tangent-bundle classes of one shape in a graded ring, one degree
    at a time.

    m! ch_m of a bundle is the m-th power sum of its Chern roots: for Q the
    Newton power sum p_m of the special classes, for S* (-1)^(m+1) p_m, with
    the ranks n-d and d in degree 0, and for T = S* (x) Q the sum over i of
    C(m, i) times the degree-i one of S* times the degree-(m-i) one of Q.
    The Todd class is the exp recurrence of x_m = a_m * m! ch_m(T), and the
    Chern classes of T invert Newton's identities:
    c_m = (1/m) sum_i (-1)^(i-1) i! ch_i(T) c_(m-i).

    Each sequence maps a degree to its homogeneous class, computed on first
    use and kept. A degree where `vanishes(k)` holds is zero in every
    sequence, with no product and no Todd work; in a product the
    lower-degree factor comes first and a zero one skips the other (see
    `cauchy_sum`). `special(i)` is sigma_i in the ring.
    """

    def __init__(self, shape: GrassmannShape, ctx: GradedContext, vanishes, special):
        self.shape = shape
        self._ctx = ctx
        self._vanishes = vanishes
        self._todd_work: list = []
        self.special = self._graded(special)
        self.power_q = self._graded(self._power_sum_q)
        self.power_s_dual = self._graded(self._power_sum_s_dual)
        self.power_tangent = self._graded(self._power_sum_tangent)
        self.todd_input = self._graded(self._todd_input)
        self.todd = self._graded(self._todd)
        self.chern = self._graded(self._chern)
        # the Chern characters: ch_m = (m! ch_m) / m!, and ch_m(S) = (-1)^m ch_m(S*)
        self.ch_q = self._graded(partial(self._unscale, self.power_q))
        self.ch_s_dual = self._graded(partial(self._unscale, self.power_s_dual))
        self.ch_tangent = self._graded(partial(self._unscale, self.power_tangent))
        self.ch_s = self._graded(lambda m: ctx.scale((-1) ** m, self.ch_s_dual(m)))

    def _graded(self, rule):
        memo: dict = {}

        def at(k: int):
            hit = memo.get(k)
            if hit is None:
                hit = self._ctx.zero if self._vanishes(k) else rule(k)
                memo[k] = hit
            return hit

        return at

    def _unscale(self, power, m: int):
        return self._ctx.scale(Fraction(1, factorial(m)), power(m))

    def _power_sum_q(self, m: int):
        if m == 0:
            return self._ctx.scale(self.shape.cols, self._ctx.one)
        return newton_power_sum(m, self.special, self.power_q, self._ctx)

    def _power_sum_s_dual(self, m: int):
        if m == 0:
            return self._ctx.scale(self.shape.d, self._ctx.one)
        return self._ctx.scale((-1) ** (m + 1), self.power_q(m))

    def _power_sum_tangent(self, m: int):
        terms = [(comb(m, i), i, self.power_s_dual, self.power_q) for i in range(m + 1)]
        return cauchy_sum(m, terms, self._ctx)

    def _todd_input(self, m: int):
        a = todd_log_coeff(m)
        return self._ctx.scale(a, self.power_tangent(m)) if a else self._ctx.zero

    def _todd(self, k: int):
        if k == 0:
            return self._ctx.one
        self._todd_work.append(k)
        return exp_piece(k, self.todd_input, self.todd, self._ctx)

    def _chern(self, m: int):
        if m == 0:
            return self._ctx.one
        terms = [((-1) ** (i - 1), i, self.power_tangent, self.chern) for i in range(1, m + 1)]
        return self._ctx.scale(Fraction(1, m), cauchy_sum(m, terms, self._ctx))

    @property
    def todd_degrees(self) -> tuple:
        """Degrees >= 1 whose Todd component ran the exp recurrence."""
        return tuple(sorted(self._todd_work))


@lru_cache(maxsize=None)
def chow_pipeline(shape: GrassmannShape) -> TangentPipeline:
    """The per-shape pipeline on the Chow ring; degrees above t vanish."""
    return TangentPipeline(
        shape, graded_context(shape), lambda k: k > shape.dim, partial(sigma, shape)
    )


def _cap(shape: GrassmannShape, max_degree: int | None) -> int:
    return shape.dim if max_degree is None else max(0, min(max_degree, shape.dim))


def _character(shape: GrassmannShape, rank: int, piece, max_degree) -> BundleCharacter:
    return BundleCharacter(shape, rank, tuple(piece(m) for m in range(_cap(shape, max_degree) + 1)))


def chern_Q(shape: GrassmannShape) -> BundleChern:
    """Chern classes of the rank-(n-d) quotient bundle: c_m = sigma_m."""
    return BundleChern(
        shape, shape.cols, tuple(sigma(shape, m) for m in range(1, shape.cols + 1))
    )


def ch_Q(shape: GrassmannShape, max_degree: int | None = None) -> BundleCharacter:
    """Chern character of Q via Newton power sums of the special classes."""
    return _character(shape, shape.cols, chow_pipeline(shape).ch_q, max_degree)


def ch_S(shape: GrassmannShape, max_degree: int | None = None) -> BundleCharacter:
    """Chern character of the subbundle: ch(S) = n - ch(Q) by additivity."""
    return _character(shape, shape.d, chow_pipeline(shape).ch_s, max_degree)


def ch_S_dual(shape: GrassmannShape, max_degree: int | None = None) -> BundleCharacter:
    """Chern character of S*: degree-m component picks up (-1)^m."""
    return _character(shape, shape.d, chow_pipeline(shape).ch_s_dual, max_degree)


@lru_cache(maxsize=None)
def chern_S_inverse_series(shape: GrassmannShape) -> tuple:
    """Degree-1..t coefficients of the formal inverse of 1 + sigma_1 + ... .

    Degrees 1..d are the Chern classes of S; every degree above d must
    evaluate to zero in the Chow ring (the Whitney relations), which is what
    the invariant tests pin down.
    """
    t = shape.dim
    out = [unit(shape)]
    for k in range(1, t + 1):
        acc = zero(shape)
        for i in range(1, min(k, shape.cols) + 1):
            acc = acc - pieri(out[k - i], i)
        out.append(acc)
    return tuple(out[1:])


def ch_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleCharacter:
    """Chern character of the tangent bundle as the graded product ch(S*)ch(Q)."""
    return _character(shape, shape.dim, chow_pipeline(shape).ch_tangent, max_degree)


def chern_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleChern:
    """Chern classes of the tangent bundle, recovered from its character."""
    chern = chow_pipeline(shape).chern
    cap = _cap(shape, max_degree)
    return BundleChern(shape, shape.dim, tuple(chern(m) for m in range(1, cap + 1)))


def todd_tangent(shape: GrassmannShape, max_degree: int | None = None) -> ChowElement:
    """Todd class of the tangent bundle: exp(sum_m a_m m! ch_m), exact.

    Inhomogeneous, degree-0 part 1, components up to max_degree (default t),
    joined from the pipeline's disjoint graded pieces.
    """
    todd = chow_pipeline(shape).todd
    terms: dict = {}
    for k in range(_cap(shape, max_degree) + 1):
        terms.update(todd(k).terms)
    return ChowElement(shape, terms)
