"""Tautological-bundle classes on a Grassmannian.

Chern classes and Chern characters of the quotient bundle Q, the subbundle
S and its dual, and of the tangent bundle T = S* (x) Q, together with the
Todd class of the tangent bundle — everything as exact Schubert-basis classes.

`TangentPipeline` builds these classes one degree at a time from the
power-sum action of the Chern characters. `chow_pipeline(shape)` is its
instance on the Chow ring, kept on the shape's engine (`chow.Engine`), and
every constructor here reads a prefix of its degrees; `cone.TauStream` is
the instance whose classes are reduced modulo h, kept on the same engine.

Chern classes and characters are `BundleClass`es. All constructors but
`chern_Q` take `max_degree`, the top degree to compute: None or a value
above t = d(n-d) means every degree, and a negative one raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, gcd, lcm

from .chow import ChowElement, combine, engine, sigma, zero
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
    is p_m, which acts on a class by the Murnaghan-Nakayama step
    (`_Ring.power_sum`); for Q it is p_m(Q) = (-1)^(m+1) p_m; the ranks d
    and n-d sit in degree 0. The operator T_j = j! ch_j(T) for T = S* (x) Q
    acts on a whole class (`_tangent`), and the Todd and the Chern classes
    of T share one recurrence over it,
        y_k = (1/k) sum_j w_j T_j y_(k-j),
    with w_j = j a_j for td = exp(sum_j a_j j! ch_j(T)) and
    w_j = (-1)^(j-1) for the Chern classes (Newton's identities).

    Every sequence is held as integer graded pieces: a {partition: int}
    dict over one positive denominator, with gcd 1. `reduce`, when given,
    maps a degree k >= 1 and a piece (terms, den) of that degree to its
    canonical form in the same layout; without it the classes live in the
    Chow ring itself, where every Chern piece must come out with
    denominator 1 (checked, raising ArithmeticError otherwise). Each
    public sequence maps a degree to its homogeneous `ChowElement`,
    converted once from the piece and kept. A degree where `vanishes(k)`
    holds is zero in every sequence with no work, and the recurrence skips
    the terms whose operator T_j lies in such a degree.
    """

    def __init__(self, shape: GrassmannShape, vanishes, reduce=None):
        self.shape = shape
        self._power = engine(shape).power_sum
        self._vanishes = vanishes
        self._reduce = reduce
        self._todd_work: list = []
        self._todd_piece = self._pieces(self._todd)
        self._chern_piece = self._pieces(self._chern)
        self.todd = self._public(self._todd_piece)
        self.chern = self._public(self._chern_piece)
        one = {(): 1}
        self.ch_tangent = self._character(shape.dim, lambda m: self._tangent([(m, 1, one)]))
        self.ch_s_dual = self._character(shape.d, lambda m: self._apply(one, m, 1, {}))
        self.ch_q = self._character(shape.cols, lambda m: self._apply(one, m, (-1) ** (m + 1), {}))
        # ch_m(S) = (-1)^m ch_m(S*)
        self.ch_s = self._character(shape.d, lambda m: self._apply(one, m, (-1) ** m, {}))

    def _character(self, rank: int, power):
        """The Chern character whose m! ch_m is `power(m)` for m >= 1."""
        return self._public(self._pieces(
            lambda m: (power(m), factorial(m)) if m else ({(): rank}, 1)))

    def _pieces(self, rule):
        """Memoized integer pieces of `rule`, reduced in degrees >= 1."""
        memo: dict = {}

        def at(k: int) -> tuple:
            hit = memo.get(k)
            if hit is None:
                if self._vanishes(k):
                    hit = ({}, 1)
                else:
                    hit = rule(k)
                    if k and self._reduce is not None:
                        hit = self._reduce(k, *hit)
                    hit = _lowest(*hit)
                memo[k] = hit
            return hit

        return at

    def _public(self, piece):
        """Memoized `ChowElement`s of the integer pieces of `piece`."""
        memo: dict = {}

        def at(k: int) -> ChowElement:
            hit = memo.get(k)
            if hit is None:
                terms, den = piece(k)
                hit = ChowElement(self.shape, {lam: Fraction(c, den) for lam, c in terms.items()})
                memo[k] = hit
            return hit

        return at

    def _apply(self, terms: dict, m: int, c: int, out: dict) -> dict:
        """out += c p_m terms, one Murnaghan-Nakayama step per term."""
        power = self._power
        for lam, a in terms.items():
            ca = c * a
            for mu, sign in power(lam, m).items():
                out[mu] = out.get(mu, 0) + (ca if sign > 0 else -ca)
        return out

    def _tangent(self, parts) -> dict:
        """sum c T_j terms over the (j, c, terms) of `parts`, j >= 1, for the
        operator T_j = j! ch_j(T) = sum_i C(j, i) p_i(S*) p_(j-i)(Q).

        The two end terms give d (-1)^(j+1) p_j and (n-d) p_j, and the MN
        operators commute, so the middle terms i and j-i carry
        C(j, i) p_i p_(j-i) with the signs (-1)^(j-i+1) and (-1)^(i+1).
        For odd j these cancel in pairs and T_j = n p_j. For even j,
            T_j = (n-2d) p_j - sum_(i=1..j-1) (-1)^i C(j, i) p_i p_(j-i),
        where i and j-i are equal terms, so only i <= j/2 is computed. The
        inner steps p_(j-i) of every part are merged by i first, so each
        outer step p_i runs once on one class.
        """
        n, d = self.shape.n, self.shape.d
        out: dict = {}
        inner: dict = {}
        for j, c, terms in parts:
            if j & 1:
                self._apply(terms, j, c * n, out)
                continue
            if n != 2 * d:
                self._apply(terms, j, c * (n - 2 * d), out)
            for i in range(1, j // 2 + 1):
                w = comb(j, i) if 2 * i == j else 2 * comb(j, i)
                self._apply(terms, j - i, c * w if i & 1 else -c * w, inner.setdefault(i, {}))
        for i, terms in inner.items():
            self._apply(terms, i, 1, out)
        return out

    def _recurrence(self, k: int, piece, weight) -> tuple:
        """The unreduced integer piece y_k; w_j is tested before `vanishes(j)`,
        which may build an echelon form.

        Over M = lcm of den(w_j) D_(k-j), where D is the denominator of
        y_(k-j), y_k = (1 / kM) sum_j num(w_j) (M / den(w_j) D_(k-j)) T_j N_(k-j)
        with N the numerators: one integer sum, one common denominator.
        """
        parts = []
        for j in range(1, k + 1):
            w = weight(j)
            if w and not self._vanishes(j):
                terms, den = piece(k - j)
                if terms:
                    parts.append((j, w, terms, den * w.denominator))
        m = lcm(*(scale for *_, scale in parts))
        out = self._tangent((j, w.numerator * (m // scale), terms) for j, w, terms, scale in parts)
        return out, k * m

    def _todd(self, k: int) -> tuple:
        if k == 0:
            return {(): 1}, 1
        self._todd_work.append(k)
        return self._recurrence(k, self._todd_piece, _todd_weight)

    def _chern(self, k: int) -> tuple:
        if k == 0:
            return {(): 1}, 1
        terms, den = _lowest(*self._recurrence(k, self._chern_piece, _chern_weight))
        if den != 1 and self._reduce is None:
            raise ArithmeticError(f"Chern piece {k} of {self.shape} has denominator {den}")
        return terms, den

    @property
    def todd_degrees(self) -> tuple:
        """Degrees >= 1 whose Todd component ran the recurrence."""
        return tuple(sorted(self._todd_work))


@cache  # computed once per j, not once per step (k, j) of the recurrence
def _todd_weight(j: int) -> Fraction:
    return j * todd_log_coeff(j)


def _chern_weight(j: int) -> Fraction:
    return Fraction((-1) ** (j - 1))


def _lowest(terms: dict, den: int) -> tuple:
    """The integer piece terms / den in lowest terms: zero coefficients
    dropped, den > 0 and gcd(den, every coefficient) = 1."""
    terms = {lam: c for lam, c in terms.items() if c}
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {lam: c // g for lam, c in terms.items()}
    return terms, den // g


def chow_pipeline(shape: GrassmannShape) -> TangentPipeline:
    """The shape's pipeline on the Chow ring, kept on its engine; degrees
    above t vanish."""
    return engine(shape).kept("chow pipeline", lambda: TangentPipeline(shape, lambda k: k > shape.dim))


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
    the pipeline's operator T_m applied to the unit."""
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
