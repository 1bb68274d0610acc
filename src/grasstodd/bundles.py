"""Tautological-bundle classes on a Grassmannian.

Chern classes and Chern characters of the quotient bundle Q, the subbundle
S and its dual, and of the tangent bundle T = S* (x) Q, together with the
Todd class of the tangent bundle — everything as exact Schubert-basis classes.

`TangentPipeline` builds these classes one degree at a time from the
power-sum action of the Chern characters. `chow_pipeline(shape)` is its
instance on the Chow ring, kept on the shape's engine (`chow.Engine`), and
every constructor here reads a prefix of its degrees; `cone.TauStream` is
the subclass whose classes are reduced modulo h, kept on the same engine.

Chern classes and characters are `BundleClass`es. All constructors but
`chern_Q` take `max_degree`, the top degree to compute: None or a value
above t = d(n-d) means every degree, and a negative one raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, partialmethod
from math import comb, factorial, gcd, lcm

from .chow import ChowElement, combine, engine, piece, sigma, zero
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


_UNIT = {(): 1}  # the unit as an integer piece; never mutated


class TangentPipeline:
    """The tangent-bundle classes of one shape on its Chow ring, one degree
    at a time.

    m! ch_m of a bundle is the m-th power sum of its Chern roots. For S* it
    is p_m, which acts on a class by the Murnaghan-Nakayama step
    (`chow.Engine.power_sum`); for Q it is p_m(Q) = (-1)^(m+1) p_m; the
    ranks d and n-d sit in degree 0. The operator T_j = j! ch_j(T) for
    T = S* (x) Q acts on a whole class (`_tangent`), and the Todd and the
    Chern classes of T share one recurrence over it,
        y_k = (1/k) sum_j w_j T_j y_(k-j),
    with w_j = j a_j for td = exp(sum_j a_j j! ch_j(T)) and
    w_j = (-1)^(j-1) for the Chern classes (Newton's identities).

    Each sequence (`todd`, `chern`, `ch_tangent`, `ch_s_dual`, `ch_q`,
    `ch_s`) maps a degree to its homogeneous `ChowElement`, built once as
    an integer piece (a {partition: int} dict over one denominator) by the
    method of the same name with a leading underscore, and kept in one memo
    under (that method's name, degree). A degree where `vanishes(k)` holds
    is zero in every sequence with no work, and the recurrence skips the
    terms whose operator T_j lies in such a degree; every piece of degree
    k >= 1 passes through `reduce`. Here degrees above t vanish and `reduce`
    is the identity, and every Chern piece must come out with denominator 1
    (checked, raising ArithmeticError otherwise); `cone.TauStream` overrides
    both to work in A/(h).
    """

    def __init__(self, shape: GrassmannShape):
        self.shape = shape
        self._memo: dict = {}  # (method name, degree) -> ChowElement

    @property
    def engine(self):
        """The shape's engine, looked up: a stored one would make a cycle."""
        return engine(self.shape)

    def vanishes(self, k: int) -> bool:
        return k > self.shape.dim

    def reduce(self, k: int, terms: dict, den: int) -> tuple:
        return terms, den

    def _element(self, name: str, k: int) -> ChowElement:
        """The degree-k piece that method `name` builds, built once and
        reduced when k >= 1."""
        hit = self._memo.get((name, k))
        if hit is None:
            terms, den = {}, 1
            if not self.vanishes(k):
                terms, den = getattr(self, name)(k)
                if k:
                    terms, den = self.reduce(k, terms, den)
            hit = self._memo[name, k] = piece(self.shape, terms, den)
        return hit

    # each sequence names its builder, so no name string is built per piece
    todd = partialmethod(_element, "_todd")
    chern = partialmethod(_element, "_chern")
    ch_tangent = partialmethod(_element, "_ch_tangent")
    ch_s_dual = partialmethod(_element, "_ch_s_dual")
    ch_q = partialmethod(_element, "_ch_q")
    ch_s = partialmethod(_element, "_ch_s")

    def _todd(self, k: int) -> tuple:
        if k == 0:
            return _UNIT, 1
        return self._recurrence(k, "_todd", _todd_weight)

    def _chern(self, k: int) -> tuple:
        if k == 0:
            return _UNIT, 1
        terms, den = self._recurrence(k, "_chern", _chern_weight)
        # only the Chow ring's own classes must be integral
        if type(self) is TangentPipeline and (g := gcd(den, *terms.values())) != den:
            raise ArithmeticError(f"Chern piece {k} of {self.shape} has denominator {den // g}")
        return terms, den

    def _ch_tangent(self, m: int) -> tuple:
        if m == 0:
            return {(): self.shape.dim}, 1
        return self._tangent([(m, 1, _UNIT)]), factorial(m)

    def _ch_s_dual(self, m: int) -> tuple:
        return self._character(self.shape.d, m, 1)

    def _ch_q(self, m: int) -> tuple:
        return self._character(self.shape.cols, m, (-1) ** (m + 1))

    def _ch_s(self, m: int) -> tuple:
        return self._character(self.shape.d, m, (-1) ** m)  # ch_m(S) = (-1)^m ch_m(S*)

    def _character(self, rank: int, m: int, sign: int) -> tuple:
        """Piece m of the character with m! ch_m = sign p_m for m >= 1."""
        if m == 0:
            return {(): rank}, 1
        return _apply(self.engine.power_sum, _UNIT, m, sign, {}), factorial(m)

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
        power = self.engine.power_sum  # looked up once, not once per step
        out: dict = {}
        inner: dict = {}
        for j, c, terms in parts:
            if j & 1:
                _apply(power, terms, j, c * n, out)
                continue
            if n != 2 * d:
                _apply(power, terms, j, c * (n - 2 * d), out)
            for i in range(1, j // 2 + 1):
                w = comb(j, i) if 2 * i == j else 2 * comb(j, i)
                _apply(power, terms, j - i, c * w if i & 1 else -c * w, inner.setdefault(i, {}))
        for i, terms in inner.items():
            _apply(power, terms, i, 1, out)
        return out

    def _recurrence(self, k: int, name: str, weight) -> tuple:
        """The unreduced integer piece y_k; w_j is tested before `vanishes(j)`,
        which may build an h-table.

        Over M = lcm of den(w_j) D_(k-j), where D is the denominator of
        y_(k-j), y_k = (1 / kM) sum_j num(w_j) (M / den(w_j) D_(k-j)) T_j N_(k-j)
        with N the numerators: one integer sum, one common denominator.
        """
        parts = []
        for j in range(1, k + 1):
            w = weight(j)
            if w and not self.vanishes(j):
                y = self._element(name, k - j)
                if y.terms:
                    parts.append((j, w, y.terms, y.den * w.denominator))
        m = lcm(*(scale for *_, scale in parts))
        out = self._tangent((j, w.numerator * (m // scale), terms) for j, w, terms, scale in parts)
        return out, k * m


def _apply(power, terms: dict, m: int, c: int, out: dict) -> dict:
    """out += c p_m terms, one Murnaghan-Nakayama step `power(lam, m)` per term."""
    for lam, a in terms.items():
        ca = c * a
        for mu, sign in power(lam, m).items():
            out[mu] = out.get(mu, 0) + (ca if sign > 0 else -ca)
    return out


@cache  # computed once per j, not once per step (k, j) of the recurrence
def _todd_weight(j: int) -> Fraction:
    return j * todd_log_coeff(j)


def _chern_weight(j: int) -> Fraction:
    return Fraction((-1) ** (j - 1))


def chow_pipeline(shape: GrassmannShape) -> TangentPipeline:
    """The shape's pipeline on the Chow ring, kept on its engine; degrees
    above t vanish."""
    return engine(shape).kept("chow pipeline", lambda: TangentPipeline(shape))


def _cap(shape: GrassmannShape, max_degree: int | None) -> int:
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    return shape.dim if max_degree is None else min(max_degree, shape.dim)


def _bundle_class(shape: GrassmannShape, rank: int, piece, max_degree) -> BundleClass:
    return BundleClass(shape, rank, tuple(piece(m) for m in range(_cap(shape, max_degree) + 1)))


def chern_Q(shape: GrassmannShape) -> BundleClass:
    """Chern classes of the rank-(n-d) quotient bundle: c_m = sigma_m."""
    return _bundle_class(shape, shape.cols, partial(sigma, shape), shape.cols)


def ch_Q(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of Q: m! ch_m(Q) = (-1)^(m+1) p_m, by the Murnaghan-Nakayama step."""
    return _bundle_class(shape, shape.cols, chow_pipeline(shape).ch_q, max_degree)


def ch_S(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of S: m! ch_m(S) = (-1)^m p_m, by the Murnaghan-Nakayama step."""
    return _bundle_class(shape, shape.d, chow_pipeline(shape).ch_s, max_degree)


def ch_S_dual(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of S*: m! ch_m(S*) = p_m, by the Murnaghan-Nakayama step."""
    return _bundle_class(shape, shape.d, chow_pipeline(shape).ch_s_dual, max_degree)


def ch_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of the tangent bundle: ch(T) = ch(S*) ch(Q), each m! ch_m(T)
    the pipeline's operator T_m applied to the unit."""
    return _bundle_class(shape, shape.dim, chow_pipeline(shape).ch_tangent, max_degree)


def chern_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern classes of the tangent bundle, recovered from its character."""
    return _bundle_class(shape, shape.dim, chow_pipeline(shape).chern, max_degree)


def todd_tangent(shape: GrassmannShape, max_degree: int | None = None) -> ChowElement:
    """Todd class of the tangent bundle: exp(sum_m a_m m! ch_m), exact.

    Inhomogeneous, degree-0 part 1, components up to max_degree (default t),
    joined from the pipeline's disjoint graded pieces.
    """
    pieces = map(chow_pipeline(shape).todd, range(_cap(shape, max_degree) + 1))
    return combine(shape, ((lam, Fraction(c, y.den)) for y in pieces for lam, c in y.terms.items()))
