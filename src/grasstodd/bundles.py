"""Tautological-bundle classes on a Grassmannian.

Chern classes and Chern characters of the quotient bundle Q, the subbundle
S and its dual, and of the tangent bundle T = S* (x) Q, together with the
Todd class of the tangent bundle — everything as exact Schubert-basis classes.

Every character has one closed form, kept on the shape's engine
(`_character`): m! ch_m = +-p_m for S, S* and Q, one Murnaghan-Nakayama
step on the unit per degree, and m! ch_m(T) = T_m(1) for the tangent
bundle. A `TangentPipeline` is one sequence on one ring, built from the
operators T_j one degree at a time: on the Chow ring the Todd class and
the Chern classes of T are one instance each (`chow_pipeline`), and
`cone.TauStream` is the Todd sequence on A/(h).

Chern classes, characters and the Todd pieces (`todd_pieces`) are
`BundleClass`es, immutable named tuples each equal to the tuple of its
fields. All constructors but `chern_Q` take `max_degree`, the top degree to
compute: None or a value above t = d(n-d) means every degree, and a
negative one raises ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, lcm

from .chow import ChowElement, engine, piece, sigma, zero
from .partitions import GrassmannShape
from .series import todd_log_coeff


class BundleClass(namedtuple("BundleClass", "shape parts")):
    """Graded class of a bundle: Chern classes, Chern character or Todd
    class.

    parts[k] is the degree-k piece for k = 0..cap, each homogeneous of
    degree k or zero: the unit c_0 = td_0 = 1 for Chern and Todd classes,
    the bundle's rank times the unit for the character. Degrees past the
    stored ones read as zero. Index the pieces through `parts` or
    `component`: the class itself is the tuple (shape, parts).
    """

    __slots__ = ()

    def component(self, m: int) -> ChowElement:
        if 0 <= m < len(self.parts):
            return self.parts[m]
        return zero(self.shape)


_UNIT = {(): 1}  # the unit as an integer piece; never mutated


class TangentPipeline:
    """One sequence of tangent-bundle classes of a shape on one ring, one
    degree at a time.

    m! ch_m of a bundle is the m-th power sum of its Chern roots. For S* it
    is p_m, which acts on a class by the Murnaghan-Nakayama step
    (`chow.Engine.power_sum`); for Q it is p_m(Q) = (-1)^(m+1) p_m; the
    ranks d and n-d sit in degree 0. The operator T_j = j! ch_j(T) for
    T = S* (x) Q acts on a whole class (`_tangent`), and the sequence is
        y_0 = 1,  y_k = (1/k) sum_j w_j T_j y_(k-j),
    for the weight w held on the instance: w_j = j a_j gives the Todd class
    td = exp(sum_j a_j j! ch_j(T)) (`_todd_weight`), and w_j = (-1)^(j-1)
    the Chern classes (`_chern_weight`, Newton's identities).

    Calling the pipeline maps a degree to its homogeneous `ChowElement`,
    built once as an integer piece (a {partition: int} dict over one
    denominator) and kept in one memo by degree. A degree where
    `vanishes(k)` holds is zero with no work, and the recurrence skips the
    terms whose operator T_j lies in such a degree; every piece of degree
    k >= 1 passes through `reduce`. Here degrees above t vanish and `reduce`
    is the identity; `cone.TauStream` overrides both to work in A/(h).
    """

    def __init__(self, shape: GrassmannShape, weight):
        self.shape = shape
        self.weight = weight
        self._memo: dict = {}  # degree -> ChowElement

    def vanishes(self, k: int) -> bool:
        return k > self.shape.dim

    def reduce(self, k: int, terms: dict, den: int) -> tuple:
        return terms, den

    def __call__(self, k: int) -> ChowElement:
        """The degree-k piece y_k, built once and reduced when k >= 1."""
        hit = self._memo.get(k)
        if hit is None:
            terms, den = {}, 1
            if not k:
                terms = _UNIT
            elif not self.vanishes(k):
                terms, den = self.reduce(k, *self._recurrence(k))
            hit = self._memo[k] = piece(self.shape, terms, den)
        return hit

    def _recurrence(self, k: int) -> tuple:
        """The unreduced integer piece y_k; w_j is tested before `vanishes(j)`,
        which may build an h-table.

        Over M = lcm of den(w_j) D_(k-j), where D is the denominator of
        y_(k-j), y_k = (1 / kM) sum_j num(w_j) (M / den(w_j) D_(k-j)) T_j N_(k-j)
        with N the numerators: one integer sum, one common denominator.
        """
        parts = []
        for j in range(k, 0, -1):  # y_(k-j) lowest first: a cold query recurses a bounded depth
            w = self.weight(j)
            if w and not self.vanishes(j):
                y = self(k - j)
                if y.terms:
                    parts.append((j, w, y.terms, y.den * w.denominator))
        m = lcm(*(scale for *_, scale in parts))
        out = _tangent(self.shape, ((j, w.numerator * (m // scale), terms) for j, w, terms, scale in parts))
        return out, k * m


def _tangent(shape: GrassmannShape, parts) -> dict:
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
    n, d = shape.n, shape.d
    power = engine(shape).power_sum  # looked up once, not once per step
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


def chow_pipeline(shape: GrassmannShape, weight) -> TangentPipeline:
    """The shape's sequence of `weight` on the Chow ring, kept on its engine
    under the weight; degrees above t vanish."""
    return engine(shape).kept(weight, lambda: TangentPipeline(shape, weight))


def _cap(shape: GrassmannShape, max_degree: int | None) -> int:
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    return shape.dim if max_degree is None else min(max_degree, shape.dim)


def _bundle_class(shape: GrassmannShape, part, max_degree) -> BundleClass:
    return BundleClass(shape, tuple(part(m) for m in range(_cap(shape, max_degree) + 1)))


def chern_Q(shape: GrassmannShape) -> BundleClass:
    """Chern classes of the rank-(n-d) quotient bundle: c_m = sigma_m."""
    return _bundle_class(shape, partial(sigma, shape), shape.cols)


def _character(shape: GrassmannShape, rank: int, signs, max_degree) -> BundleClass:
    """The character of a rank-`rank` bundle: rank in degree 0, and m! ch_m
    for m >= 1 one operator on the unit, signs[m % 2] p_m, or T_m when
    `signs` is None. Every degree is built on the first query and kept on
    the engine under the signs."""
    cap, eng = _cap(shape, max_degree), engine(shape)
    parts = eng.kept(("character", signs), lambda: (piece(shape, {(): rank}, 1), *(
        piece(shape, _tangent(shape, [(m, 1, _UNIT)]) if signs is None
              else _apply(eng.power_sum, _UNIT, m, signs[m % 2], {}), factorial(m))
        for m in range(1, shape.dim + 1))))
    return BundleClass(shape, parts[: cap + 1])


def ch_Q(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of Q: m! ch_m(Q) = (-1)^(m+1) p_m, by the Murnaghan-Nakayama step."""
    return _character(shape, shape.cols, (-1, 1), max_degree)


def ch_S(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of S: m! ch_m(S) = (-1)^m p_m, by the Murnaghan-Nakayama step."""
    return _character(shape, shape.d, (1, -1), max_degree)


def ch_S_dual(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of S*: m! ch_m(S*) = p_m, by the Murnaghan-Nakayama step."""
    return _character(shape, shape.d, (1, 1), max_degree)


def ch_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern character of the tangent bundle: ch(T) = ch(S*) ch(Q), each
    m! ch_m(T) the operator T_m on the unit."""
    return _character(shape, shape.dim, None, max_degree)


def chern_tangent(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """Chern classes of the tangent bundle, recovered from its character.

    Every piece must come out integral; one left with a denominator raises
    ArithmeticError.
    """
    chern = _bundle_class(shape, chow_pipeline(shape, _chern_weight), max_degree)
    for k, y in enumerate(chern.parts):
        if y.den != 1:
            raise ArithmeticError(f"Chern piece {k} of {shape} has denominator {y.den}")
    return chern


def todd_pieces(shape: GrassmannShape, max_degree: int | None = None) -> BundleClass:
    """The Todd class of the tangent bundle as its graded pieces td_k, the
    pipeline's Todd sequence."""
    return _bundle_class(shape, chow_pipeline(shape, _todd_weight), max_degree)


def todd_tangent(shape: GrassmannShape, max_degree: int | None = None) -> ChowElement:
    """Todd class of the tangent bundle: exp(sum_m a_m m! ch_m), exact.

    Inhomogeneous, degree-0 part 1, components up to max_degree (default t),
    joined from the pipeline's disjoint graded pieces (`todd_pieces`) as one
    integer piece over the lcm of their denominators.
    """
    pieces = todd_pieces(shape, max_degree).parts
    den = lcm(*(y.den for y in pieces))
    return piece(shape, {lam: c * (den // y.den) for y in pieces for lam, c in y.terms.items()}, den)
