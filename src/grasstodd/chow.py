"""The rational Chow ring of a Grassmannian on its Schubert basis.

Classes are sparse rational linear combinations of Schubert classes, indexed
by partitions inside the d x (n-d) box. Every product of two Schubert
classes, Pieri's rule for a special class included, comes from one
Littlewood-Richardson tableau count truncated to the box. Multiplication by
a power sum of the Chern roots of S* is the Murnaghan-Nakayama rule; the
tangent-bundle pipeline (`bundles.TangentPipeline`) builds the action of
every Chern character of the tangent bundle from it.
Reduction modulo the hyperplane class h = sigma_1 is exact linear algebra
over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd
from operator import neg

from .partitions import GrassmannShape, Partition, enumerate_box, fits_box, normalize_partition


class ShapeMismatchError(ValueError):
    """Combining classes attached to different Grassmannians."""


class NonHomogeneousError(ValueError):
    """An operation requiring a homogeneous class received a mixed one."""


@dataclass(frozen=True)
class ChowElement:
    """Sparse rational combination of Schubert classes for a fixed shape.

    `terms` maps box partitions to nonzero Fractions. Instances are treated
    as immutable values; the dict is never mutated after construction.
    Every sum of classes goes through `combine`, which drops the terms that
    cancel; `ordered()` lists the terms in the `term_order` used for output.
    """

    shape: GrassmannShape
    terms: dict

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam: Partition) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

    def component(self, degree: int) -> "ChowElement":
        """Graded piece: restriction to keys of the given weight."""
        picked = {lam: c for lam, c in self.terms.items() if sum(lam) == degree}
        return ChowElement(self.shape, picked)

    def degrees(self) -> tuple[int, ...]:
        """Sorted weights occurring in the support."""
        return tuple(sorted({sum(lam) for lam in self.terms}))

    def homogeneous_degree(self) -> int:
        """Weight of a homogeneous element; raises on mixed support."""
        ws = self.degrees()
        if len(ws) != 1:
            raise NonHomogeneousError(f"element has degrees {ws}")
        return ws[0]

    def ordered(self) -> list:
        """The (partition, coefficient) terms in `term_order`."""
        return [(lam, self.terms[lam]) for lam in sorted(self.terms, key=term_order)]

    def __add__(self, other: "ChowElement") -> "ChowElement":
        if not isinstance(other, ChowElement):
            return NotImplemented
        _check_shapes(self, other)
        return combine(self.shape, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "ChowElement":
        return ChowElement(self.shape, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "ChowElement") -> "ChowElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return scale(other, self)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        out = ""
        for lam, c in self.ordered():
            name = "[" + ",".join(map(str, lam)) + "]"
            mag = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if out:
                out += " + " if c > 0 else " - "
            elif c < 0:
                out = "-"
            out += mag if lam else str(abs(c))
        return out or "0"


def term_order(lam: Partition) -> tuple:
    """Sort key of the output order: by degree, then larger parts first."""
    return sum(lam), tuple(map(neg, lam))


def combine(shape: GrassmannShape, pairs) -> ChowElement:
    """The sum of c * [lam] over (lam, c) pairs of box partitions and
    coefficients, less the terms that cancel."""
    out: dict = {}
    for lam, c in pairs:
        out[lam] = out[lam] + c if lam in out else c
    return ChowElement(shape, {lam: c for lam, c in out.items() if c})


def _check_shapes(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")


def zero(shape: GrassmannShape) -> ChowElement:
    return ChowElement(shape, {})


def unit(shape: GrassmannShape) -> ChowElement:
    return ChowElement(shape, {(): Fraction(1)})


def schubert(shape: GrassmannShape, lam, coeff=1) -> ChowElement:
    """The class of a single box partition, optionally scaled."""
    return from_terms(shape, {tuple(lam): coeff})


def sigma(shape: GrassmannShape, m: int) -> ChowElement:
    """Special class sigma_m = [(m)]; zero outside 1 <= m <= n-d, unit at 0."""
    if m == 0:
        return unit(shape)
    if 1 <= m <= shape.cols:
        return schubert(shape, (m,))
    return zero(shape)


def from_terms(shape: GrassmannShape, mapping) -> ChowElement:
    """The class of a {partition: coefficient} mapping; every partition must
    fit the box, and partitions equal after normalizing are summed."""
    pairs = [(normalize_partition(lam), Fraction(c)) for lam, c in mapping.items()]
    for lam, _ in pairs:
        if not fits_box(lam, shape):
            raise ValueError(f"partition {lam} does not fit the box of {shape}")
    return combine(shape, pairs)


def scale(q, a: ChowElement) -> ChowElement:
    q = Fraction(q)
    if not q:
        return zero(a.shape)
    return ChowElement(a.shape, {lam: q * c for lam, c in a.terms.items()})


_NOTHING: dict = {}  # the one empty memo entry; memo values are never mutated


class _Ring:
    """Per-shape multiplication engine with memoised integer kernels: the
    Murnaghan-Nakayama step (`power_sum`) and basis products by the
    Littlewood-Richardson rule (`pair_product`), one memo each.

    All caches hold integer data only; they are keyed on ints and immutable
    tuples, so concurrent reads are safe and racing inserts are idempotent.
    """

    def __init__(self, shape: GrassmannShape):
        self.shape = shape
        self._power: dict = {}  # j -> {lam: power_sum(lam, j)}
        self._parts: dict = {}  # one tuple per partition the MN step returns
        self._pair: dict = {}

    def power_sum(self, lam: Partition, j: int) -> dict:
        """Signed box partitions of [lam] * p_j for j >= 1, by the
        Murnaghan-Nakayama rule.

        [lam] is the Schur polynomial s_lam in the d Chern roots of S*, and
        p_j = j! ch_j(S*) their power sum. On the beta-numbers
        lam_i + d - i, adding j to one of them gives mu with sign (-1) to
        the number of beta-numbers jumped; a collision gives nothing, and so
        does a result above n - 1, which is mu_1 > n - d. For j = 1 every
        sign is +1 and the result is multiplication by h = sigma_1.
        """
        memo = self._power.get(j)
        if memo is None:
            memo = self._power[j] = {}
        hit = memo.get(lam)
        if hit is not None:
            return hit
        d, parts = self.shape.d, self._parts
        beta = [p + d - 1 - r for r, p in enumerate(lam + (0,) * (d - len(lam)))]
        hit = {}
        for i, b in enumerate(beta):
            moved = b + j
            if moved < self.shape.n and moved not in beta:
                k = i  # moved lands at k, jumping the i - k beta-numbers before i
                while k and beta[k - 1] < moved:
                    k -= 1
                new = beta[:k] + [moved] + beta[k:i] + beta[i + 1:]
                mu = tuple(v + r + 1 - d for r, v in enumerate(new) if v + r + 1 - d)
                hit[parts.setdefault(mu, mu)] = -1 if (i - k) & 1 else 1
        memo[lam] = hit or _NOTHING
        return memo[lam]

    def pair_product(self, lam: Partition, mu: Partition) -> dict:
        """Integer coefficients of the basis product [lam] * [mu]."""
        if sum(lam) + sum(mu) > self.shape.dim:
            return {}
        if (len(mu), sum(mu), mu) > (len(lam), sum(lam), lam):
            lam, mu = mu, lam
        # mu, the factor with fewer rows, is the content: one strip per row
        key = (lam, mu)
        hit = self._pair.get(key)
        if hit is None:
            hit = _lr_terms(lam, mu, self.shape.d, self.shape.cols)
            self._pair[key] = hit
        return hit


def _lr_terms(lam: Partition, mu: Partition, rows: int, cols: int) -> dict:
    """Littlewood-Richardson coefficients {nu: c} of s_lam * s_mu, for nu in
    the rows x cols box.

    c is the number of LR tableaux of shape nu/lam and content mu (Fulton,
    Young Tableaux, ch. 5). They are built one label at a time: the mu_k boxes
    labelled k go on as a horizontal strip, kept only while, for every row
    r, #k in rows <= r is at most #(k-1) in rows < r, which is the lattice
    condition on the reverse reading word. Tableaux that agree on the shape
    and on where their last label sits extend alike, so they are counted
    together; shapes that leave the box are pruned.
    """
    states = {(lam + (0,) * (rows - len(lam)), (0,) * rows): 1}
    for k, m in enumerate(mu):
        grown: dict = {}
        for (shape, prev), c in states.items():
            # a strip row may reach the row above as it was before the strip
            caps = [(cols if r == 0 else shape[r - 1]) - shape[r] for r in range(rows)]
            room = list(accumulate(reversed(caps), initial=0))[::-1]

            def place(r: int, left: int, added: tuple, slack: int):
                # slack: #(k-1) in rows < r minus #k in rows < r; label 1
                # has no lattice bound
                if not left:
                    added += (0,) * (rows - r)
                    key = (tuple(p + a for p, a in zip(shape, added)), added)
                    grown[key] = grown.get(key, 0) + c
                    return
                if room[r] < left:
                    return
                for a in range(min(caps[r], left, slack), -1, -1):
                    place(r + 1, left - a, added + (a,), slack - a + prev[r])

            place(0, m, (), 0 if k else m)
        states = grown
    out: dict = {}
    for (shape, _), c in states.items():
        nu = tuple(p for p in shape if p)
        out[nu] = out.get(nu, 0) + c
    return out


@lru_cache(maxsize=None)
def ring(shape: GrassmannShape) -> _Ring:
    return _Ring(shape)


def pieri(a: ChowElement, m: int) -> ChowElement:
    """`multiply(a, sigma_m)`: each term gains every horizontal m-strip that
    stays in the box. a itself for m = 0, where sigma_0 is the unit, and
    zero for m outside [0, n-d]."""
    return multiply(a, sigma(a.shape, m))


def multiply(a: ChowElement, b: ChowElement) -> ChowElement:
    """Product of two classes; pairs of terms above the top degree are skipped."""
    _check_shapes(a, b)
    shape = a.shape
    product = ring(shape).pair_product
    by_weight: dict = {}
    for mu, cb in b.terms.items():
        by_weight.setdefault(sum(mu), []).append((mu, cb))
    return combine(shape, (
        (nu, c * k)
        for lam, ca in a.terms.items()
        for wb, bucket in by_weight.items() if sum(lam) + wb <= shape.dim
        for mu, cb in bucket
        for c in (ca * cb,)  # one Fraction product per pair of terms
        for nu, k in product(lam, mu).items()
    ))


def lr_coefficient(lam, mu, nu) -> int:
    """Structure constant of [nu] in [lam]*[mu], free of box truncation."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    if sum(lam) + sum(mu) != sum(nu) or not (_inside(lam, nu) and _inside(mu, nu)):
        return 0
    # every LR tableau of shape nu/lam lies in the len(nu) x nu_1 box
    return _lr_terms(lam, mu, len(nu), nu[0] if nu else 0).get(nu, 0)


def _inside(lam: Partition, nu: Partition) -> bool:
    return len(lam) <= len(nu) and all(p <= q for p, q in zip(lam, nu))


@dataclass(frozen=True)
class HMatrixSet:
    """Multiplication by h = sigma_1 on the graded pieces, with echelon data
    built one degree at a time on first use.

    For degree i in 1..dim, the map sends the degree-(i-1) basis into the
    degree-i one; each source partition gives a 0/1 column. `echelon(i)` is
    a reduced integer row basis of the column space, stored as (pivot
    position, vector) pairs, and `rank(i)` is its length. A degree's echelon
    form is computed when first asked for and kept; `built` lists the
    degrees computed so far. `quotient_dim(i)` and `normal_forms(i)` give
    the degree-i piece of the quotient A/(h), read off the same echelons.
    """

    shape: GrassmannShape
    _echelons: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def built(self) -> tuple[int, ...]:
        return tuple(sorted(self._echelons))

    def echelon(self, degree: int) -> tuple:
        hit = self._echelons.get(degree)
        if hit is None:
            if not 1 <= degree <= self.shape.dim:
                raise ValueError(f"degree must lie in [1, {self.shape.dim}]")
            hit = _h_echelon(self.shape, degree)
            self._echelons[degree] = hit
        return hit

    def rank(self, degree: int) -> int:
        return len(self.echelon(degree))

    def quotient_dim(self, degree: int) -> int:
        """Dimension of the degree piece of A/(h); zero outside 0..dim.

        Degree 1 needs no echelon form: when enumeration shows its basis is
        exactly [(1,)] = h * 1, the piece is zero.
        """
        if degree == 0:
            return 1
        basis = enumerate_box(self.shape, degree)
        if not basis or (degree == 1 and basis == ((1,),)):
            return 0
        return len(basis) - self.rank(degree)

    def normal_forms(self, degree: int) -> dict:
        """Canonical representative mod h of every degree basis partition.

        Maps each partition to a {partition: coefficient} dict on the
        non-pivot partitions: a non-pivot one maps to itself, the pivot of an
        echelon row to minus the rest of that row over its pivot entry. A
        degree with zero quotient maps everything to {}.
        """
        hit = self._forms.get(degree)
        if hit is None:
            basis = enumerate_box(self.shape, degree)
            if self.quotient_dim(degree) == 0:
                hit = {lam: {} for lam in basis}
            else:
                rows = self.echelon(degree) if degree else ()
                pivots = {piv for piv, _ in rows}
                hit = {lam: {lam: Fraction(1)}
                       for k, lam in enumerate(basis) if k not in pivots}
                for piv, row in rows:
                    hit[basis[piv]] = {
                        basis[k]: Fraction(-a, row[piv])
                        for k, a in enumerate(row) if a and k not in pivots
                    }
            self._forms[degree] = hit
        return hit


def _integer_rref(vectors: list) -> list:
    """Reduced echelon form over the integers; returns (pivot, row) pairs."""
    echelon: list = []
    for vec in vectors:
        row = list(vec)
        for piv, base in echelon:
            if row[piv]:
                f, g = base[piv], row[piv]
                row = [a * f - b * g for a, b in zip(row, base)]
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        g = gcd(*row)
        if row[piv] < 0:
            g = -g
        row = [a // g for a in row]
        # back-substitute to keep stored rows reduced at the new pivot
        updated = []
        for pc, base in echelon:
            if base[piv]:
                f, g2 = row[piv], base[piv]
                base = [a * f - b * g2 for a, b in zip(base, row)]
                norm = gcd(*base)
                if base[pc] < 0:
                    norm = -norm
                base = [a // norm for a in base]
            updated.append((pc, base))
        echelon = updated
        echelon.append((piv, row))
        echelon.sort()
    return echelon


def _h_echelon(shape: GrassmannShape, degree: int) -> tuple:
    """Echelon form of the image of h from degree - 1 into degree."""
    r = ring(shape)
    target = enumerate_box(shape, degree)
    index = {lam: k for k, lam in enumerate(target)}
    columns = []
    for lam in enumerate_box(shape, degree - 1):
        col = [0] * len(target)
        for mu, c in r.power_sum(lam, 1).items():
            col[index[mu]] = c
        columns.append(col)
    return tuple((piv, tuple(row)) for piv, row in _integer_rref(columns))


@lru_cache(maxsize=None)
def build_h_matrices(shape: GrassmannShape) -> HMatrixSet:
    """The per-shape multiplication-by-h data; echelon forms come lazily."""
    return HMatrixSet(shape)


def reduce_mod_h(a: ChowElement, hmats: HMatrixSet) -> tuple[ChowElement, bool]:
    """Canonical representative of a homogeneous class modulo h times the
    previous graded piece, plus a membership flag.

    The representative is the unique element of the class with no pivot
    partition of the echelon basis in its support (`normal_forms`); the
    flag is True exactly when it vanishes.
    """
    _check_shapes(a, hmats)
    if a.is_zero():
        return a, True
    degree = a.homogeneous_degree()
    if degree < 1:
        raise NonHomogeneousError("reduction needs degree at least 1")
    forms = hmats.normal_forms(degree)
    rep = combine(a.shape, (
        (mu, c * f) for lam, c in a.terms.items() for mu, f in forms[lam].items()
    ))
    return rep, rep.is_zero()
