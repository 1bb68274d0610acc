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

Everything kept for a shape lives on its `Engine`: graded bases, kernel
memos, h-echelons, and the objects that higher layers keep there (the
tangent pipelines, the tau stream, rendered command-line rows). Engines are
served by one registry, `ENGINES`, which holds at most a fixed number of
shapes and drops them all on `ENGINES.clear()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class Engine:
    """Everything kept for one shape, built on first use and dropped together.

    It holds the graded bases (`basis`), the memoised integer kernels: the
    Murnaghan-Nakayama step (`power_sum`) and basis products by the
    Littlewood-Richardson rule (`pair_product`), the multiplication-by-h
    data (`hmats`), and the per-shape objects of the higher layers, each
    built once under its key (`kept`): the tangent pipelines and the
    rendered rows of the command line. Engines are served by the bounded
    registry `ENGINES`.

    Memo values are never mutated once stored; a kept pipeline only adds
    degrees to its own memos.
    """

    def __init__(self, shape: GrassmannShape):
        self.shape = shape
        self._bases: dict = {}
        self._power: dict = {}  # j -> {lam: power_sum(lam, j)}
        self._parts: dict = {}  # one tuple per partition the MN step returns
        self._pair: dict = {}
        self._kept: dict = {}
        self.hmats = HMatrixSet(self)

    def basis(self, degree: int) -> tuple:
        """`enumerate_box` of the shape at `degree`, enumerated once."""
        hit = self._bases.get(degree)
        if hit is None:
            hit = self._bases[degree] = enumerate_box(self.shape, degree)
        return hit

    def kept(self, key, build):
        """The object that `build()` makes for this shape under `key`, built
        on the first call and returned by every later one."""
        hit = self._kept.get(key)
        if hit is None:
            hit = self._kept[key] = build()
        return hit

    def power_sum(self, lam: Partition, j: int) -> dict:
        """Signed box partitions of [lam] * p_j for j >= 1, by the
        Murnaghan-Nakayama rule.

        [lam] is the Schur polynomial s_lam in the d Chern roots of S*, and
        p_j = j! ch_j(S*) their power sum. On the beta-numbers
        lam_i + d - i, adding j to the one of row i gives mu with sign (-1)
        to the number of beta-numbers jumped; a collision gives nothing, and
        so does mu_1 > n - d. When the moved one lands at row k <= i, mu is
        lam with row k = lam_i + j - (i - k), rows k+1..i = lam_(r-1) + 1
        and every other row kept. For j = 1 every sign is +1 and the result
        is multiplication by h = sigma_1.
        """
        memo = self._power.get(j)
        if memo is None:
            memo = self._power[j] = {}
        hit = memo.get(lam)
        if hit is not None:
            return hit
        d, cols, parts = self.shape.d, self.shape.cols, self._parts
        pad = lam + (0,) * (d - len(lam))
        # lam_r - r, the beta-numbers less d - 1: strictly decreasing
        beta = [p - r for r, p in enumerate(pad)]
        hit = {}
        for i in range(d):
            moved = beta[i] + j
            if moved > cols:
                continue
            k = i  # moved lands at row k, jumping the i - k beta-numbers before i
            while k and beta[k - 1] < moved:
                k -= 1
            if k and beta[k - 1] == moved:
                continue
            mu = pad[:k] + (moved + k,) + tuple([p + 1 for p in pad[k:i]]) + lam[i + 1:]
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


class EngineRegistry:
    """The per-shape engines of one process, at most `bound` shapes: when a
    new shape would pass the bound, the least recently used engine is
    dropped. `clear()` drops them all."""

    def __init__(self, bound: int):
        self.bound = bound
        self._engines: dict = {}  # in order of use, the most recent last

    def __len__(self) -> int:
        return len(self._engines)

    def get(self, shape: GrassmannShape) -> Engine:
        engines = self._engines
        hit = engines.pop(shape, None)
        if hit is None:
            if len(engines) >= self.bound:
                del engines[next(iter(engines))]
            hit = Engine(shape)
        engines[shape] = hit
        return hit

    def clear(self) -> None:
        """Drops every engine. Their pipelines hold reference cycles, so
        the memory comes back at the next garbage collection."""
        self._engines.clear()


# Eight shapes: a session over a handful of shapes keeps all of them, and a
# scan over many shapes (`verdict_table`) holds at most eight at a time.
ENGINES = EngineRegistry(8)


def engine(shape: GrassmannShape) -> Engine:
    """The shape's engine from `ENGINES`."""
    return ENGINES.get(shape)


ring = engine  # the same lookup, under the name the tests and benchmarks/child.py read


def pieri(a: ChowElement, m: int) -> ChowElement:
    """`multiply(a, sigma_m)`: each term gains every horizontal m-strip that
    stays in the box. a itself for m = 0, where sigma_0 is the unit, and
    zero for m outside [0, n-d]."""
    return multiply(a, sigma(a.shape, m))


def multiply(a: ChowElement, b: ChowElement) -> ChowElement:
    """Product of two classes; pairs of terms above the top degree are skipped."""
    _check_shapes(a, b)
    shape = a.shape
    product = engine(shape).pair_product
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


class HMatrixSet:
    """Multiplication by h = sigma_1 on the graded pieces of one engine's
    shape, with echelon data built one degree at a time on first use.

    For degree i in 1..dim, the map sends the degree-(i-1) basis into the
    degree-i one; each source partition gives a 0/1 column. `echelon(i)` is
    a reduced integer row basis of the column space, stored as (pivot
    position, vector) pairs with a positive pivot entry, and `rank(i)` is
    its length. A degree's echelon form is computed when first asked for
    and kept; `built` lists the degrees computed so far. `quotient_dim(i)`
    and `normal_forms(i)` give the degree-i piece of the quotient A/(h),
    read off the same echelons.
    """

    def __init__(self, engine: Engine):
        self.shape = engine.shape
        self._engine = engine
        self._echelons: dict = {}
        self._forms: dict = {}

    @property
    def built(self) -> tuple[int, ...]:
        return tuple(sorted(self._echelons))

    def echelon(self, degree: int) -> tuple:
        hit = self._echelons.get(degree)
        if hit is None:
            if not 1 <= degree <= self.shape.dim:
                raise ValueError(f"degree must lie in [1, {self.shape.dim}]")
            hit = _h_echelon(self._engine, degree)
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
        basis = self._engine.basis(degree)
        if not basis or (degree == 1 and basis == ((1,),)):
            return 0
        return len(basis) - self.rank(degree)

    def normal_forms(self, degree: int) -> dict:
        """Canonical representative mod h of every degree basis partition,
        as an integer row over one positive denominator.

        Maps each partition to a ({partition: int}, den) pair on the
        non-pivot partitions: a non-pivot one maps to ({itself: 1}, 1), the
        pivot of an echelon row to minus the rest of that row over its
        pivot entry. The row is primitive, so that pair is in lowest terms.
        A degree with zero quotient maps everything to ({}, 1).
        """
        hit = self._forms.get(degree)
        if hit is None:
            basis = self._engine.basis(degree)
            if self.quotient_dim(degree) == 0:
                hit = {lam: ({}, 1) for lam in basis}
            else:
                rows = self.echelon(degree) if degree else ()
                pivots = {piv for piv, _ in rows}
                hit = {lam: ({lam: 1}, 1) for k, lam in enumerate(basis) if k not in pivots}
                for piv, row in rows:
                    hit[basis[piv]] = (
                        {basis[k]: -a for k, a in enumerate(row) if a and k not in pivots},
                        row[piv],
                    )
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


def _h_echelon(engine: Engine, degree: int) -> tuple:
    """Echelon form of the image of h from degree - 1 into degree."""
    target = engine.basis(degree)
    index = {lam: k for k, lam in enumerate(target)}
    columns = []
    for lam in engine.basis(degree - 1):
        col = [0] * len(target)
        for mu, c in engine.power_sum(lam, 1).items():
            col[index[mu]] = c
        columns.append(col)
    return tuple((piv, tuple(row)) for piv, row in _integer_rref(columns))


def build_h_matrices(shape: GrassmannShape) -> HMatrixSet:
    """The shape's multiplication-by-h data, kept on its engine; echelon
    forms come lazily."""
    return engine(shape).hmats


def reduce_mod_h(a: ChowElement, hmats: HMatrixSet) -> tuple[ChowElement, bool]:
    """Canonical representative of a homogeneous class modulo h times the
    previous graded piece, plus a membership flag.

    The representative is the unique element of the class with no pivot
    partition of the echelon basis in its support (`normal_forms`); the
    flag is True exactly when it vanishes. Each term is reduced against
    its integer row on its own, c / den times the row's integers.
    """
    _check_shapes(a, hmats)
    if a.is_zero():
        return a, True
    degree = a.homogeneous_degree()
    if degree < 1:
        raise NonHomogeneousError("reduction needs degree at least 1")
    forms = hmats.normal_forms(degree)
    rep = combine(a.shape, (
        (mu, q * f)
        for lam, c in a.terms.items()
        for row, den in (forms[lam],)
        for q in (c if den == 1 else c / den,)
        for mu, f in row.items()
    ))
    return rep, rep.is_zero()
