"""The rational Chow ring of a Grassmannian on its Schubert basis.

Classes are sparse rational combinations of the Schubert classes of the
partitions in the d x (n-d) box, each one integer piece: {partition: int}
over one positive denominator (`piece`). A class is a `ChowElement`, an
immutable named tuple equal to the tuple of its fields; JSON reads its
integer piece, and `ordered()` is the Fraction view for the library and for
text output. Every product of two Schubert classes, Pieri's rule for a
special class included, comes from one Littlewood-Richardson tableau count
truncated to the box. Multiplication by a power sum of the Chern roots of S*
is the Murnaghan-Nakayama rule; `bundles._tangent` builds the action of
every Chern character of the tangent bundle from it.
Reduction modulo the hyperplane class h = sigma_1 is exact linear algebra
over the integers on sparse rows: the columns of h are Murnaghan-Nakayama
steps, eliminated to {position: int} echelon rows that are turned at once
into one table per degree of {partition: int} normal forms, which one
routine applies (`Engine.reduce`). `reduce_mod_h(a)` is the way in for a
class.

Everything kept for a shape lives on its `Engine`: graded bases, kernel
memos, the normal-form tables of A/(h), and the objects that higher layers
keep there (the characters, the Todd and Chern pipelines, the tau stream,
each `bundle` answer as its stdout text). `engine(shape)` serves them from one `lru_cache` of eight
shapes, with `engine.cache_clear()` and `engine.cache_info()`. The cache
bounds the number of shapes, not their bytes (see `engine`). Nothing kept
on an engine refers back to it, so a dropped engine is freed by reference
counting alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import neg

from .partitions import GrassmannShape, Partition, enumerate_box, fits_box, normalize_partition


class ShapeMismatchError(ValueError):
    """Combining classes attached to different Grassmannians."""


class NonHomogeneousError(ValueError):
    """An operation requiring a homogeneous class received a mixed one."""


class ChowElement(namedtuple("ChowElement", "shape terms den", defaults=(1,))):
    """The class sum(c [lam] for lam, c in terms) / den on a fixed shape.

    `terms` maps box partitions to nonzero ints, den > 0 and gcd(den, every
    coefficient) = 1, the form `piece` gives; equal classes have equal
    fields. The dict is never mutated after construction. JSON reads the
    piece directly; `coefficient()` and `ordered()` (the terms in output
    order) are the Fraction view, for the library and for text output.
    An immutable named tuple: it equals the tuple (shape, terms, den), and
    `+`, `-` and `*` are the ring operations, not tuple concatenation.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam: Partition) -> Fraction:
        return Fraction(self.terms.get(normalize_partition(lam), 0), self.den)

    def component(self, degree: int) -> "ChowElement":
        """Graded piece: restriction to keys of the given weight."""
        return piece(self.shape, {lam: c for lam, c in self.terms.items() if sum(lam) == degree},
                     self.den)

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
        """The (partition, Fraction coefficient) terms in `term_order`."""
        den, terms = self.den, self.terms
        return [(lam, Fraction(terms[lam], den)) for lam in sorted(terms, key=term_order)]

    def __add__(self, other: "ChowElement") -> "ChowElement":
        if not isinstance(other, ChowElement):
            return NotImplemented
        _check_shapes(self, other)
        den = lcm(self.den, other.den)
        out = {lam: c * (den // self.den) for lam, c in self.terms.items()}
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c * (den // other.den)
        return piece(self.shape, out, den)

    def __neg__(self) -> "ChowElement":
        return ChowElement(self.shape, {lam: -c for lam, c in self.terms.items()}, self.den)

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


def piece(shape: GrassmannShape, terms: dict, den: int) -> ChowElement:
    """The class of the integer piece terms / den, for den > 0, in the form
    `ChowElement` keeps: zero coefficients dropped and the gcd of den and
    every coefficient divided out."""
    terms = {lam: c for lam, c in terms.items() if c}
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {lam: c // g for lam, c in terms.items()}
    return ChowElement(shape, terms, den // g)


def combine(shape: GrassmannShape, pairs) -> ChowElement:
    """The sum of c * [lam] over (lam, c) pairs of partitions, each of which
    must fit the box, and rational (int or Fraction) coefficients, over the
    lcm of their denominators (`piece`)."""
    pairs = list(pairs)
    den = lcm(*(c.denominator for _, c in pairs))
    out: dict = {}
    for lam, c in pairs:
        lam = _in_box(lam, shape)
        out[lam] = out.get(lam, 0) + c.numerator * (den // c.denominator)
    return piece(shape, out, den)


def _check_shapes(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")


def zero(shape: GrassmannShape) -> ChowElement:
    return ChowElement(shape, {})


def unit(shape: GrassmannShape) -> ChowElement:
    return ChowElement(shape, {(): 1})


def schubert(shape: GrassmannShape, lam, coeff=1) -> ChowElement:
    """The class of a single box partition, optionally scaled; an int
    coefficient builds its integer piece directly, with no Fraction."""
    if type(coeff) is not int:
        return from_terms(shape, {tuple(lam): coeff})
    return piece(shape, {_in_box(lam, shape): coeff}, 1)


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
    return combine(shape, [(lam, Fraction(c)) for lam, c in mapping.items()])


def _in_box(lam, shape: GrassmannShape) -> Partition:
    """The normalized partition, which must fit the box of the shape."""
    lam = normalize_partition(lam)
    if not fits_box(lam, shape):
        raise ValueError(f"partition {lam} does not fit the box of {shape}")
    return lam


def scale(q, a: ChowElement) -> ChowElement:
    q = Fraction(q)
    return piece(a.shape, {lam: q.numerator * c for lam, c in a.terms.items()},
                 q.denominator * a.den)


_NOTHING: dict = {}  # the one empty memo entry; memo values are never mutated


class Engine:
    """Everything kept for one shape, built on first use and dropped together.

    It holds the graded bases (`basis`), the memoised integer kernels: the
    Murnaghan-Nakayama step (`power_sum`) and basis products by the
    Littlewood-Richardson rule (`pair_product`), the quotient A/(h) by
    h = sigma_1 (`quotient_dim`, `normal_forms`), and the per-shape objects
    of the higher layers, each built once under its key (`kept`): the
    characters of S, S*, Q and T, the Chow ring's Todd and Chern pipelines
    (one sequence each, keyed by its weight), the tau stream (the Todd
    sequence on A/(h)), and each `bundle` answer's stdout text. Engines are
    served by the cache `engine`, which bounds their number, not their size.
    No kept object stores its engine (a pipeline looks it up by shape), so
    an engine is never part of a reference cycle.

    Memo values are never mutated once stored; a kept pipeline only adds
    degrees to its own memo.

    For degree i in 1..dim, h sends the degree-(i-1) basis into the
    degree-i one. The degree-i piece of A/(h) is one table, built from the
    reduced echelon form of that image on first use and kept: the normal
    form of every basis partition (`normal_forms(i)`) and the quotient
    dimension (`quotient_dim(i)`). `reduce` applies the normal forms to an
    integer piece.
    """

    def __init__(self, shape: GrassmannShape):
        self.shape = shape
        self._bases: dict = {}
        self._power: dict = {}  # j -> {lam: power_sum(lam, j)}
        self._parts: dict = {}  # one tuple per partition the MN step returns
        self._pair: dict = {}
        self._tables: dict = {}  # degree -> (normal forms, quotient dimension)
        self._kept: dict = {}

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

    def _table(self, degree: int) -> tuple:
        hit = self._tables.get(degree)
        if hit is None:
            if not 1 <= degree <= self.shape.dim:
                raise ValueError(f"degree must lie in [1, {self.shape.dim}]")
            hit = self._tables[degree] = _h_table(self, degree)
        return hit

    def quotient_dim(self, degree: int) -> int:
        """Dimension of the degree piece of A/(h); zero outside 0..dim.

        Degree 1 needs no table: when enumeration shows its basis is
        exactly [(1,)] = h * 1, the piece is zero.
        """
        if degree == 0:
            return 1
        basis = self.basis(degree)
        if not basis or (degree == 1 and basis == ((1,),)):
            return 0
        return self._table(degree)[1]

    def normal_forms(self, degree: int) -> dict:
        """Canonical representative mod h of every basis partition of a
        degree in [1, dim], as an integer row over one positive denominator.

        Maps each partition to a ({partition: int}, den) pair on the
        non-pivot partitions of the echelon form: a non-pivot one maps to
        ({itself: 1}, 1), the pivot of an echelon row to minus the rest of
        that row over its pivot entry. The row is primitive, so that pair is
        in lowest terms. A degree with zero quotient has only rows {pivot: 1}
        and maps everything to ({}, 1).
        """
        return self._table(degree)[0]

    def reduce(self, degree: int, terms: dict, den: int) -> tuple:
        """The integer piece terms / den of `degree` reduced mod h, over den
        times the lcm of the rows' denominators; cancelled terms stay as
        zeros. The one place where `normal_forms` are applied."""
        forms = self.normal_forms(degree)
        m = lcm(*(forms[lam][1] for lam in terms))
        out: dict = {}
        for lam, c in terms.items():
            row, row_den = forms[lam]
            c *= m // row_den
            for mu, f in row.items():
                out[mu] = out.get(mu, 0) + c * f
        return out, den * m


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
            # label 1 has no lattice bound
            for added in _strips(caps, room, prev, 0, m, 0 if k else m, ()):
                key = (tuple(p + a for p, a in zip(shape, added)), added)
                grown[key] = grown.get(key, 0) + c
        states = grown
    out: dict = {}
    for (shape, _), c in states.items():
        nu = tuple(p for p in shape if p)
        out[nu] = out.get(nu, 0) + c
    return out


def _strips(caps: list, room: list, prev: tuple, r: int, left: int, slack: int, added: tuple):
    """Every way to add a horizontal strip of `left` boxes to rows r.. of
    `_lr_terms`' current shape, as the full tuple of boxes added per row:
    at most caps[r] in row r, `room[r]` in rows r.. together, and at most
    `slack` = #(k-1) in rows < r minus #k in rows < r, where k is the label
    being placed and prev[r] the number of k-1 in row r."""
    if not left:
        yield added + (0,) * (len(caps) - r)
        return
    if room[r] < left:
        return
    for a in range(min(caps[r], left, slack), -1, -1):
        yield from _strips(caps, room, prev, r + 1, left - a, slack - a + prev[r], added + (a,))


# Eight shapes: a session over a handful of shapes keeps all of them, and a
# scan over many shapes (`verdict_table`) holds at most eight at a time.
@lru_cache(maxsize=8)
def engine(shape: GrassmannShape) -> Engine:
    """The shape's engine, built on first use; past eight shapes the least
    recently used one is dropped. `engine.cache_clear()` drops them all.

    The bound counts shapes, not bytes. Under tracemalloc (CPython 3.11),
    `engine.cache_clear()` frees 17.3 MB after a cold `roberts 8 16` and
    110.5 MB after a cold `roberts 9 18`, so eight G(9,18) engines would
    hold about 0.9 GB."""
    return Engine(shape)


# The same cache under older names, which benchmarks/child.py reads: their
# `cache_info()` is what its `chow.ring` and `chow.build_h_matrices` hit ratios report.
ring = build_h_matrices = engine


def pieri(a: ChowElement, m: int) -> ChowElement:
    """`multiply(a, sigma_m)`: each term gains every horizontal m-strip that
    stays in the box. a itself for m = 0, where sigma_0 is the unit, and
    zero for m outside [0, n-d]."""
    return multiply(a, sigma(a.shape, m))


def multiply(a: ChowElement, b: ChowElement) -> ChowElement:
    """Product of two classes; pairs of terms above the top degree give nothing."""
    _check_shapes(a, b)
    product = engine(a.shape).pair_product
    out: dict = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            for nu, k in product(lam, mu).items():
                out[nu] = out.get(nu, 0) + ca * cb * k
    return piece(a.shape, out, a.den * b.den)


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


def _h_table(engine: Engine, degree: int) -> tuple:
    """The degree's piece of A/(h) as (`Engine.normal_forms`, quotient
    dimension), read off the reduced echelon form of the image of h from
    degree - 1 into degree, built on sparse {position: int} rows that are
    dropped once read.

    Each column `power_sum(lam, 1)` is eliminated at its leftmost entry
    against the stored row with that pivot until that entry is a new pivot,
    then stored primitive. One back-substitution, from the largest pivot
    down, then clears every other pivot position.
    """
    basis = engine.basis(degree)
    index = {lam: k for k, lam in enumerate(basis)}
    rows: dict = {}  # pivot -> row
    # The reduced echelon form is fixed by the target order and the pivot
    # rule, so the column order moves only the cost. Columns with the
    # smallest first part come first: in basis order the rows fill in and
    # their integers swell (to thousands of bits on G(8,16), for normal forms
    # of under 40), and elimination does about twice the work on G(7,14).
    for lam in reversed(engine.basis(degree - 1)):
        row = {index[mu]: c for mu, c in engine.power_sum(lam, 1).items()}
        while row:
            piv = min(row)
            if piv not in rows:
                rows[piv] = _primitive(row, piv)
                break
            row = _eliminate(row, rows[piv], piv)
    # larger pivots' rows are reduced: eliminating one adds no pivot position
    for piv in sorted(rows, reverse=True):
        row = rows[piv]
        for q in [q for q in row if q != piv and q in rows]:
            row = _eliminate(row, rows[q], q)
        rows[piv] = _primitive(row, piv)
    forms = {lam: ({lam: 1}, 1) for lam in basis}
    for piv, row in rows.items():
        forms[basis[piv]] = ({basis[k]: -a for k, a in row.items() if k != piv}, row[piv])
    return forms, len(basis) - len(rows)


def _eliminate(row: dict, base: dict, q: int) -> dict:
    """f row - g base for the coprime integers f, g that make it zero at
    position q."""
    f, g = base[q], row[q]
    h = gcd(f, g)
    f, g = f // h, g // h
    out = {k: f * a for k, a in row.items()}
    for k, b in base.items():
        out[k] = out.get(k, 0) - g * b
    return {k: a for k, a in out.items() if a}


def _primitive(row: dict, piv: int) -> dict:
    """row over the gcd of its entries, positive at piv."""
    g = gcd(*row.values())
    if row[piv] < 0:
        g = -g
    return {k: a // g for k, a in row.items()}


def reduce_mod_h(a: ChowElement) -> tuple[ChowElement, bool]:
    """Canonical representative of a homogeneous class modulo h times the
    previous graded piece, plus a membership flag.

    The representative is the unique element of the class with no pivot
    partition of the echelon basis in its support (`Engine.normal_forms` of
    the class's shape); the flag is True exactly when it vanishes. A degree
    with zero quotient gives zero at once. Otherwise the class's integer
    piece is reduced (`Engine.reduce`).
    """
    if a.is_zero():
        return a, True
    degree = a.homogeneous_degree()
    if degree < 1:
        raise NonHomogeneousError("reduction needs degree at least 1")
    eng = engine(a.shape)
    if eng.quotient_dim(degree) == 0:
        return zero(a.shape), True
    rep = piece(a.shape, *eng.reduce(degree, a.terms, a.den))
    return rep, rep.is_zero()
