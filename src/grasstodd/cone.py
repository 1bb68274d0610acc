"""Roberts-ring verdicts for the affine cone over a Grassmannian.

The cone's rational Chow groups are cokernels of multiplication by the
hyperplane class h on the Chow ring of the base, with A_i matching the
degree-(t+1-i) graded piece modulo h. The Riemann-Roch image of the cone's
fundamental class is realized by the Todd class of the tangent bundle, so
the cone is a Roberts ring exactly when every Todd component of degree
1..t reduces to zero mod h.

Reduction mod h is a ring homomorphism, so the reduced components are
computed in the quotient A/(h) itself, one degree at a time: the tau stream
(`TauStream`) is the Todd sequence of the tangent-bundle pipeline on A/(h),
and holds nothing else. Each shape has one stream, kept on its engine
(`tau_stream`): report mode and verdict mode read it, so a degree reduced
for one is reduced for both.
`cone_chow_dims` reads the quotient dimensions from the same engine. The
records returned here (`TauRecord`, `RobertsReport`, `ConeChowDims`,
`TableEntry`) are immutable named tuples, each equal to the tuple of its
fields.
"""

from __future__ import annotations

from collections import namedtuple

from .bundles import TangentPipeline, _todd_weight
from .chow import engine
from .partitions import GrassmannShape


class TauRecord(namedtuple("TauRecord", "degree tau_index representative is_zero")):
    """One reduced Todd component.

    `degree` is the cohomological degree j on the Grassmannian; `tau_index`
    is the dimension label t+1-j of the corresponding cone Chow group. Both
    are carried to keep the two indexing conventions straight. The
    representative is a `ChowElement`; `is_zero` is a bool.
    """

    __slots__ = ()


class RobertsReport(namedtuple("RobertsReport", "shape cone_dim records verdict witness")):
    """The verdict for one shape: the `TauRecord`s read, in degree order,
    whether the cone is a Roberts ring, and the least degree with a nonzero
    component (None when there is none)."""

    __slots__ = ()

    def record(self, degree: int) -> TauRecord:
        for r in self.records:
            if r.degree == degree:
                return r
        raise KeyError(f"no record for degree {degree}")


class TauStream(TangentPipeline):
    """The reduced Todd components of one shape: the Todd sequence of the
    tangent pipeline on A/(h), and nothing else.

    Reduction mod h is a ring homomorphism, so applying j! ch_j(T) to a
    canonical representative and reducing the result gives the canonical
    representative of the product, and tau_j is the stream's degree-j
    piece. Degrees are built only when a record needs them. A degree with
    zero quotient dimension (a rank certificate, or enumeration for degree
    1) is zero, with no product and no Todd work. The hooks look the engine
    up by shape: a stored one would make a cycle.
    """

    def __init__(self, shape: GrassmannShape):
        super().__init__(shape, _todd_weight)

    def vanishes(self, k: int) -> bool:
        return engine(self.shape).quotient_dim(k) == 0

    def reduce(self, k: int, terms: dict, den: int) -> tuple:
        return engine(self.shape).reduce(k, terms, den)

    def record(self, j: int) -> TauRecord:
        rep = self(j)
        return TauRecord(j, self.shape.dim + 1 - j, rep, rep.is_zero())


class ConeChowDims(namedtuple("ConeChowDims", "shape dims")):
    """dims[i] = rational dimension of A_i for the cone, i = 0..t+1."""

    __slots__ = ()


def tau_stream(shape: GrassmannShape) -> TauStream:
    """The shape's one tau stream, kept on its engine: report mode and
    verdict mode both read it."""
    return engine(shape).kept("tau stream", lambda: TauStream(shape))


def cone_chow_dims(shape: GrassmannShape) -> ConeChowDims:
    """Chow-group dimensions of the cone: cokernels of multiplication by h.

    A_i is the degree-(t+1-i) piece of A/(h), the quotient dimension of the
    shape's engine (`chow.Engine.quotient_dim`); that is 0 above t, so
    A_0 = 0, and 1 in degree 0, so A_{t+1} is one-dimensional.
    """
    t, eng = shape.dim, engine(shape)
    return ConeChowDims(shape, tuple(eng.quotient_dim(t + 1 - i) for i in range(t + 2)))


def tau_components(shape: GrassmannShape) -> RobertsReport:
    """Every reduced Todd component of degree 1..t, no short-circuits:
    `roberts_verdict` in report mode.

    Kept because `benchmarks/child.py` reads it with `getattr` and no
    default, so every traced benchmark run needs it.
    """
    return roberts_verdict(shape)


def roberts_verdict(shape: GrassmannShape, mode: str = "report") -> RobertsReport:
    """Decide whether the cone is a Roberts ring.

    In "report" mode every degree is computed. In "verdict" mode even
    degrees are scanned first in increasing order, stopping at the first
    nonzero component; odd degrees only need checking when all even ones
    vanish, and then every degree is reported. Both read the shape's one
    `TauStream` (`tau_stream`), which builds each degree once.
    """
    if mode not in ("report", "verdict"):
        raise ValueError(f"unknown mode {mode!r}")
    t = shape.dim
    stream = tau_stream(shape)
    if mode == "verdict":
        records = []
        for j in range(2, t + 1, 2):
            records.append(stream.record(j))
            if not records[-1].is_zero:
                return RobertsReport(shape, t + 1, tuple(records), False, j)
    records = tuple(stream.record(j) for j in range(1, t + 1))
    witness = min((r.degree for r in records if not r.is_zero), default=None)
    return RobertsReport(shape, t + 1, records, witness is None, witness)


class TableEntry(namedtuple("TableEntry", "d n roberts witness")):
    """One row of `verdict_table`: the shape, its verdict and the witness
    degree (None for a Roberts ring)."""

    __slots__ = ()


def verdict_table(max_n: int) -> tuple:
    """Verdicts for every shape with 2 <= n <= max_n, in (n, d) order."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    entries = []
    for n in range(2, max_n + 1):
        for d in range(1, n):
            report = roberts_verdict(GrassmannShape(d, n), mode="verdict")
            entries.append(TableEntry(d, n, report.verdict, report.witness))
    return tuple(entries)
