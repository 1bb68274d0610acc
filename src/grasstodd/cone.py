"""Roberts-ring verdicts for the affine cone over a Grassmannian.

The cone's rational Chow groups are cokernels of multiplication by the
hyperplane class h on the Chow ring of the base, with A_i matching the
degree-(t+1-i) graded piece modulo h. The Riemann-Roch image of the cone's
fundamental class is realized by the Todd class of the tangent bundle, so
the cone is a Roberts ring exactly when every Todd component of degree
1..t reduces to zero mod h.

Reduction mod h is a ring homomorphism, so the reduced components are
computed in the quotient A/(h) itself, one degree at a time, by the same
tangent-bundle pipeline that builds the Chow-ring classes (`TauStream`).
Each shape has one stream, kept on its engine (`tau_stream`): report mode,
verdict mode, `cone_chow_dims` and `bundle --mod-h` all read it, so a
degree reduced for one of them is reduced for all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bundles import TangentPipeline
from .chow import build_h_matrices, engine
from .partitions import GrassmannShape


@dataclass(frozen=True)
class TauRecord:
    """One reduced Todd component.

    `degree` is the cohomological degree j on the Grassmannian; `tau_index`
    is the dimension label t+1-j of the corresponding cone Chow group. Both
    are carried to keep the two indexing conventions straight.
    """

    degree: int
    tau_index: int
    representative: ChowElement
    is_zero: bool


@dataclass(frozen=True)
class RobertsReport:
    shape: GrassmannShape
    cone_dim: int
    records: tuple
    verdict: bool
    witness: int | None

    def record(self, degree: int) -> TauRecord:
        for r in self.records:
            if r.degree == degree:
                return r
        raise KeyError(f"no record for degree {degree}")


class TauStream(TangentPipeline):
    """The reduced Todd components of one shape: the tangent pipeline with
    every class reduced mod h.

    Reduction mod h is a ring homomorphism, so applying j! ch_j(T) to a
    canonical representative and reducing the result gives the canonical
    representative of the product, and tau_j is the pipeline's degree-j
    Todd piece. Degrees are built only when a record needs them. A degree
    with zero quotient dimension (a rank certificate, or enumeration for
    degree 1) is zero in every sequence, with no product and no Todd work.
    """

    def __init__(self, shape: GrassmannShape):
        self.hmats = hmats = build_h_matrices(shape)
        super().__init__(shape, lambda k: hmats.quotient_dim(k) == 0, self._mod_h)

    def _mod_h(self, degree: int, terms: dict, den: int) -> tuple:
        """The integer piece terms / den of `degree` reduced mod h, against
        the integer rows of `normal_forms` over their common denominator."""
        forms = self.hmats.normal_forms(degree)
        m = lcm(*(forms[lam][1] for lam in terms))
        out: dict = {}
        for lam, c in terms.items():
            row, row_den = forms[lam]
            c *= m // row_den
            for mu, f in row.items():
                out[mu] = out.get(mu, 0) + c * f
        return out, den * m

    def record(self, j: int) -> TauRecord:
        rep = self.todd(j)
        return TauRecord(j, self.shape.dim + 1 - j, rep, rep.is_zero())


@dataclass(frozen=True)
class ConeChowDims:
    """dims[i] = rational dimension of A_i for the cone, i = 0..t+1."""

    shape: GrassmannShape
    dims: tuple


def tau_stream(shape: GrassmannShape) -> TauStream:
    """The shape's one tau stream, kept on its engine: report mode, verdict
    mode and `bundle --mod-h` all read it."""
    return engine(shape).kept("tau stream", lambda: TauStream(shape))


def cone_chow_dims(shape: GrassmannShape) -> ConeChowDims:
    """Chow-group dimensions of the cone: cokernels of multiplication by h.

    A_i is the degree-(t+1-i) piece of A/(h) for 1 <= i <= t; A_0 = 0 and
    A_{t+1} is one-dimensional. They are the quotient dimensions of the
    shape's tau stream.
    """
    t = shape.dim
    hm = tau_stream(shape).hmats
    dims = [0] * (t + 2)
    dims[t + 1] = 1
    for i in range(1, t + 1):
        dims[i] = hm.quotient_dim(t + 1 - i)
    return ConeChowDims(shape, tuple(dims))


def _full_report(stream: TauStream) -> RobertsReport:
    t = stream.shape.dim
    records = tuple(stream.record(j) for j in range(1, t + 1))
    witness = min((r.degree for r in records if not r.is_zero), default=None)
    return RobertsReport(stream.shape, t + 1, records, witness is None, witness)


def tau_components(shape: GrassmannShape) -> RobertsReport:
    """Every reduced Todd component of degree 1..t, no short-circuits."""
    return _full_report(tau_stream(shape))


def roberts_verdict(shape: GrassmannShape, mode: str = "report") -> RobertsReport:
    """Decide whether the cone is a Roberts ring.

    In "report" mode every degree is computed. In "verdict" mode even
    degrees are scanned first in increasing order, stopping at the first
    nonzero component; odd degrees only need checking when all even ones
    vanish. Both read the shape's one `TauStream` (`tau_stream`), which
    builds each degree once.
    """
    if mode not in ("report", "verdict"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "report":
        return tau_components(shape)
    t = shape.dim
    stream = tau_stream(shape)
    records = []
    for j in range(2, t + 1, 2):
        rec = stream.record(j)
        records.append(rec)
        if not rec.is_zero:
            return RobertsReport(shape, t + 1, tuple(records), False, j)
    return _full_report(stream)


@dataclass(frozen=True)
class TableEntry:
    d: int
    n: int
    roberts: bool
    witness: int | None


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
