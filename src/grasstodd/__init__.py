"""Exact Schubert calculus on Grassmannians and Roberts-ring verdicts.

The Chow ring of G_d(n) on its Schubert basis, Chern/Todd classes of the
tautological and tangent bundles, reduction modulo the hyperplane class,
the Roberts-ring classification of the cones over Pluecker embeddings, and
the matching classification of Pfaffian rings. All arithmetic is exact.
"""

from .bundles import (
    BundleClass,
    ch_Q,
    ch_S,
    ch_S_dual,
    ch_tangent,
    chern_Q,
    chern_tangent,
    todd_tangent,
)
from .chow import (
    ChowElement,
    NonHomogeneousError,
    ShapeMismatchError,
    from_terms,
    lr_coefficient,
    multiply,
    pieri,
    reduce_mod_h,
    scale,
    schubert,
    sigma,
    unit,
    zero,
)
from .cone import (
    ConeChowDims,
    RobertsReport,
    TableEntry,
    TauRecord,
    TauStream,
    cone_chow_dims,
    roberts_verdict,
    tau_components,
    verdict_table,
)
from .partitions import (
    GrassmannShape,
    Partition,
    conjugate,
    enumerate_box,
    fits_box,
    normalize_partition,
    plucker_relation_count,
    ssyt_count,
)
from .pfaffian import (
    AntisymmetricMatrix,
    PfaffianClassification,
    classify_B,
    cross_check_B2,
    determinant,
    pfaffian,
)
from .series import bernoulli, todd_log_coeff

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricMatrix",
    "BundleClass",
    "ChowElement",
    "ConeChowDims",
    "GrassmannShape",
    "NonHomogeneousError",
    "Partition",
    "PfaffianClassification",
    "RobertsReport",
    "ShapeMismatchError",
    "TableEntry",
    "TauRecord",
    "TauStream",
    "bernoulli",
    "ch_Q",
    "ch_S",
    "ch_S_dual",
    "ch_tangent",
    "chern_Q",
    "chern_tangent",
    "classify_B",
    "cone_chow_dims",
    "conjugate",
    "cross_check_B2",
    "determinant",
    "enumerate_box",
    "fits_box",
    "from_terms",
    "lr_coefficient",
    "multiply",
    "normalize_partition",
    "pfaffian",
    "pieri",
    "plucker_relation_count",
    "reduce_mod_h",
    "roberts_verdict",
    "scale",
    "schubert",
    "sigma",
    "ssyt_count",
    "tau_components",
    "todd_log_coeff",
    "todd_tangent",
    "unit",
    "verdict_table",
    "zero",
]
