"""Exact-arithmetic toolkit for lengths of matrix-algebra generating sets over F_p."""

from .certificates import (
    BoundEntry,
    BoundLedger,
    RankCertificate,
    bound_ledger,
    find_rank_reduction,
    pappacena_bound,
    shitov_rank1_bound,
    t10_t11_hypothesis,
    t12_hypothesis,
    thm38_hypothesis,
)
from .instances import (
    InstanceSpec,
    JordanSpec,
    jordan_matrix,
    random_generating_set,
    random_invertible,
)
from .length import (
    GeneratingSet,
    LengthReport,
    brute_force_length,
    compute_length,
    is_generating,
)
from .linalg import (
    Matrix,
    Polynomial,
    PrimeField,
    SpanBasis,
    conjugate,
    mat_inverse,
    mat_mul,
    poly_eval,
    rank,
    rref,
)
from .spectral import (
    JordanProfile,
    Spectrum,
    jordan_profile,
    minimal_polynomial,
    split_roots,
    unique_max_block,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEntry",
    "BoundLedger",
    "GeneratingSet",
    "InstanceSpec",
    "JordanProfile",
    "JordanSpec",
    "LengthReport",
    "Matrix",
    "Polynomial",
    "PrimeField",
    "RankCertificate",
    "SpanBasis",
    "Spectrum",
    "bound_ledger",
    "brute_force_length",
    "compute_length",
    "conjugate",
    "find_rank_reduction",
    "is_generating",
    "jordan_matrix",
    "jordan_profile",
    "mat_inverse",
    "mat_mul",
    "minimal_polynomial",
    "pappacena_bound",
    "poly_eval",
    "random_generating_set",
    "random_invertible",
    "rank",
    "rref",
    "shitov_rank1_bound",
    "split_roots",
    "t10_t11_hypothesis",
    "t12_hypothesis",
    "thm38_hypothesis",
    "unique_max_block",
]
