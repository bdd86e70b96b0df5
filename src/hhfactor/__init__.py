"""hhfactor: orthogonal matrices as products of few Householder reflections.

The package covers two problems. First, factoring (or approximating) an
orthogonal matrix as a short product of reflections via a greedy spectral
peel, with a minimality oracle, an a priori residual bound, and a classic
column-wise QR baseline for contrast. Second, exactly recovering a single
reflection dictionary and its binary coefficient matrix from two data
columns, plus the counterexample showing recovery fails for real-valued
coefficients.
"""

from .core import (
    HouseholderProduct,
    Reflector,
    SymmetricSpectrum,
    apply,
    check_orthogonal,
    make_reflector,
    materialize,
    same_reflector,
    symmetric_eigendecomposition,
    symmetric_part,
)
from .decompose import (
    DecompositionTrace,
    TraceRow,
    greedy_decompose,
    min_factors,
    qr_baseline,
    residual_upper_bound,
)
from .dictlearn import (
    AmbiguousRecoveryError,
    CandidateSet,
    InstanceTooLargeError,
    NoCommonCandidateError,
    RecoveryError,
    RecoveryResult,
    SUBSPACE_MARKER,
    enumerate_candidates,
    non_uniqueness_example,
    recover,
    solve_column,
)
from .generators import DISTRIBUTIONS, GeneratorSpec, haar_orthogonal, synthesize

__version__ = "0.1.0"

__all__ = [
    "HouseholderProduct",
    "Reflector",
    "SymmetricSpectrum",
    "apply",
    "check_orthogonal",
    "make_reflector",
    "materialize",
    "same_reflector",
    "symmetric_eigendecomposition",
    "symmetric_part",
    "DecompositionTrace",
    "TraceRow",
    "greedy_decompose",
    "min_factors",
    "qr_baseline",
    "residual_upper_bound",
    "AmbiguousRecoveryError",
    "CandidateSet",
    "InstanceTooLargeError",
    "NoCommonCandidateError",
    "RecoveryError",
    "RecoveryResult",
    "SUBSPACE_MARKER",
    "enumerate_candidates",
    "non_uniqueness_example",
    "recover",
    "solve_column",
    "DISTRIBUTIONS",
    "GeneratorSpec",
    "haar_orthogonal",
    "synthesize",
]
