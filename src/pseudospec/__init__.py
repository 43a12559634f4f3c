"""Block-diagonalization, pseudo-Hermiticity certificates, and antilinear
symmetry synthesis for finite-dimensional complex operators."""

from .antilinear import (
    AntilinearOp,
    adjoint,
    apply,
    compose_antilinear_antilinear,
    compose_antilinear_linear,
    compose_linear_antilinear,
    conjugation,
    inverse_antilinear,
    is_antiunitary,
    is_hermitian,
    is_involution,
)
from .blockdiag import (
    BlockDiagonalization,
    EigenCluster,
    IllConditionedBasisError,
    JordanStructureError,
    SpectralTable,
    biorthonormal_complement,
    block_diagonalize,
    cluster_eigenvalues,
    jordan_chains,
)
from .certify import (
    Certificate,
    INCONCLUSIVE,
    NOT_PSEUDO_HERMITIAN,
    PSEUDO_HERMITIAN,
    ToleranceProfile,
    decide,
    decide_many,
    residual_commute_antilinear,
    residual_hermitian_metric,
    residual_intertwine_antilinear,
    residual_intertwine_linear,
    residual_involution,
)
from .linalg import EigensolveError, SingularMatrixError, inverse
from .symmetry import (
    PairingError,
    SpectralLabeling,
    SymmetryOperators,
    build_tau,
    check_pairing,
    classify_spectrum,
    synthesize_operators,
)

__version__ = "0.1.0"
