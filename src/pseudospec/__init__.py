"""Block-diagonalization, pseudo-Hermiticity certificates, and antilinear
symmetry synthesis for finite-dimensional complex operators."""

from .antilinear import (
    AntilinearOp,
    adjoint,
    apply,
    compose_antilinear_antilinear,
    conjugation,
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
    residual_intertwine_antilinear,
)
from .linalg import EigensolveError
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
