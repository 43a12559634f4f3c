"""Dense complex linear algebra kernel.

Everything downstream (Jordan structure, symmetry synthesis, certificates)
is built on the primitives here: input validation, one eigensolve for
values and unit vectors, inversion checked against a condition number from
one SVD, and the Frobenius norm.  All operators are dense complex numpy
arrays; the one tolerance, the singularity cutoff, is relative to the
largest singular value.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: smallest-to-largest singular value ratio below which a matrix is treated
#: as singular by :func:`inverse`
SINGULARITY_CUTOFF = 1e3 * EPS


class EigensolveError(RuntimeError):
    """The QR iteration failed to converge."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Input is singular to working tolerance.  Carries a condition estimate."""

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


def as_matrix(M, square: bool = False) -> np.ndarray:
    """Validate and return ``M`` as a 2-d complex ndarray with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {A.shape}")
    if square and A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return A


def fro(M) -> float:
    """Frobenius norm, the norm every relative tolerance refers to."""
    return float(np.linalg.norm(M, "fro"))


def eigensystem(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvector columns from one eigensolve.

    Column ``k`` of the vector array belongs to eigenvalue ``k``.  For
    defective input the columns may (nearly) repeat; resolving that into
    Jordan chains is the job of :mod:`pseudospec.blockdiag`.  Backed by the
    LAPACK Hessenberg/QR triangularization, which stays stable on defective
    matrices.
    """
    A = as_matrix(M, square=True)
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # non-convergence is reported, never silent
        raise EigensolveError(f"eigenvalue iteration did not converge: {exc}") from exc
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise EigensolveError("eigensolver returned a zero vector")
    return values, vectors / norms


def inverse_and_cond(M) -> tuple[np.ndarray, float]:
    """Matrix inverse and 2-norm condition number from one SVD.

    Raises :class:`SingularMatrixError` (carrying the condition estimate)
    when the smallest singular value is below ``SINGULARITY_CUTOFF`` times
    the largest.
    """
    A = as_matrix(M, square=True)
    if A.size == 0:
        return A.copy(), float("inf")
    s = np.linalg.svd(A, compute_uv=False)
    est = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
    if s[-1] <= SINGULARITY_CUTOFF * s[0] or s[0] == 0.0:
        raise SingularMatrixError(
            f"matrix is singular to working tolerance (cond >= {est:.3e})", est
        )
    return np.linalg.inv(A), est


def inverse(M) -> np.ndarray:
    """Matrix inverse with an explicit singularity check; see
    :func:`inverse_and_cond`."""
    return inverse_and_cond(M)[0]
