"""Dense complex linear algebra kernel.

Everything downstream (Jordan structure, symmetry synthesis, certificates)
is built on the primitives here: input validation, one eigensolve for
values and unit vectors, inversion checked against a condition number from
one SVD, and the Frobenius norm.  All operators are dense complex numpy
arrays; the one tolerance, the singularity cutoff, is relative to the
largest singular value.  The eigensolve, the inversion and the norm also
take an (m, n, n) stack and treat its rows as separate matrices, bit for
bit equal to one call per row.  A row with no imaginary part is
eigensolved in real arithmetic, so that real input keeps its exact
conjugate symmetry.
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


def as_matrix(M) -> np.ndarray:
    """Validate and return ``M`` as a square complex ndarray with finite
    entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {A.shape}")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return A


def as_stack(M) -> np.ndarray:
    """Validate and return ``M`` as an (m, n, n) complex ndarray with finite
    entries; an error names the first offending row."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected an (m, n, n) stack of square matrices, got shape {A.shape}")
    if A.size:
        bad = ~np.isfinite(A).reshape(A.shape[0], -1).all(axis=1)
        if bad.any():
            raise ValueError(
                f"row {int(np.argmax(bad))}: matrix entries must be finite (no NaN or Inf)"
            )
    return A


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each row of a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def fro(M) -> float:
    """Frobenius norm, the norm every relative tolerance refers to."""
    return float(np.linalg.norm(M, "fro"))


def fro_rows(M) -> np.ndarray:
    """Frobenius norm of each row of a stack, bit for bit :func:`fro` of
    that row: matmul of a vector with a vector is the same strided BLAS dot
    product, which overflows, and warns, alike."""
    x = M.reshape(len(M), 1, -1)
    re, im = x.real, x.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).ravel()


def rows_of(a: np.ndarray, rows) -> np.ndarray:
    """``a[rows]`` for increasing row indices ``rows``, a view when they
    take every row."""
    return a if len(rows) == len(a) else a[rows]


def eigensystem(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvector columns from one eigensolve.

    Column ``k`` of the vector array belongs to eigenvalue ``k``.  For
    defective input the columns may (nearly) repeat; resolving that into
    Jordan chains is the job of :mod:`pseudospec.blockdiag`.  Backed by the
    LAPACK Hessenberg/QR triangularization, which stays stable on defective
    matrices.  A real matrix takes the real triangularization, whose
    complex eigenvalues and eigenvectors come in exactly conjugate pairs.
    """
    return tuple(a[0] for a in eigensystem_stack(as_matrix(M)[None])[:2])


def eigensystem_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eigensystem` of each row of a validated (m, n, n) stack: one
    real eigensolve for the rows whose imaginary part is all zero, one
    complex eigensolve for the others, and no scatter when every row is of
    one kind; a failure on any row fails the call.  Also returns which
    rows are real, as a boolean mask."""
    real = ~A.imag.reshape(len(A), -1).any(axis=1)
    all_real = bool(real.all())
    try:
        if all_real or not real.any():
            values, vectors = (a.astype(complex, copy=False)
                               for a in np.linalg.eig(A.real if all_real else A))
        else:
            values, vectors = np.empty(A.shape[:2], dtype=complex), np.empty(A.shape, dtype=complex)
            for rows, part in ((np.flatnonzero(real), np.real), (np.flatnonzero(~real), np.asarray)):
                values[rows], vectors[rows] = np.linalg.eig(part(A[rows]))
    except np.linalg.LinAlgError as exc:  # non-convergence is reported, never silent
        raise EigensolveError(f"eigenvalue iteration did not converge: {exc}") from exc
    norms = np.linalg.norm(vectors, axis=-2)
    if not norms.all():
        raise EigensolveError("eigensolver returned a zero vector")
    return values, vectors / norms[..., None, :], real


def inverse_and_cond_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverses and 2-norm condition numbers of the rows of a validated
    (m, n, n) stack, n >= 1, from one stacked SVD and one stacked inversion.

    Returns the inverses of the rows that are not singular to working
    tolerance, those rows as a boolean mask, and every row's condition
    estimate.
    """
    s = np.linalg.svd(A, compute_uv=False)
    smax, smin = s[:, 0], s[:, -1]
    regular = (smin > SINGULARITY_CUTOFF * smax) & (smax != 0.0)
    est = np.divide(smax, smin, out=np.zeros(len(s)) + np.inf, where=smin != 0.0)
    return np.linalg.inv(A if regular.all() else A[regular]), regular, est


def inverse(M) -> np.ndarray:
    """Matrix inverse with an explicit singularity check: raises
    :class:`SingularMatrixError` (carrying the condition estimate) when the
    smallest singular value is below ``SINGULARITY_CUTOFF`` times the
    largest."""
    A = as_matrix(M)
    if A.size == 0:
        return A.copy()
    inv, regular, est = inverse_and_cond_stack(A[None])
    if not regular[0]:
        raise SingularMatrixError(
            f"matrix is singular to working tolerance (cond >= {est[0]:.3e})", float(est[0])
        )
    return inv[0]
