"""Dense complex linear algebra kernel.

Everything downstream (Jordan structure, symmetry synthesis, certificates)
is built on the primitives here: input validation, one eigensolve for
values and unit vectors, and the Frobenius norm.  All operators are dense
complex numpy arrays.  The eigensolve and the norm also take an (m, n, n)
stack and treat its rows as separate matrices, bit for bit equal to one
call per row.  A row with no imaginary part is eigensolved in real
arithmetic, so that real input keeps its exact conjugate symmetry.
Which Jordan bases are inverted, and how, is decided in one place,
:mod:`pseudospec.blockdiag`.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


class EigensolveError(RuntimeError):
    """The QR iteration failed to converge."""


def _check_tol(name: str, value: float) -> None:
    """Refuse a tolerance that is negative, infinite, NaN or a bool, naming
    it."""
    # type(), not isinstance(): a bool is an int, and would pass as 0 or 1
    if type(value) in (bool, np.bool_) or not 0.0 <= value < np.inf:  # also refuses NaN
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


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
    real = ~A.imag.any(axis=(1, 2))
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
    # np.linalg.norm(vectors, axis=-2) without its wrapper
    norms = np.sqrt(np.add.reduce((vectors.conj() * vectors).real, axis=-2))
    if not norms.all():
        raise EigensolveError("eigensolver returned a zero vector")
    return values, vectors / norms[..., None, :], real
