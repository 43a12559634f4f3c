"""Exact algebra of antilinear operators.

An antilinear operator is represented by its matrix part ``K`` and acts as
``v -> K @ conj(v)``.  Under this representation, frozen once and used
everywhere:

* composition with a linear map ``M``:  ``M . L`` has matrix ``M K``,
  ``L . M`` has matrix ``K conj(M)``;
* composing two antilinear operators gives a *linear* map ``K1 conj(K2)``;
* the adjoint defined by ``<xi | L^+ zeta> = <zeta | L xi>`` has matrix
  ``K^T`` (plain transpose, no conjugation);
* the inverse has matrix ``conj(K^{-1})``.

Hermitian therefore means ``K == K^T``, involution means
``K conj(K) == I``, antiunitary means ``K`` unitary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, fro, fro_rows, inverse

#: residual up to which :func:`is_hermitian`, :func:`is_involution` and
#: :func:`is_antiunitary` hold
PREDICATE_TOL = 1e-10


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator ``v -> matrix @ conj(v)``."""

    matrix: np.ndarray

    def __post_init__(self):
        K = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", K)

    @classmethod
    def trusted(cls, K: np.ndarray) -> "AntilinearOp":
        """The operator with matrix part ``K``, a complex square ndarray
        with finite entries that the caller has already validated."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", K)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, v) -> np.ndarray:
        return apply(self, v)


def conjugation(dim: int) -> AntilinearOp:
    """Componentwise complex conjugation (matrix part is the identity)."""
    return AntilinearOp.trusted(np.eye(dim, dtype=complex))


def apply(L: AntilinearOp, v) -> np.ndarray:
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (L.dim,):
        raise ValueError(f"dimension mismatch: operator is {L.dim}, vector is {vec.shape}")
    return L.matrix @ np.conj(vec)


def compose_antilinear_antilinear(L1: AntilinearOp, L2: AntilinearOp) -> np.ndarray:
    """The linear map ``v -> L1(L2(v))``; two antilinears compose to a linear."""
    if L1.dim != L2.dim:
        raise ValueError("dimension mismatch")
    return product(L1.matrix, L2.matrix)


def product(K1: np.ndarray, K2: np.ndarray) -> np.ndarray:
    """``K1 conj(K2)``: the linear map composed of two antilinear operators
    from their matrix parts, also for stacks of them."""
    return K1 @ np.conj(K2)


def compose_linear_antilinear(M, L: AntilinearOp) -> AntilinearOp:
    A = as_matrix(M)
    if A.shape[0] != L.dim:
        raise ValueError("dimension mismatch")
    return AntilinearOp(A @ L.matrix)


def compose_antilinear_linear(L: AntilinearOp, M) -> AntilinearOp:
    A = as_matrix(M)
    if A.shape[0] != L.dim:
        raise ValueError("dimension mismatch")
    return AntilinearOp(L.matrix @ np.conj(A))


def adjoint(L: AntilinearOp) -> AntilinearOp:
    return AntilinearOp(L.matrix.T)


def inverse_antilinear(L: AntilinearOp) -> AntilinearOp:
    return AntilinearOp(np.conj(inverse(L.matrix)))


def is_hermitian(L: AntilinearOp) -> tuple[bool, float]:
    """Hermiticity test.  Returns (verdict, residual ``|K - K^T| / |K|``)."""
    scale = fro(L.matrix)
    res = 0.0 if scale == 0.0 else fro(L.matrix - L.matrix.T) / scale
    return res <= PREDICATE_TOL, res


def is_involution(L: AntilinearOp) -> tuple[bool, float]:
    """Involution test.  Returns (verdict, residual ``|K conj(K) - I|``)."""
    res = float(involution_residual(L.matrix[None])[0])
    return res <= PREDICATE_TOL, res


def involution_residual(K: np.ndarray) -> np.ndarray:
    """``|K conj(K) - I|`` for each row of a stack of matrix parts."""
    return fro_rows(product(K, K) - np.eye(K.shape[-1]))


def is_antiunitary(L: AntilinearOp) -> tuple[bool, float]:
    """Antiunitarity test.  Returns (verdict, residual ``|K^+ K - I|``)."""
    res = fro(L.matrix.conj().T @ L.matrix - np.eye(L.dim))
    return res <= PREDICATE_TOL, res
