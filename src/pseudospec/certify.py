"""Residual-based verification and the top-level pseudo-Hermiticity decision.

The decision procedure is: block-diagonalize, classify the spectrum, run the
pairing test.  The pairing test *is* the verdict; the synthesized witnesses
and their residuals are confirmation attached to the certificate.  Numerical
breakdown (inconsistent rank staircase, ill-conditioned basis, blown witness
residuals) yields the first-class verdict ``inconclusive`` rather than a
binary lie.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .antilinear import AntilinearOp, is_involution
from .blockdiag import (
    DEFAULT_COND_LIMIT,
    DEFAULT_TOL,
    BlockDiagonalization,
    IllConditionedBasisError,
    JordanStructureError,
    SpectralTable,
    block_diagonalize,
)
from .linalg import EigensolveError, as_matrix, fro
from .symmetry import (
    DEFAULT_PAIR_TOL,
    DEFAULT_REAL_TOL,
    SpectralLabeling,
    SymmetryOperators,
    check_pairing,
    classify_spectrum,
    gamma_from_tau_X,
    synthesize_operators,
)

PSEUDO_HERMITIAN = "pseudo_hermitian"
NOT_PSEUDO_HERMITIAN = "not_pseudo_hermitian"
INCONCLUSIVE = "inconclusive"


def _safe(x: float) -> float:
    return x if x > 0.0 else 1.0


def _relative_residual(A: np.ndarray, K: np.ndarray, left, right) -> float:
    """``|left K - K right| / (|A| |K|)``: the relative residual of every
    intertwining and commutation identity between ``A`` and ``K`` below."""
    if A.shape != K.shape:
        raise ValueError("dimension mismatch")
    return fro(left @ K - K @ right) / (_safe(fro(A)) * _safe(fro(K)))


def residual_intertwine_antilinear(H, L: AntilinearOp) -> float:
    """Relative residual of ``H^+ L = L H`` as antilinear maps, i.e. of the
    matrix identity ``H^+ K = K conj(H)``.  Zero iff ``H^+ = L H inv(L)``."""
    A = as_matrix(H, square=True)
    return _relative_residual(A, L.matrix, A.conj().T, np.conj(A))


def residual_commute_antilinear(H, L: AntilinearOp) -> float:
    """Relative residual of ``[H, L] = 0``: ``H K = K conj(H)``."""
    A = as_matrix(H, square=True)
    return _relative_residual(A, L.matrix, A, np.conj(A))


def residual_involution(L: AntilinearOp) -> float:
    """``|K conj(K) - I|``."""
    return is_involution(L)[1]


def residual_hermitian_metric(H, eta) -> tuple[float, float]:
    """(Hermiticity, intertwining) residuals of a metric candidate:
    ``|eta - eta^+| / |eta|`` and ``|H^+ eta - eta H| / (|H| |eta|)``."""
    A = as_matrix(H, square=True)
    G = as_matrix(eta, square=True)
    herm = fro(G - G.conj().T) / _safe(fro(G))
    return herm, _relative_residual(A, G, A.conj().T, A)


def residual_intertwine_linear(H, G) -> float:
    """Relative residual of ``H^+ G = G H`` for a linear automorphism G."""
    A = as_matrix(H, square=True)
    return _relative_residual(A, as_matrix(G, square=True), A.conj().T, A)


@dataclass(frozen=True)
class ToleranceProfile:
    """All knobs of the decision procedure, serialized into certificates.

    ``cluster_tol`` is relative to ``|H|_F`` and is only the clustering
    floor: the eigenvalues of a length-p chain, which rounding scatters like
    ``eps**(1/p)``, merge through overlapping perturbation discs at any
    value (see :func:`~pseudospec.blockdiag.cluster_eigenvalues`), so no
    study near exceptional points needs to widen it.
    """

    cluster_tol: float = DEFAULT_TOL
    real_tol: float = DEFAULT_REAL_TOL
    pair_tol: float = DEFAULT_PAIR_TOL
    reconstruction_tol: float = 1e-8
    witness_tol: float = 1e-8
    cond_limit: float = DEFAULT_COND_LIMIT

    def as_dict(self) -> dict[str, float]:
        # not dataclasses.asdict: it deep-copies every value, which makes it
        # about 20 times slower, and decide calls this for every certificate
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Certificate:
    verdict: str
    pairing_ok: bool
    residuals: dict[str, float]
    tolerances: dict[str, float]
    table: SpectralTable | None = None
    labeling: SpectralLabeling | None = None
    witnesses: SymmetryOperators | None = None
    cond_A: float = float("nan")
    diagnostics: str | None = None
    decomposition: BlockDiagonalization | None = field(default=None, repr=False)


def witness_residuals(H, ops: SymmetryOperators) -> dict[str, float]:
    eta_h, eta_i = residual_hermitian_metric(H, ops.eta)
    return {
        "anti_ph": residual_intertwine_antilinear(H, ops.tau),
        "X_involution": residual_involution(ops.X),
        "X_commute": residual_commute_antilinear(H, ops.X),
        "eta_hermitian": eta_h,
        "eta_intertwine": eta_i,
        "gamma_intertwine": residual_intertwine_linear(H, gamma_from_tau_X(ops.tau, ops.X)),
    }


def decide(H, tol: ToleranceProfile = ToleranceProfile()) -> Certificate:
    """Decide pseudo-Hermiticity of a square complex matrix.

    Pipeline: block-diagonalize, classify the spectrum, pairing test.  When
    the pairing holds the full witness set is synthesized and attached; when
    it fails the certificate names the violating cluster or pair.
    Structural failures land in the ``inconclusive`` verdict with
    diagnostics, never in an exception.
    """
    A = as_matrix(H, square=True)
    try:
        bd = block_diagonalize(A, tol.cluster_tol, tol.cond_limit)
    except (JordanStructureError, IllConditionedBasisError, EigensolveError,
            np.linalg.LinAlgError) as exc:
        return Certificate(
            INCONCLUSIVE, False, {}, tol.as_dict(), diagnostics=str(exc)
        )

    labeling = classify_spectrum(bd.table, tol.real_tol, tol.pair_tol)
    report = check_pairing(labeling, bd.table)
    residuals = {"reconstruction": bd.recon_residual}

    def certificate(verdict, diagnostics=None, witnesses=None):
        return Certificate(
            verdict, report.ok, residuals, tol.as_dict(), table=bd.table,
            labeling=labeling, witnesses=witnesses, cond_A=bd.cond_A,
            diagnostics=diagnostics, decomposition=bd,
        )

    if not report.ok:
        return certificate(NOT_PSEUDO_HERMITIAN, report.detail)

    ops = synthesize_operators(bd, labeling)
    residuals.update(witness_residuals(A, ops))

    failed = {k: v for k, v in residuals.items() if k != "reconstruction" and v > tol.witness_tol}
    if bd.recon_residual > tol.reconstruction_tol or failed:
        detail = ", ".join(f"{k}={v:.3e}" for k, v in residuals.items())
        return certificate(INCONCLUSIVE, f"witness residuals exceeded tolerance: {detail}")
    return certificate(PSEUDO_HERMITIAN, witnesses=ops)
