"""Residual-based verification and the top-level pseudo-Hermiticity decision.

The decision procedure is: block-diagonalize, classify the spectrum, run the
pairing test.  The pairing test *is* the verdict; the synthesized witnesses
and their residuals are confirmation attached to the certificate.  Numerical
breakdown (inconsistent rank staircase, ill-conditioned basis, blown witness
residuals) yields the first-class verdict ``inconclusive`` rather than a
binary lie.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .antilinear import AntilinearOp, involution_residual, is_involution, product
from .blockdiag import (
    COND_LIMIT,
    DEFAULT_TOL,
    BlockDiagonalization,
    SpectralTable,
    decompose_stack,
)
from .linalg import EigensolveError, as_matrix, as_stack, dagger, fro_rows, rows_of
from .symmetry import (
    DEFAULT_PAIR_TOL,
    DEFAULT_REAL_TOL,
    SpectralLabeling,
    SymmetryOperators,
    check_pairing,
    label_block,
    synthesize_stack,
)

PSEUDO_HERMITIAN = "pseudo_hermitian"
NOT_PSEUDO_HERMITIAN = "not_pseudo_hermitian"
INCONCLUSIVE = "inconclusive"


def _safe(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 1.0)


def _relative_residuals(scale_A, terms) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``|left K - K right| / (|A| |K|)`` for each ``(K, left, right)`` in
    ``terms``, stacks over the rows of ``A`` whose norms are ``scale_A``:
    the relative residual of every intertwining and commutation identity
    between ``A`` and ``K`` below.  Each term's residual is formed and
    measured in turn, so only one of them is alive at a time; the norms
    ``|K|``, with 0 read as 1, are returned as well."""
    residuals, sizes = [], []
    for K, left, right in terms:
        residuals.append(fro_rows(left @ K - K @ right))
        sizes.append(_safe(fro_rows(K)))
    with np.errstate(all="ignore"):  # inf and NaN without a warning, as Python floats
        return [r / (_safe(scale_A) * s) for r, s in zip(residuals, sizes)], sizes


def _one_row(H, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A validated matrix and a partner, each as a one-row stack, and
    ``|H|_F``."""
    A = as_matrix(H)
    if K.shape != A.shape:
        raise ValueError("dimension mismatch")
    return A[None], fro_rows(A[None]), K[None]


def residual_intertwine_antilinear(H, L: AntilinearOp) -> float:
    """Relative residual of ``H^+ L = L H`` as antilinear maps, i.e. of the
    matrix identity ``H^+ K = K conj(H)``.  Zero iff ``H^+ = L H inv(L)``."""
    A, fA, K = _one_row(H, L.matrix)
    return float(_relative_residuals(fA, [(K, dagger(A), np.conj(A))])[0][0][0])


def residual_commute_antilinear(H, L: AntilinearOp) -> float:
    """Relative residual of ``[H, L] = 0``: ``H K = K conj(H)``."""
    A, fA, K = _one_row(H, L.matrix)
    return float(_relative_residuals(fA, [(K, A, np.conj(A))])[0][0][0])


def residual_involution(L: AntilinearOp) -> float:
    """``|K conj(K) - I|``."""
    return is_involution(L)[1]


def residual_hermitian_metric(H, eta) -> tuple[float, float]:
    """(Hermiticity, intertwining) residuals of a metric candidate:
    ``|eta - eta^+| / |eta|`` and ``|H^+ eta - eta H| / (|H| |eta|)``."""
    A, fA, G = _one_row(H, as_matrix(eta))
    (res,), (size,) = _relative_residuals(fA, [(G, dagger(A), A)])
    return float(fro_rows(G - dagger(G))[0]) / float(size[0]), float(res[0])


def residual_intertwine_linear(H, G) -> float:
    """Relative residual of ``H^+ G = G H`` for a linear automorphism G."""
    A, fA, K = _one_row(H, as_matrix(G))
    return float(_relative_residuals(fA, [(K, dagger(A), A)])[0][0][0])


#: largest relative reconstruction residual ``|H - A H0 inv(A)| / |H|_F``,
#: and largest witness residual, of a ``pseudo_hermitian`` certificate
RECONSTRUCTION_TOL = 1e-8
WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class ToleranceProfile:
    """The tolerances of the decision procedure that ``analyze`` sets,
    serialized into certificates with the fixed ones.

    ``cluster_tol`` is the ``tol`` of
    :func:`~pseudospec.blockdiag.block_diagonalize`: the clustering floor,
    relative to ``|H|_F``, the rank tolerance of the Jordan staircase,
    relative to ``|H - E|_2``, and the separation and residual tolerance
    of an eigenvector taken straight from the eigensolve.  The eigenvalues
    of a length-p chain, which rounding scatters like ``eps**(1/p)``, merge
    through overlapping perturbation discs at any value (see
    :func:`~pseudospec.blockdiag.cluster_eigenvalues`), so no study near
    exceptional points needs to widen it.
    """

    cluster_tol: float = DEFAULT_TOL
    real_tol: float = DEFAULT_REAL_TOL
    pair_tol: float = DEFAULT_PAIR_TOL

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0.0 <= value < np.inf:  # also refuses NaN
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        """The profile's tolerances, then the fixed ones, as every
        certificate records them."""
        # not dataclasses.asdict: it deep-copies every value, which makes it
        # about 20 times slower, and decide calls this for every block
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "reconstruction_tol": RECONSTRUCTION_TOL, "witness_tol": WITNESS_TOL,
                "cond_limit": COND_LIMIT}


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


def block_rows(n: int) -> int:
    """Rows of n x n matrices that :func:`decide_many` decides at once:
    4,096 matrix entries, but at least 16 rows and at most 64.  That is 64
    rows up to 8 x 8, where a deeper block shares each LAPACK and numpy
    call among more rows, and 16, as for every n before, from 16 x 16 up,
    where 64 rows gain little time and hold four times the certificates."""
    return min(64, max(16, 4096 // max(1, n * n)))


def _witness_residuals(A, scale_A, tau, X, eta) -> list[dict[str, float]]:
    """The six witness residuals of each row of a stack, given ``|H|_F``
    and the stacked matrix parts of tau and X and the stacked eta."""
    # the two that need no product with A first, while few arrays are alive
    involution = involution_residual(X)
    hermitian = fro_rows(eta - dagger(eta))
    gamma = product(tau, X)  # gamma = tau . X of each row, a linear map
    Ac = np.conj(A)
    Ah = np.swapaxes(Ac, -1, -2)  # dagger(A)
    (anti, commute, intertwine, gamma_res), (_, _, eta_size, _) = _relative_residuals(
        scale_A, [(tau, Ah, Ac), (X, A, Ac), (eta, Ah, A), (gamma, Ah, A)]
    )
    with np.errstate(all="ignore"):  # see _relative_residuals
        hermitian = hermitian / eta_size
    columns = {
        "anti_ph": anti,
        "X_involution": involution,
        "X_commute": commute,
        "eta_hermitian": hermitian,
        "eta_intertwine": intertwine,
        "gamma_intertwine": gamma_res,
    }
    values = {k: v.tolist() for k, v in columns.items()}
    return [{k: v[r] for k, v in values.items()} for r in range(len(A))]


def decide(H, tol: ToleranceProfile = ToleranceProfile()) -> Certificate:
    """Decide pseudo-Hermiticity of a square complex matrix.

    Pipeline: block-diagonalize, classify the spectrum, pairing test.  When
    the pairing holds the full witness set is synthesized and attached; when
    it fails the certificate names the violating cluster or pair.
    Structural failures land in the ``inconclusive`` verdict with
    diagnostics, never in an exception.  The one-row case of
    :func:`decide_many`.
    """
    A = as_matrix(H)
    if A.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    return _decide_block(A[None], tol)[0]


def decide_many(stack, tol: ToleranceProfile = ToleranceProfile()) -> Iterator[Certificate]:
    """:func:`decide` for each row of an (m, n, n) stack, certificates in
    row order, bit for bit equal to one :func:`decide` per row.

    The input is validated at once, and a non-finite entry raises a
    ``ValueError`` that names its row.  Rows are then decided
    :func:`block_rows` at a time: one stacked decomposition, then one
    stacked synthesis and one set of stacked residual products for the
    rows whose pairing holds.  Stacked gufuncs treat each matrix alone, so
    the block depth changes no bit.  Certificates are yielded as each
    block completes, so only one block of them need be alive.
    """
    Hs = as_stack(stack)
    if Hs.shape[1] == 0 and len(Hs):
        raise ValueError("cannot decompose an empty matrix")
    return _blocks(Hs, tol)


def _blocks(Hs: np.ndarray, tol: ToleranceProfile) -> Iterator[Certificate]:
    # yield from binds no name, so a block's certificates die with the block
    rows = block_rows(Hs.shape[1])
    for start in range(0, len(Hs), rows):
        yield from _decide_block(Hs[start:start + rows], tol)


def _decide_block(Hs: np.ndarray, tol: ToleranceProfile) -> list[Certificate]:
    """The certificates of a block: one stacked decomposition, the labeling
    of its flat spectral arrays and each row's pairing test, then one
    stacked synthesis and one set of stacked residual products for the
    rows whose pairing holds.  When a stacked LAPACK call fails, the rows
    are decided one by one, so a failure stays with its own row."""
    scale = fro_rows(Hs)
    tolerances = tol.as_dict()  # each certificate gets its own copy
    try:
        out, block = decompose_stack(Hs, tol.cluster_tol, scale)
    except (EigensolveError, np.linalg.LinAlgError) as exc:
        if len(Hs) > 1:
            return [cert for r in range(len(Hs)) for cert in _decide_block(Hs[r:r + 1], tol)]
        out = [exc]
    certs = [Certificate(INCONCLUSIVE, False, {}, dict(tolerances), diagnostics=str(bd))
             if isinstance(bd, Exception) else bd for bd in out]
    rows = [r for r, bd in enumerate(out) if not isinstance(bd, Exception)]
    if not rows:
        return certs
    spectra, A, A_inv = block
    labelings, shift = label_block(spectra, tol.real_tol, tol.pair_tol)
    reports = [check_pairing(lab, out[r].table) for r, lab in zip(rows, labelings)]
    ok = np.array([report.ok for report in reports])
    paired = ok.nonzero()[0].tolist()
    if paired:
        at = [rows[k] for k in paired]
        ops, stacks = synthesize_stack(
            rows_of(A, paired), rows_of(A_inv, paired), np.array([out[r].real for r in at]),
            spectra if ok.all() else spectra.take(ok), shift[ok.repeat(spectra.counts)])
        witnesses = iter(zip(ops, _witness_residuals(rows_of(Hs, at), scale[at], *stacks)))
    for r, labeling, report in zip(rows, labelings, reports):
        bd, verdict, detail, w = out[r], NOT_PSEUDO_HERMITIAN, report.detail, None
        residuals = {"reconstruction": bd.recon_residual}
        if report.ok:
            w, res = next(witnesses)
            residuals.update(res)
            verdict = PSEUDO_HERMITIAN
            if bd.recon_residual > RECONSTRUCTION_TOL or any(v > WITNESS_TOL for v in res.values()):
                values = ", ".join(f"{name}={v:.3e}" for name, v in residuals.items())
                verdict, w = INCONCLUSIVE, None
                detail = f"witness residuals exceeded tolerance: {values}"
        certs[r] = Certificate(verdict, verdict != NOT_PSEUDO_HERMITIAN, residuals,
                               dict(tolerances), table=bd.table, labeling=labeling, witnesses=w,
                               cond_A=bd.cond_A, diagnostics=detail, decomposition=bd)
    return certs

