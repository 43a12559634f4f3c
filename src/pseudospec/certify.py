"""Residual-based verification and the top-level pseudo-Hermiticity decision.

The decision procedure is: eigensolve, refuse a complex matrix whose
spectrum is not closed under conjugation by one sigma_min, and otherwise
block-diagonalize, classify the spectrum and run the pairing test.  The
pairing test *is* the verdict; the synthesized witnesses and their
residuals are confirmation attached to the certificate.  Numerical
breakdown (inconsistent rank staircase, ill-conditioned basis, blown witness
residuals) yields the first-class verdict ``inconclusive`` rather than a
binary lie.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from itertools import chain, repeat

import numpy as np

from .antilinear import AntilinearOp, involution_residual, product
from .blockdiag import (
    COND_LIMIT,
    DEFAULT_TOL,
    BlockDiagonalization,
    SpectralTable,
    _Decomposed,
    _decompositions,
    decompose_stack,
)
from .linalg import (
    EPS,
    EigensolveError,
    _check_tol,
    as_matrix,
    as_stack,
    dagger,
    eigensystem_stack,
    fro_rows,
    rows_of,
)
from .symmetry import (
    DEFAULT_PAIR_TOL,
    DEFAULT_REAL_TOL,
    SpectralLabeling,
    SymmetryOperators,
    _operators,
    _pairing_block,
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
    relative to ``|H - E|_2``, and the residual tolerance of an
    eigenvector taken straight from the eigensolve for a cluster that the
    clustering leaves with one member.  The eigenvalues
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
            _check_tol(name, value)

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


#: the witness residuals of a ``pseudo_hermitian`` certificate, in the
#: order in which certificates and sweep rows hold them
WITNESS_RESIDUALS = ("anti_ph", "X_involution", "X_commute", "eta_hermitian", "eta_intertwine",
                     "gamma_intertwine")


def _witness_residuals(A, scale_A, tau, X, eta) -> tuple[np.ndarray, ...]:
    """The :data:`WITNESS_RESIDUALS` of the rows of a stack, one column
    each, given ``|H|_F`` and the stacked matrix parts of tau and X and the
    stacked eta."""
    # the two that need no product with A first, while few arrays are alive
    involution = involution_residual(X)
    hermitian = fro_rows(eta - dagger(eta))
    gamma = product(tau, X)  # gamma = tau . X of each row, a linear map
    Ac = np.conj(A)
    Ah = np.swapaxes(Ac, -1, -2)  # dagger(A)
    (anti, commute, intertwine, gamma_res), (_, _, eta_size, _) = _relative_residuals(
        scale_A, [(tau, Ah, Ac), (X, A, Ac), (eta, Ah, A), (gamma, Ah, A)])
    with np.errstate(all="ignore"):  # see _relative_residuals
        hermitian = hermitian / eta_size
    return anti, involution, commute, hermitian, intertwine, gamma_res


#: the decisions of a block of rows as arrays and lists: every row's
#: ``verdicts``, and its :data:`WITNESS_RESIDUALS` and reconstruction
#: residual, in that order, as a row of ``residuals``, NaN where it has
#: none; the block's decomposition, whose ``errors`` and ``rows`` number the
#: rows of the block, and the labeling and pairing detail of each decomposed
#: row; the rows whose pairing holds, ``paired``, with their stacked
#: ``witnesses``; and the spectral ``refusals`` of
#: :func:`_spectral_refusals`, rows that were never decomposed.
#: Certificates are built from it only by _certificates
_Block = namedtuple("_Block",
                    "verdicts residuals decomposed labelings details paired witnesses refusals")

_VERDICTS = np.array([INCONCLUSIVE, NOT_PSEUDO_HERMITIAN, PSEUDO_HERMITIAN], dtype=object)
#: the largest of each residual in a row of ``_Block.residuals`` that a
#: ``pseudo_hermitian`` certificate allows
_LIMITS = np.array([WITNESS_TOL] * len(WITNESS_RESIDUALS) + [RECONSTRUCTION_TOL])


def decide(H, tol: ToleranceProfile = ToleranceProfile()) -> Certificate:
    """Decide pseudo-Hermiticity of a square complex matrix.

    Pipeline: eigensolve, spectral refusal test, then block-diagonalize,
    classify the spectrum, pairing test.  A spectral refusal names its
    eigenvalue and carries its margin and a bound on every metric, with no
    table.  When the pairing holds the full witness set is synthesized and
    attached; when it fails the certificate names the violating cluster or
    pair.
    Structural failures land in the ``inconclusive`` verdict with
    diagnostics, never in an exception.  The one-row case of
    :func:`decide_many`.
    """
    A = as_matrix(H)
    if A.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    return _certificates(_decided(A[None], tol)[0], tol)[0]


def decide_many(stack, tol: ToleranceProfile = ToleranceProfile()) -> Iterator[Certificate]:
    """:func:`decide` for each row of an (m, n, n) stack, certificates in
    row order, bit for bit equal to one :func:`decide` per row.

    The input is validated at once, and a non-finite entry raises a
    ``ValueError`` that names its row.  Rows are then decided
    :func:`block_rows` at a time, each block by :func:`_decide_block`, and
    a block's certificates are built from its arrays and yielded as it
    completes, so only one block of them need be alive.
    """
    return chain.from_iterable(map(_certificates, _decide_blocks(stack, tol), repeat(tol)))


def _decide_blocks(stack, tol: ToleranceProfile = ToleranceProfile()) -> Iterator[_Block]:
    """The :data:`_Block` of each block of :func:`block_rows` rows of an
    (m, n, n) stack, in order, after the validation of :func:`decide_many`,
    which raises at once.  When a stacked LAPACK call fails on a block, its
    rows are decided one by one, so that a failure stays with its own row.
    Stacked gufuncs treat each matrix alone, so the block depth changes no
    bit."""
    Hs = as_stack(stack)
    if Hs.shape[1] == 0 and len(Hs):
        raise ValueError("cannot decompose an empty matrix")
    rows = block_rows(Hs.shape[1])
    return chain.from_iterable(_decided(Hs[s:s + rows], tol) for s in range(0, len(Hs), rows))


def _decided(Hs: np.ndarray, tol: ToleranceProfile) -> list[_Block]:
    """The decisions of a block, or of each of its rows when a stacked
    LAPACK call fails on it; a row on which one fails alone is
    ``inconclusive``.  One eigensolve serves the block: its values decide
    the spectral refusals of :func:`_spectral_refusals`, and only the other
    rows, sliced from the block with their eigensystems, are decomposed."""
    try:
        eigen = eigensystem_stack(Hs)
        refusals = _spectral_refusals(Hs, *eigen, tol.pair_tol)
        keep = [r for r in range(len(Hs)) if r not in refusals]
        # |H|_F of the kept rows only: that of a refused row may overflow
        scale, dec = np.full(len(Hs), np.nan), _Decomposed({}, [])
        if keep:
            kept = rows_of(Hs, keep)
            scale[keep] = kept_scale = fro_rows(kept)
            dec = decompose_stack(kept, tol.cluster_tol, kept_scale,
                                  tuple(rows_of(a, keep) for a in eigen))
            # its rows numbered as in the block
            dec = dec._replace(errors={keep[k]: exc for k, exc in dec.errors.items()},
                               rows=[keep[k] for k in dec.rows])
    except (EigensolveError, np.linalg.LinAlgError) as exc:
        if len(Hs) > 1:
            return [block for r in range(len(Hs)) for block in _decided(Hs[r:r + 1], tol)]
        refusals, scale, dec = {}, None, _Decomposed({0: exc}, [])
    return [_decide_block(Hs, scale, dec, refusals, tol)]


def _spectral_refusals(Hs, values, vectors, real, pair_tol: float) -> dict:
    """The rows of a block that no metric can make pseudo-Hermitian, from
    its eigensolve alone, as ``{row: (E, ratio, bound)}``.

    A pseudo-Hermitian H has ``H^+ = eta H inv(eta)``, so
    ``sigma_min(H - conj(z)) <= cond(eta) sigma_min(H - z)`` for every z,
    and its spectrum is closed under conjugation.  Each complex row is
    divided by the power of two ``2**e`` of its largest real or imaginary
    part, which is exact and keeps every norm below overflow, and takes the
    eigenvalue E whose conjugate lies farthest from its spectrum.  Where
    that distance exceeds ``pair_tol |H|_F`` (below it the test cannot
    fire, as ``sigma_min(H - zI) <= dist(z, spectrum)``), one stacked SVD
    gives ``ratio = sigma_min(H - conj(E)) / |H|_F``, and the row is refused
    when the ratio exceeds ``pair_tol``.  Its ``bound`` is ``sigma_min(H -
    conj(E)) / (|(H - E) v| + n eps |H|_F)``, with v the unit eigenvector of
    E, which bounds ``sigma_min(H - E)`` from above: a lower bound on
    ``cond(eta)`` for every metric eta.  A real row is never tested: the
    real eigensolve pairs its values exactly."""
    rows = np.flatnonzero(~real)
    if not rows.size:
        return {}
    parts = Hs[rows].view(np.float64)  # a copy; real and imaginary parts side by side
    e = -np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
    H = np.ldexp(parts, e[:, None, None]).view(complex)
    w = np.ldexp(values[rows].view(np.float64), e[:, None]).view(complex)
    diff = w.conj()[:, :, None] - w[:, None, :]
    far = np.hypot(diff.real, diff.imag).min(axis=2)  # each conjugate's distance to the spectrum
    k = far.argmax(axis=1)
    norm = fro_rows(H)
    test = (far.max(axis=1) > pair_tol * norm).nonzero()[0]
    if not test.size:
        return {}
    H, k, norm, rows = (rows_of(a, test) for a in (H, k, norm, rows))
    E = w[test, k]
    n = H.shape[-1]
    s = np.linalg.svd(H - E.conj()[:, None, None] * np.eye(n), compute_uv=False)[:, -1]
    refused = (s > pair_tol * norm).nonzero()[0]
    if not refused.size:
        return {}
    H, k, norm, rows, E, s = (rows_of(a, refused) for a in (H, k, norm, rows, E, s))
    v = vectors[rows, :, k]
    residual = fro_rows((H @ v[:, :, None])[:, :, 0] - E[:, None] * v)
    return dict(zip(rows.tolist(), zip(values[rows, k].tolist(), (s / norm).tolist(),
                                       (s / (residual + n * EPS * norm)).tolist())))


def _decide_block(Hs, scale, dec: _Decomposed, refusals: dict, tol: ToleranceProfile) -> _Block:
    """The decisions of a block of matrices ``Hs`` with norms ``scale``,
    given its spectral refusals and the decomposition of its other rows:
    the labeling of its flat spectral arrays and the pairing test of every
    decomposed row, then one stacked synthesis and one set of stacked
    residual products for the rows whose pairing holds.  The tolerance
    checks and the verdicts are array expressions over the block, and no
    table, decomposition, witness set or certificate of a row is built."""
    residuals = np.full((len(Hs), len(_LIMITS)), np.nan)
    code = np.zeros(len(Hs), dtype=np.intp)  # each row's index into _VERDICTS
    code[list(refusals)] = 1
    if not dec.rows:
        return _Block(_VERDICTS[code].tolist(), residuals, dec, [], [], [], None, refusals)
    residuals[dec.rows, -1] = dec.recon
    labelings, shift = label_block(dec.spectra, tol.real_tol, tol.pair_tol)
    details = _pairing_block(labelings, dec.spectra)
    ok = np.array([d is None for d in details])
    code[dec.rows] = 1 + ok
    paired, witnesses = [r for r, d in zip(dec.rows, details) if d is None], None
    if paired:
        at, spectra = ok.nonzero()[0], dec.spectra
        witnesses = synthesize_stack(
            rows_of(dec.A, at), rows_of(dec.A_inv, at), dec.real[ok],
            spectra if ok.all() else spectra.take(ok), shift[ok.repeat(spectra.counts)])
        res = np.array([*_witness_residuals(rows_of(Hs, paired), scale[paired], witnesses.tau,
                                            witnesses.X, witnesses.eta), dec.recon[ok]]).T
        residuals[paired] = res
        code[paired] = 2 * ~np.logical_or.reduce(res > _LIMITS, axis=1)
    return _Block(_VERDICTS[code].tolist(), residuals, dec, labelings, details, paired, witnesses,
                  refusals)


def _certificates(block: _Block, tol: ToleranceProfile) -> list[Certificate]:
    """The certificates of the rows of a :data:`_Block`, each with its own
    copy of the tolerances; a row's table, decomposition and witness set
    are built here, and its diagnostics where it has any.  A spectral
    refusal has no table, labeling or decomposition: its residuals are its
    ``refusal_sigma_min`` and ``metric_cond_bound``."""
    dec, tolerances = block.decomposed, tol.as_dict()
    certs = [Certificate(INCONCLUSIVE, False, {}, dict(tolerances), diagnostics=str(dec.errors[r]))
             if r in dec.errors else None for r in range(len(block.verdicts))]
    for r, (E, ratio, bound) in block.refusals.items():
        certs[r] = Certificate(
            NOT_PSEUDO_HERMITIAN, False, {"refusal_sigma_min": ratio, "metric_cond_bound": bound},
            dict(tolerances), diagnostics=f"eigenvalue E={E!r} has no conjugate partner: "
            f"sigma_min(H - conj(E) I) = {ratio:.3e} |H|_F exceeds pair_tol |H|_F")
    bds, values = _decompositions(dec) if dec.rows else [], block.residuals.tolist()
    for r, bd, labeling, detail in zip(dec.rows, bds, block.labelings, block.details):
        verdict, (*res, recon) = block.verdicts[r], values[r]
        residuals, w = {"reconstruction": recon}, None
        if detail is None:  # the pairing holds
            residuals.update(zip(WITNESS_RESIDUALS, res))
            if verdict == PSEUDO_HERMITIAN:
                w = _operators(block.witnesses, block.paired.index(r))
            else:
                listed = ", ".join(f"{name}={v:.3e}" for name, v in residuals.items())
                detail = f"witness residuals exceeded tolerance: {listed}"
        certs[r] = Certificate(verdict, verdict != NOT_PSEUDO_HERMITIAN, residuals,
                               dict(tolerances), table=bd.table, labeling=labeling, witnesses=w,
                               cond_A=bd.cond_A, diagnostics=detail, decomposition=bd)
    return certs
