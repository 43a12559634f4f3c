"""Synthesis of the symmetry witnesses attached to a block-diagonalization.

The constructions all live in the canonical chain basis produced by
:mod:`pseudospec.blockdiag` and are exact permutation-level identities
there:

* ``S`` flips every chain end to end, slot ``(n, a, i) -> (n, a, p-i+1)``;
* ``tau0 = S . conjugation`` relates ``H0`` to its adjoint;
* ``tau = inv(A tau0 A^+) = inv(A)^+ tau0 inv(A)`` relates any
  block-diagonalizable ``H`` to its adjoint, pairing or not;
* ``C0`` fixes every real-class slot and swaps conjugate-paired clusters, and
  exists precisely when the spectrum passes the pairing test;
* ``eta0 = S C0`` and ``X0 = eta0 . tau0`` commute into the generalized
  time-reversal witness ``X = A X0 inv(A)`` with ``X^2 = 1`` and
  ``[H, X] = 0``;
* ``eta = inv(A)^+ eta0 inv(A)`` is a Hermitian metric with
  ``H^+ eta = eta H``.

Given S, C0 and inv(A), one rule forms ``tau0``, ``eta0``, ``X0`` and
``eta``: for the stacked synthesis of :func:`synthesize_stack`, and through
:func:`operators_from` for the closed forms of the two drivers, which
supply only their S, C0, basis, tau and X.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .antilinear import AntilinearOp, conjugation
from .blockdiag import BlockDiagonalization, BlockSpectra, SpectralTable
from .linalg import dagger

DEFAULT_REAL_TOL = 1e-8
DEFAULT_PAIR_TOL = 1e-8


class PairingError(ValueError):
    """The spectrum fails the conjugate-pairing test; the requested operator
    does not exist."""


@dataclass(frozen=True)
class SpectralLabeling:
    """Cluster indices split into the real class, conjugate pairs
    (plus-index first, ``Im E > 0``), and unpaired complex leftovers."""

    real_clusters: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    unpaired: tuple[int, ...]


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    detail: str | None = None


@dataclass(frozen=True)
class SymmetryOperators:
    S: np.ndarray
    Theta: AntilinearOp
    tau0: AntilinearOp
    tau: AntilinearOp
    C0: np.ndarray
    eta0: np.ndarray
    X0: AntilinearOp
    X: AntilinearOp
    eta: np.ndarray


def label_block(spectra: BlockSpectra, real_tol: float = DEFAULT_REAL_TOL,
                pair_tol: float = DEFAULT_PAIR_TOL) -> tuple[list[SpectralLabeling], np.ndarray]:
    """:func:`classify_spectrum` of every row of a block: each row's
    labeling, and per cluster the offset from its first slot to that of
    its conjugate partner, 0 for a cluster without one, as
    :func:`_permutations` takes it.

    Every modulus is ``np.hypot``, which is ``abs`` bit for bit where
    ``np.abs`` of an array is not: of every center, and, in one call for
    the whole block, of the difference between the conjugate of each plus
    cluster and each minus cluster of its own row.  Each row then runs the
    greedy loop on its distances: ``min`` keeps the first of equal keys, so
    a tie goes to the smaller index, and a NaN distance wins only as the
    first candidate, as in a plain loop with ``<``.
    """
    v = spectra.centers
    vals, mags = v.tolist(), np.hypot(v.real, v.imag).tolist()
    rows, plus_at, minus_at, reps, end = [], [], [], [], 0
    for c in spectra.counts.tolist():
        start, end = end, end + c
        reals, plus, minus = groups = ([], [], [])
        for k, z, mag in zip(range(c), vals[start:end], mags[start:end]):
            groups[0 if abs(z.imag) <= real_tol * (1.0 + mag) else 2 - (z.imag > 0)].append(k)
        rows.append((start, groups))
        plus_at += [start + k for k in plus]
        minus_at += [start + k for k in minus] * len(plus)
        reps += [len(minus)] * len(plus)
    diffs = v[minus_at] - v[plus_at].conj().repeat(reps)
    dist = np.hypot(diffs.real, diffs.imag).tolist()
    slot = list(accumulate(spectra.sizes.tolist(), initial=0))  # each cluster's first slot
    out, shift, at = [], [0] * len(vals), 0
    for start, (reals, plus, minus) in rows:
        free, pairs = list(range(len(minus))), []
        for n in plus:
            d, at = dist[at:at + len(minus)], at + len(minus)
            if free and d[j := min(free, key=d.__getitem__)] <= pair_tol * (1.0 + mags[start + n]):
                pairs.append((n, minus[j]))
                free.remove(j)
                a, b = start + n, start + minus[j]
                shift[a], shift[b] = slot[b] - slot[a], slot[a] - slot[b]
        unpaired = sorted({*plus}.difference(dict(pairs)) | {minus[j] for j in free})
        out.append(SpectralLabeling(tuple(reals), tuple(pairs), tuple(unpaired)))
    return out, np.array(shift, dtype=np.intp)


def classify_spectrum(
    table: SpectralTable,
    real_tol: float = DEFAULT_REAL_TOL,
    pair_tol: float = DEFAULT_PAIR_TOL,
) -> SpectralLabeling:
    """Split clusters into real / paired / unpaired classes.

    A cluster is real when ``|Im E| <= real_tol * (1 + |E|)``; this is
    decided before pairing, so a coalescing pair sitting on the real axis is
    classified real even though a conjugate candidate exists.  Remaining
    clusters are matched greedily to their nearest conjugate within
    ``pair_tol * (1 + |E|)``, ties broken by smaller cluster index.  The
    one-row case of :func:`label_block`.
    """
    return label_block(BlockSpectra.of([table]), real_tol, pair_tol)[0][0]


def check_pairing(labeling: SpectralLabeling, table: SpectralTable) -> PairingReport:
    """Pairing test: every complex cluster has a conjugate partner with the
    same geometric multiplicity and the same Jordan dimensions."""
    if labeling.unpaired:
        n = labeling.unpaired[0]
        return PairingReport(
            False,
            f"cluster {n} at E={table.clusters[n].value:.6g} has no conjugate partner",
        )
    for n, m in labeling.pairs:
        cn, cm = table.clusters[n], table.clusters[m]
        if cn.p_list != cm.p_list:
            return PairingReport(
                False,
                f"conjugate pair ({n}, {m}) has mismatched Jordan dimensions "
                f"{list(cn.p_list)} vs {list(cm.p_list)}",
            )
    return PairingReport(True, None)


def _permutations(spectra: BlockSpectra, shift: np.ndarray) -> np.ndarray:
    """The chain flip S and the pair swap C0 of every row of a block of
    one dimension, as two (m, n, n) stacks; ``shift`` holds each cluster's
    offset to its partner, from :func:`label_block`, and is 0 where C0
    fixes the cluster.

    Both are index rules over the flat index j of every slot of the
    block, from the block's chain lengths and cluster sizes, as
    :func:`blockdiag._assemble` places H0's superdiagonal.  S reverses each
    chain: for a chain of length p whose head is slot h, the one in column
    j lies in row ``2 h + p - 1 - j``.  C0 moves each slot of a cluster by
    its shift, onto the partner cluster, whose Jordan dimensions the
    pairing test has made equal: row ``j + shift``."""
    lengths, m = spectra.lengths, len(spectra.counts)
    slot = np.arange(lengths.sum())
    head = lengths.cumsum() - lengths
    n = len(slot) // m
    col = slot % n
    P = np.zeros((2, len(slot), n))
    P[0, (2 * head + lengths - 1).repeat(lengths) - slot, col] = 1.0
    P[1, slot + shift.repeat(spectra.sizes), col] = 1.0
    return P.reshape(2, m, n, n)


def build_tau(bd: BlockDiagonalization) -> AntilinearOp:
    """Antilinear Hermitian bijection with ``H^+ tau = tau H``.

    Defined as ``inv(A tau0 A^+) = inv(A)^+ tau0 inv(A)`` with
    ``tau0 = S . conjugation``, whose matrix part is
    ``conj(inv(A)^T S inv(A))``: the dual-basis sandwich of ``tau0``, built
    from the stored inverse of A.  No spectral pairing is needed, so this
    witness exists for every block-diagonalizable input.  The matrix part is
    symmetrized to keep Hermiticity exact against round-off.
    """
    spectra = BlockSpectra.of([bd.table])
    S, _ = _permutations(spectra, np.zeros(len(spectra.sizes), dtype=np.intp))
    return AntilinearOp.trusted(_tau(bd.A_inv, S[0].astype(complex)))


def _tau(A_inv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_tau`, also for stacks."""
    K = np.conj(np.swapaxes(A_inv, -1, -2) @ S @ A_inv)
    return (K + np.swapaxes(K, -1, -2)) / 2.0


def _lift(A: np.ndarray, K0: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Similarity lift ``A K0 inv(A)`` of the matrix part of an antilinear
    map (so the inverse factor enters conjugated), also for stacks."""
    return A @ K0 @ np.conj(A_inv)


def _derive(S: np.ndarray, C0: np.ndarray, A_inv: np.ndarray) -> tuple[np.ndarray, ...]:
    """The matrix part of ``tau0 = S . conjugation``, ``eta0 = S C0``, the
    matrix part of ``X0 = eta0 . tau0``, and the metric
    ``eta = inv(A)^+ eta0 inv(A)``, symmetrized to keep it Hermitian exactly
    against round-off: the witnesses that follow from S, C0 and inv(A) for
    any block-diagonalizable H, also for stacks."""
    tau0 = S.astype(complex)
    eta0 = S @ C0
    eta = dagger(A_inv) @ eta0 @ A_inv
    return tau0, eta0, eta0 @ tau0, (eta + dagger(eta)) / 2.0


def operators_from(S, C0, A_inv, tau: AntilinearOp, X: AntilinearOp) -> SymmetryOperators:
    """The full witness set of one matrix from its chain flip ``S``, its
    pair swap ``C0`` and the inverse ``A_inv`` of its Jordan basis, with
    ``tau`` and ``X`` as given and Theta the conjugation: the derivation
    of :func:`synthesize_stack`, for the closed forms of the drivers."""
    tau0, eta0, X0, eta = _derive(S, C0, A_inv)
    trusted = AntilinearOp.trusted
    return SymmetryOperators(S, conjugation(len(S)), trusted(tau0), tau, C0, eta0,
                             trusted(X0), X, eta)


def synthesize_operators(bd: BlockDiagonalization) -> SymmetryOperators:
    """Build the full witness set for a paired spectrum, classified at the
    default tolerances.

    Raises :class:`PairingError` when the pairing test fails.
    """
    spectra = BlockSpectra.of([bd.table])
    (labeling,), shift = label_block(spectra)
    report = check_pairing(labeling, bd.table)
    if not report.ok:
        raise PairingError(report.detail)
    return synthesize_stack(bd.A[None], bd.A_inv[None], np.array([bd.real]), spectra, shift)[0][0]


def synthesize_stack(A, A_inv, real, spectra: BlockSpectra, shift) -> tuple[list, tuple]:
    """:func:`synthesize_operators` for the decompositions of one dimension
    whose bases and inverses are the stacks ``A`` and ``A_inv``, whose
    realness is ``real``, and whose spectra pass the pairing test, with
    each cluster's ``shift`` to its partner from :func:`label_block`: S and
    C0 of every row from one :func:`_permutations` call, every similarity
    lift as one stacked product.  Also returns the stacks of the matrix parts of tau
    and X and of eta, which the operators view.

    For a real H, X is the conjugation exactly: it commutes with H and
    squares to 1 whatever the basis.  When in addition ``conj(A) == A C0``
    holds bit for bit, tau and eta are real in exact arithmetic, and they
    are stored real: their imaginary parts are product rounding."""
    S, C0 = _permutations(spectra, shift)
    tau0, eta0, X0, eta = _derive(S, C0, A_inv)
    tau = _tau(A_inv, tau0)
    Theta = np.repeat(np.eye(A.shape[-1], dtype=complex)[None], len(A), axis=0)
    if real.any():
        X = Theta.copy()
        if not real.all():
            X[~real] = _lift(A[~real], X0[~real], A_inv[~real])
        # A C0 gathers the columns of A that the columns of C0 pick
        AC0 = np.take_along_axis(A, C0.argmax(axis=1)[:, None, :], axis=2)
        exact = real & (np.conj(A) == AC0).all(axis=(1, 2))
        tau.imag[exact] = eta.imag[exact] = 0.0
    else:
        X = _lift(A, X0, A_inv)
    trusted = AntilinearOp.trusted
    ops = [
        SymmetryOperators(
            S[r], trusted(Theta[r]), trusted(tau0[r]), trusted(tau[r]), C0[r], eta0[r],
            trusted(X0[r]), trusted(X[r]), eta[r],
        )
        for r in range(len(A))
    ]
    return ops, (tau, X, eta)
