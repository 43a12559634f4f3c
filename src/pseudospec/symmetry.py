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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .antilinear import AntilinearOp
from .blockdiag import BlockDiagonalization, SpectralTable
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
    ``pair_tol * (1 + |E|)``, ties broken by smaller cluster index.
    """
    real = []
    plus = []
    minus = []
    for n, c in enumerate(table.clusters):
        if abs(c.value.imag) <= real_tol * (1.0 + abs(c.value)):
            real.append(n)
        elif c.value.imag > 0:
            plus.append(n)
        else:
            minus.append(n)

    pairs = []
    used = set()
    for n in plus:
        target = np.conj(table.clusters[n].value)
        best = None
        best_dist = None
        for m in minus:
            if m in used:
                continue
            dist = abs(table.clusters[m].value - target)
            if best is None or dist < best_dist:
                best, best_dist = m, dist
        if best is not None and best_dist <= pair_tol * (1.0 + abs(table.clusters[n].value)):
            pairs.append((n, best))
            used.add(best)

    paired = {n for p in pairs for n in p}
    unpaired = tuple(n for n in plus + minus if n not in paired)
    return SpectralLabeling(tuple(real), tuple(pairs), tuple(sorted(unpaired)))


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


def _permutations(tables, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The chain flip S and the pair swap C0 of every row of a block of
    one dimension, as two (m, n, n) stacks; ``pairs[r]`` holds the
    conjugate pairs of row r, and C0 fixes every other cluster.

    Both are index rules over the flat index j of every slot of the
    block, from the lengths of all its chains and the sizes of all its
    clusters, as :func:`blockdiag._assemble` places H0's superdiagonal.
    S reverses each chain: for a chain of length p whose head is slot h,
    the one in column j lies in row ``2 h + p - 1 - j``.  C0 moves each
    slot by the offset from the first slot of its cluster to that of the
    partner cluster, whose Jordan dimensions the pairing test has made
    equal: row ``j + start[partner] - start``."""
    p_lists = [c.p_list for t in tables for c in t.clusters]
    lengths = np.fromiter(chain.from_iterable(p_lists), np.intp)
    sizes = np.fromiter(map(sum, p_lists), np.intp, len(p_lists))
    partner = np.arange(len(p_lists))
    first = 0
    for t, swaps in zip(tables, pairs):
        for a, b in swaps:
            partner[first + a], partner[first + b] = first + b, first + a
        first += len(t.clusters)
    slot = np.arange(lengths.sum())
    head = np.cumsum(lengths) - lengths
    start = np.cumsum(sizes) - sizes
    n = len(slot) // len(tables)
    col = slot % n
    P = np.zeros((2, len(slot), n))
    P[0, np.repeat(2 * head + lengths - 1, lengths) - slot, col] = 1.0
    P[1, slot + np.repeat(start[partner] - start, sizes), col] = 1.0
    return P.reshape(2, len(tables), n, n)


def build_tau(bd: BlockDiagonalization) -> AntilinearOp:
    """Antilinear Hermitian bijection with ``H^+ tau = tau H``.

    Defined as ``inv(A tau0 A^+) = inv(A)^+ tau0 inv(A)`` with
    ``tau0 = S . conjugation``, whose matrix part is
    ``conj(inv(A)^T S inv(A))``: the dual-basis sandwich of ``tau0``, built
    from the stored inverse of A.  No spectral pairing is needed, so this
    witness exists for every block-diagonalizable input.  The matrix part is
    symmetrized to keep Hermiticity exact against round-off.
    """
    S, _ = _permutations([bd.table], [()])
    return AntilinearOp.trusted(_tau(bd.A_inv, S[0].astype(complex)))


def _tau(A_inv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_tau`, also for stacks."""
    K = np.conj(np.swapaxes(A_inv, -1, -2) @ S @ A_inv)
    return (K + np.swapaxes(K, -1, -2)) / 2.0


def _lift(A: np.ndarray, K0: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Similarity lift ``A K0 inv(A)`` of the matrix part of an antilinear
    map (so the inverse factor enters conjugated), also for stacks."""
    return A @ K0 @ np.conj(A_inv)


def synthesize_operators(bd: BlockDiagonalization) -> SymmetryOperators:
    """Build the full witness set for a paired spectrum, classified at the
    default tolerances.

    Raises :class:`PairingError` when the pairing test fails.
    """
    labeling = classify_spectrum(bd.table)
    report = check_pairing(labeling, bd.table)
    if not report.ok:
        raise PairingError(report.detail)
    return synthesize_stack([bd], [labeling])[0][0]


def synthesize_stack(bds, labelings) -> tuple[list[SymmetryOperators], tuple]:
    """:func:`synthesize_operators` for decompositions of one dimension
    whose labelings pass the pairing test: S and C0 of every row from one
    :func:`_permutations` call, every similarity lift as one stacked
    product.  Also returns the stacks of the matrix parts of tau and X and
    of eta, which the operators view.

    For a real H, X is the conjugation exactly: it commutes with H and
    squares to 1 whatever the basis.  When in addition ``conj(A) == A C0``
    holds bit for bit, tau and eta are real in exact arithmetic, and they
    are stored real: their imaginary parts are product rounding."""
    S, C0 = _permutations([bd.table for bd in bds], [lab.pairs for lab in labelings])
    A = np.stack([bd.A for bd in bds])
    A_inv = np.stack([bd.A_inv for bd in bds])
    tau0 = S.astype(complex)  # the matrix part of S . conjugation
    eta0 = S @ C0
    X0 = eta0 @ tau0
    tau = _tau(A_inv, tau0)
    eta = dagger(A_inv) @ eta0 @ A_inv
    eta = (eta + dagger(eta)) / 2.0  # Hermitian exactly against round-off
    Theta = np.repeat(np.eye(A.shape[-1], dtype=complex)[None], len(bds), axis=0)
    real = np.array([bd.real for bd in bds])
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
        for r in range(len(bds))
    ]
    return ops, (tau, X, eta)
