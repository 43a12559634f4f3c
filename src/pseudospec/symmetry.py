"""Synthesis of the symmetry witnesses attached to a block-diagonalization.

The constructions all live in the canonical chain basis produced by
:mod:`pseudospec.blockdiag` and are exact permutation-level identities
there:

* ``S`` flips every chain end to end, slot ``(n, a, i) -> (n, a, p-i+1)``;
* ``tau0 = S . conjugation`` relates ``H0`` to its adjoint;
* ``tau = inv(A tau0 A^+) = inv(A)^+ tau0 inv(A)`` relates any
  block-diagonalizable ``H`` to its adjoint, pairing or not;
* ``C0`` fixes real-class slots and swaps conjugate-paired clusters, and
  exists precisely when the spectrum passes the pairing test;
* ``eta0 = S C0`` and ``X0 = eta0 . tau0`` commute into the generalized
  time-reversal witness ``X = A X0 inv(A)`` with ``X^2 = 1`` and
  ``[H, X] = 0``;
* ``eta = inv(A)^+ eta0 inv(A)`` is a Hermitian metric with
  ``H^+ eta = eta H``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .antilinear import AntilinearOp, compose_antilinear_antilinear, conjugation
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


def build_S(table: SpectralTable) -> np.ndarray:
    """Chain-reversal permutation: slot (n, a, i) -> (n, a, p-i+1).

    Hermitian, unitary, and involutive exactly; it is the identity precisely
    when every chain has length 1.
    """
    return _permutations([_S_rows(table)])[0]


def _S_rows(table: SpectralTable) -> list[int]:
    """The row of the one in each column of :func:`build_S`."""
    p = [c.p_list for c in table.clusters]
    return [head + p[n][a] - i for n, a, i, head in table.slots]


def _permutations(rows) -> np.ndarray:
    """The permutation matrices with a one in row ``rows[r][c]`` of each
    column ``c``, one per index list ``rows[r]`` of equal length,
    scattered into one (m, n, n) stack."""
    rows = np.array(rows, dtype=np.intp)
    P = np.zeros(rows.shape + rows.shape[1:])
    P[np.arange(len(rows))[:, None], rows, np.arange(rows.shape[1])] = 1.0
    return P


def build_Theta(dim: int) -> AntilinearOp:
    """Componentwise conjugation in the canonical basis."""
    return conjugation(dim)


def build_tau0(table: SpectralTable) -> AntilinearOp:
    """``tau0 = S . conjugation``: a Hermitian unitary antilinear involution."""
    return AntilinearOp.trusted(_tau0(build_S(table)))


def _tau0(S: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_tau0` from ``S``, also for stacks."""
    return S.astype(complex)


def build_tau(bd: BlockDiagonalization, tau0: AntilinearOp) -> AntilinearOp:
    """Antilinear Hermitian bijection with ``H^+ tau = tau H``.

    Defined as ``inv(A tau0 A^+) = inv(A)^+ tau0 inv(A)``, whose matrix part
    is ``conj(inv(A)^T S inv(A))``: the dual-basis sandwich of ``tau0``, built
    from the stored inverse of A.  No spectral pairing is needed, so this
    witness exists for every block-diagonalizable input.  The matrix part is
    symmetrized to keep Hermiticity exact against round-off.
    """
    return AntilinearOp.trusted(_tau(bd.A_inv, tau0.matrix))


def _tau(A_inv: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_tau`, also for stacks."""
    K = np.conj(np.swapaxes(A_inv, -1, -2) @ S @ A_inv)
    return (K + np.swapaxes(K, -1, -2)) / 2.0


def build_C0(labeling: SpectralLabeling, table: SpectralTable) -> np.ndarray:
    """Pair-swap permutation: identity on real-class slots, slot
    ``(nu, a, i) <-> (-nu, a, i)`` for conjugate pairs, chains aligned in
    descending-length order.  Raises :class:`PairingError` when the pairing
    test fails, since then no such operator exists."""
    _require_pairing(labeling, table)
    return _permutations([_C0_rows(labeling, table)])[0]


def _require_pairing(labeling: SpectralLabeling, table: SpectralTable) -> None:
    report = check_pairing(labeling, table)
    if not report.ok:
        raise PairingError(report.detail)


def _C0_rows(labeling: SpectralLabeling, table: SpectralTable) -> list[int]:
    """The row of the one in each column of :func:`build_C0`, for a
    labeling that passes the pairing test."""
    # partners share their Jordan dimensions, so a slot keeps its offset
    # from the first column of its cluster
    first = [0, *accumulate(c.algebraic for c in table.clusters)]
    partner = {n: n for n in labeling.real_clusters}
    for n, m in labeling.pairs:
        partner[n], partner[m] = m, n
    return [col - first[n] + first[partner[n]] for col, (n, *_) in enumerate(table.slots)]


def build_eta0(S: np.ndarray, C0: np.ndarray) -> np.ndarray:
    """``eta0 = S C0``; Hermitian unitary involution since ``[C0, S] = 0``."""
    return S @ C0


def build_X0(eta0: np.ndarray, tau0: AntilinearOp) -> AntilinearOp:
    """``X0 = eta0 . tau0``: antilinear involution commuting with ``H0``."""
    return AntilinearOp(_X0(eta0, tau0.matrix))


def _X0(eta0: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_X0` from that of ``tau0``, also for stacks."""
    return eta0 @ K


def build_X(bd: BlockDiagonalization, X0: AntilinearOp) -> AntilinearOp:
    """Similarity lift ``X = A X0 inv(A)`` (antilinear, so the inverse
    factor enters conjugated): involution commuting with ``H``."""
    return AntilinearOp.trusted(_lift(bd.A, X0.matrix, bd.A_inv))


def _lift(A: np.ndarray, K0: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_X`, also for stacks."""
    return A @ K0 @ np.conj(A_inv)


def build_metric_eta(bd: BlockDiagonalization, eta0: np.ndarray) -> np.ndarray:
    """Hermitian invertible metric ``eta = inv(A)^+ eta0 inv(A)`` with
    ``H^+ eta = eta H``; Hermiticity is exact by construction."""
    return _metric(bd.A_inv, eta0)


def _metric(A_inv: np.ndarray, eta0: np.ndarray) -> np.ndarray:
    """:func:`build_metric_eta`, also for stacks."""
    M = dagger(A_inv) @ eta0 @ A_inv
    return (M + dagger(M)) / 2.0


def gamma_from_tau_X(tau: AntilinearOp, X: AntilinearOp) -> np.ndarray:
    """Linear automorphism ``gamma = tau . X`` with ``H^+ gamma = gamma H``;
    in general not Hermitian."""
    return compose_antilinear_antilinear(tau, X)


def synthesize_operators(bd: BlockDiagonalization) -> SymmetryOperators:
    """Build the full witness set for a paired spectrum, classified at the
    default tolerances.

    Raises :class:`PairingError` when the pairing test fails.
    """
    labeling = classify_spectrum(bd.table)
    _require_pairing(labeling, bd.table)
    return synthesize_stack([bd], [labeling])[0][0]


def synthesize_stack(bds, labelings) -> tuple[list[SymmetryOperators], tuple]:
    """:func:`synthesize_operators` for decompositions of one dimension
    whose labelings pass the pairing test: S and C0 of every row scattered
    into one stack, every similarity lift as one stacked product.  Also
    returns the stacks of the matrix parts of tau and X and of eta, which
    the operators view.

    For a real H, X is the conjugation exactly: it commutes with H and
    squares to 1 whatever the basis.  When in addition ``conj(A) == A C0``
    holds bit for bit, tau and eta are real in exact arithmetic, and they
    are stored real: their imaginary parts are product rounding."""
    S, C0 = np.split(_permutations([_S_rows(bd.table) for bd in bds] + [
        _C0_rows(lab, bd.table) for bd, lab in zip(bds, labelings)]), 2)
    A = np.stack([bd.A for bd in bds])
    A_inv = np.stack([bd.A_inv for bd in bds])
    tau0 = _tau0(S)
    eta0 = build_eta0(S, C0)
    X0 = _X0(eta0, tau0)
    tau = _tau(A_inv, tau0)
    eta = _metric(A_inv, eta0)
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
