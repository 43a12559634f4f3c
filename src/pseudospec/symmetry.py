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

S and C0 are permutations of the slots, and they are carried as index
maps, ``S e_j = e_flip[j]`` and ``C0 e_j = e_swap[j]``: every witness is a
Jordan-basis sandwich of a permutation, formed as a gather of the columns
of one factor and one product with the other.  Given the two maps and
inv(A), one rule forms ``eta``: for the stacked synthesis of
:func:`synthesize_stack`, and through :func:`operators_from` for the closed
forms of the two drivers, which supply only their maps, basis, tau and X.
The dense matrices of S, Theta, tau0, C0, eta0 and X0 are formed from the
maps only where a witness set is handed out.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .antilinear import AntilinearOp, conjugation
from .blockdiag import BlockDiagonalization, BlockSpectra, SpectralTable
from .linalg import _check_tol, dagger

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


#: the witness sets of the rows of a block: each row's chain flip and pair
#: swap as (m, n) index maps, ``S e_j = e_flip[j]`` and ``C0 e_j = e_swap[j]``,
#: and the stacked matrix parts of tau and X and the stacked eta
_WitnessStacks = namedtuple("_WitnessStacks", "flip swap tau X eta")


def _operators(stacks: _WitnessStacks, r: int) -> SymmetryOperators:
    """The :class:`SymmetryOperators` of row ``r`` of a block, whose tau, X
    and eta are views of its stacks."""
    trusted = AntilinearOp.trusted
    return _witness_set(stacks.flip[r], stacks.swap[r], trusted(stacks.tau[r]),
                        trusted(stacks.X[r]), stacks.eta[r])


def _witness_set(flip, swap, tau: AntilinearOp, X: AntilinearOp, eta) -> SymmetryOperators:
    """The witness set of one matrix whose chain flip and pair swap are the
    index maps ``flip`` and ``swap``, with ``tau``, ``X`` and ``eta`` as
    given: the dense S, Theta (the conjugation), ``tau0 = S . conjugation``,
    C0, ``eta0 = S C0`` and ``X0 = eta0 . tau0``, each the columns of the
    identity that its map picks."""
    I, flip_swap = np.eye(len(flip)), flip[swap]
    S, C0, eta0, X0 = (I.take(p, axis=1) for p in (flip, swap, flip_swap, flip_swap[flip]))
    trusted = AntilinearOp.trusted
    return SymmetryOperators(S, conjugation(len(S)), trusted(S.astype(complex)), tau, C0, eta0,
                             trusted(X0.astype(complex)), X, eta)


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
    _check_tol("real_tol", real_tol)
    _check_tol("pair_tol", pair_tol)
    return label_block(BlockSpectra.of([table]), real_tol, pair_tol)[0][0]


def check_pairing(labeling: SpectralLabeling, table: SpectralTable) -> PairingReport:
    """Pairing test: every complex cluster has a conjugate partner with the
    same geometric multiplicity and the same Jordan dimensions.  The
    one-row case of :func:`_pairing_block`."""
    detail = _pairing_block([labeling], BlockSpectra.of([table]))[0]
    return PairingReport(detail is None, detail)


def _pairing_block(labelings: list[SpectralLabeling], spectra: BlockSpectra) -> list[str | None]:
    """:func:`check_pairing` of every row of a block, given each row's
    labeling from :func:`label_block`: ``None`` where the pairing holds,
    and otherwise the detail that names the first unpaired cluster or the
    first pair whose chain lengths differ."""
    lengths, chains = spectra.lengths.tolist(), spectra.chains.tolist()
    ends, out = list(accumulate(chains)), []
    for a, labeling in zip(accumulate(spectra.counts.tolist(), initial=0), labelings):
        p = {k: lengths[ends[a + k] - chains[a + k]:ends[a + k]]
             for pair in labeling.pairs for k in pair}
        details = [f"conjugate pair ({n}, {m}) has mismatched Jordan dimensions {p[n]} vs {p[m]}"
                   for n, m in labeling.pairs if p[n] != p[m]]
        if labeling.unpaired:
            n = labeling.unpaired[0]
            E = complex(spectra.centers[a + n])
            details.insert(0, f"cluster {n} at E={E:.6g} has no conjugate partner")
        out.append(details[0] if details else None)
    return out


def _permutations(spectra: BlockSpectra, shift: np.ndarray) -> np.ndarray:
    """The chain flip S and the pair swap C0 of every row of a block of
    one dimension, as two (m, n) index maps ``flip`` and ``swap``, with
    ``S e_j = e_flip[j]`` and ``C0 e_j = e_swap[j]``; ``shift`` holds each
    cluster's offset to its partner, from :func:`label_block`, and is 0
    where C0 fixes the cluster.

    Both are index rules over the flat index j of every slot of the
    block, from the block's chain lengths and cluster sizes, as
    :func:`blockdiag._assemble` places H0's superdiagonal.  S reverses each
    chain: for a chain of length p whose head is slot h, it takes slot j to
    ``2 h + p - 1 - j``.  C0 moves each slot of a cluster by its shift,
    onto the partner cluster, whose Jordan dimensions the pairing test has
    made equal: to ``j + shift``."""
    lengths, m = spectra.lengths, len(spectra.counts)
    slot = np.arange(lengths.sum())
    head = lengths.cumsum() - lengths
    n = len(slot) // m
    flip = (2 * head + lengths - 1).repeat(lengths) - slot
    return (np.stack([flip, slot + shift.repeat(spectra.sizes)]) % n).reshape(2, m, n)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The index maps of the products of the permutations whose maps are
    the rows of ``a`` and of ``b``: ``a[b]`` row by row."""
    return a[np.arange(len(a))[:, None], b]


def _gather(M: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``M P`` for each row of a stack, with ``P e_j = e_p[j]`` from the row
    of the maps ``p``: the columns of ``M`` that ``p`` picks."""
    return M[np.arange(len(M))[:, None, None], np.arange(M.shape[-1])[:, None], p[:, None, :]]


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
    flip, _ = _permutations(spectra, np.zeros(len(spectra.sizes), dtype=np.intp))
    return AntilinearOp.trusted(_tau(bd.A_inv[None], flip)[0])


def _tau(A_inv: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Matrix part of :func:`build_tau` for a stack, from the maps of the
    chain flips."""
    K = np.conj(_gather(np.swapaxes(A_inv, -1, -2), flip) @ A_inv)
    return (K + np.swapaxes(K, -1, -2)) / 2.0


def _eta(A_inv: np.ndarray, flip: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """The metric ``eta = inv(A)^+ eta0 inv(A)`` with ``eta0 = S C0`` for a
    stack, from the maps of S and C0, symmetrized to keep it Hermitian
    exactly against round-off."""
    eta = _gather(dagger(A_inv), _compose(flip, swap)) @ A_inv
    return (eta + dagger(eta)) / 2.0


def operators_from(flip, swap, A_inv, tau: AntilinearOp, X: AntilinearOp) -> SymmetryOperators:
    """The full witness set of one matrix from the index maps ``flip`` of
    its chain flip and ``swap`` of its pair swap (``S e_j = e_flip[j]``,
    ``C0 e_j = e_swap[j]``) and the inverse ``A_inv`` of its Jordan basis,
    with ``tau`` and ``X`` as given and Theta the conjugation: eta by the
    rule of :func:`synthesize_stack`, for the closed forms of the
    drivers."""
    return _witness_set(flip, swap, tau, X, _eta(A_inv[None], flip[None], swap[None])[0])


def synthesize_operators(bd: BlockDiagonalization) -> SymmetryOperators:
    """Build the full witness set for a paired spectrum, classified at the
    default tolerances.

    Raises :class:`PairingError` when the pairing test fails.
    """
    spectra = BlockSpectra.of([bd.table])
    labelings, shift = label_block(spectra)
    (detail,) = _pairing_block(labelings, spectra)
    if detail is not None:
        raise PairingError(detail)
    stacks = synthesize_stack(bd.A[None], bd.A_inv[None], np.array([bd.real]), spectra, shift)
    return _operators(stacks, 0)


def synthesize_stack(A, A_inv, real, spectra: BlockSpectra, shift) -> _WitnessStacks:
    """:func:`synthesize_operators` for the decompositions of one dimension
    whose bases and inverses are the stacks ``A`` and ``A_inv``, whose
    realness is ``real``, and whose spectra pass the pairing test, with
    each cluster's ``shift`` to its partner from :func:`label_block`: the
    maps of S and C0 of every row from one :func:`_permutations` call, and
    tau, eta and X each as one gather of columns by a map and one stacked
    product, X none in a block of real rows.  Returns the maps and stacks
    alone; a row's :class:`SymmetryOperators`, with its dense
    permutation-level matrices, is built only where one is handed out.

    For a real H, X is the conjugation exactly: it commutes with H and
    squares to 1 whatever the basis.  When in addition ``conj(A) == A C0``
    holds bit for bit, tau and eta are real in exact arithmetic, and they
    are stored real: their imaginary parts are product rounding."""
    flip, swap = _permutations(spectra, shift)
    tau, eta = _tau(A_inv, flip), _eta(A_inv, flip, swap)
    # the matrix part of X = A X0 inv(A) is A (S C0 S) conj(inv(A)), and I
    # on a real row: a block of real rows forms no product
    if real.all():
        X = np.empty(A.shape, dtype=complex)
    else:
        X = _gather(A, _compose(flip, _compose(swap, flip))) @ np.conj(A_inv)
    if real.any():
        X[real] = np.eye(A.shape[-1])
        exact = real & (np.conj(A) == _gather(A, swap)).all(axis=(1, 2))
        tau.imag[exact] = eta.imag[exact] = 0.0
    return _WitnessStacks(flip, swap, tau, X, eta)
