"""Finite truncation of the two-band model H = (Lambda K - 2 w^2 sigma3)/(2w).

``Lambda`` is diagonal with strictly increasing, positive, finite
eigenvalues ``lambda_1 < ... < lambda_L`` and ``w`` (written ``varpi``) is
a positive, finite parameter.  The basis is spin-major: slot ``+`` of
level ``l`` is column ``l`` and slot ``-`` is column ``L + l`` (0-based),
so the Hamiltonian is the real block matrix

    H = [[Lambda - 2 w^2, Lambda], [-Lambda, -Lambda + 2 w^2]] / (2 w)

with spectrum ``{+-sqrt(w^2 - lambda_l)}`` and ``H^+ sigma3 = sigma3 H``
exactly.  Branch convention, frozen: ``E_l = i sqrt(lambda_l - w^2)``
(positive imaginary part) when ``lambda_l > w^2``, so the ``+`` slot always
carries the non-negative-imaginary eigenvalue.

Exceptional points sit at ``w = sqrt(lambda_l)``, where the level-``l``
pair coalesces into a length-2 chain.  Each closed form takes only the
spec and holds in all three spectral regimes and at the exceptional
points.  Every matrix among them is a per-level 2x2 block formula, placed
on the slots ``(l, L + l)`` by one index rule, with the coalesced level's
block swapped in at an exceptional point.  The module holds only what the
paper gives explicitly: :func:`closed_form_basis`, the Jordan basis with
its inverse; :func:`closed_form_H0`; the chain flip S and the pair swap
C0, as index maps that swap or fix the two slots of each level;
:func:`closed_form_tau`; and :func:`closed_form_X`.  The other witnesses
(``tau0``, ``eta0``, ``X0`` and ``eta``) come from the two maps and inv(A)
by the derivation that :mod:`pseudospec.symmetry` applies to every
decomposition.
The witness ``X`` obtained by lifting ``X0`` through the Jordan basis
collapses to plain componentwise conjugation in every regime (the model is
a real matrix), while ``X0 = S C0 S`` itself keeps the regime-dependent
piecewise form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOp, conjugation
from .blockdiag import BlockDiagonalization, from_chains
from .symmetry import SymmetryOperators, build_tau, operators_from

EP_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    lambdas: tuple[float, ...]
    varpi: float

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        if len(lams) == 0:
            raise ValueError("need at least one Lambda eigenvalue")
        if not all(0 < a < b for a, b in zip(lams, lams[1:] + (np.inf,))):  # also refuses NaN
            raise ValueError("Lambda eigenvalues must be finite, positive and strictly increasing")
        if not 0 < self.varpi < np.inf:
            raise ValueError("varpi must be positive and finite")
        object.__setattr__(self, "lambdas", lams)

    @property
    def L(self) -> int:
        return len(self.lambdas)


def energies(spec: ModelSpec) -> np.ndarray:
    """The ``+`` branch eigenvalues ``E_l``; the spectrum is ``{+-E_l}``."""
    w2 = spec.varpi**2
    return np.array(
        [np.sqrt(w2 - l) if w2 >= l else 1j * np.sqrt(l - w2) for l in spec.lambdas]
    )


def build_H(spec: ModelSpec) -> np.ndarray:
    return build_H_stack(spec.lambdas, np.array([spec.varpi]))[0]


def build_H_stack(lambdas, varpis: np.ndarray) -> np.ndarray:
    """:func:`build_H` of ``ModelSpec(lambdas, w)`` for each ``w`` of the
    1-d array ``varpis``, as one (m, 2L, 2L) stack."""
    Lam = np.broadcast_to(np.diag(lambdas).astype(complex), (len(varpis),) + (len(lambdas),) * 2)
    shift = (2 * varpis**2)[:, None, None] * np.eye(len(lambdas))
    return np.block([[Lam - shift, Lam], [-Lam, -Lam + shift]]) / (2 * varpis)[:, None, None]


def exceptional_set(spec: ModelSpec) -> np.ndarray:
    return np.sqrt(np.asarray(spec.lambdas))


def exceptional_index(spec: ModelSpec) -> int | None:
    """0-based level whose pair coalesces at this varpi, or None."""
    j = int(exceptional_levels(spec.lambdas, np.array([spec.varpi]))[0])
    return j if j >= 0 else None


def exceptional_levels(lambdas, varpis: np.ndarray) -> np.ndarray:
    """For each ``w`` of the 1-d array ``varpis``, the 0-based level of
    ``lambdas`` whose pair coalesces at ``w``, or -1."""
    gaps = np.abs(varpis[:, None] - np.sqrt(np.asarray(lambdas)))
    j = gaps.argmin(axis=1)
    return np.where(gaps[np.arange(len(j)), j] <= EP_MATCH_TOL, j, -1)


def is_exceptional(spec: ModelSpec) -> bool:
    return exceptional_index(spec) is not None


def real_pair_count(spec: ModelSpec) -> int:
    """Number m of strictly real eigenvalue pairs away from the
    exceptional set: m = #{l : lambda_l < varpi^2}."""
    return int(sum(1 for l in spec.lambdas if l < spec.varpi**2))


def _place(spec: ModelSpec, blocks, coalesced) -> np.ndarray:
    """The spin-major 2L x 2L matrix with the 2x2 block of level l on the
    slots (l, L + l): the one index rule of every closed form.  ``blocks``
    holds the four entries of the blocks, each a scalar or one value per
    level, and at an exceptional point ``coalesced(sqrt(lambda_l))`` is the
    block of the coalesced level l instead."""
    L, star = spec.L, exceptional_index(spec)
    slot = np.arange(2 * L).reshape(2, L)
    M = np.zeros((2 * L, 2 * L), dtype=complex)
    for i, j in np.ndindex(2, 2):
        M[slot[i], slot[j]] = blocks[i][j]
    if star is not None:
        M[np.ix_(slot[:, star], slot[:, star])] = coalesced(np.sqrt(spec.lambdas[star]))
    return M


def _eigenvector_blocks(r) -> list[list]:
    """``[[1 - r, 1 + r], [1 + r, 1 - r]] / 2`` for each level's r."""
    a, b = (1 - r) / 2, (1 + r) / 2
    return [[a, b], [b, a]]


def closed_form_basis(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form Jordan basis A and its inverse, level by level, in
    every regime and at the exceptional points.

    A level off the exceptional set carries the eigenvector block
    ``[[1 - r, 1 + r], [1 + r, 1 - r]] / 2`` with ``r = E/w`` in A and
    ``r = w/E`` in inv(A).  At ``varpi = sqrt(lambda_l)``, where that block
    degenerates, the coalesced level carries the chain block ``[[1, -2/s],
    [1, 0]] / 2`` in A and ``[[0, 2], [-s, s]]`` in inv(A), with ``s =
    sqrt(lambda_l)``.
    """
    E, w = energies(spec), spec.varpi
    # E can be 0 only at a coalesced level, whose block _place replaces
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = _eigenvector_blocks(w / E)
    return (_place(spec, _eigenvector_blocks(E / w), lambda s: [[0.5, -1.0 / s], [0.5, 0.0]]),
            _place(spec, inverse, lambda s: [[0.0, 2.0], [-s, s]]))


def closed_form_H0(spec: ModelSpec) -> np.ndarray:
    """Block-Jordan form in the spin-major layout: diag(E, -E) per level,
    a nilpotent 2x2 block at a coalesced level."""
    E = energies(spec)
    return _place(spec, [[E, 0.0], [0.0, -E]], lambda s: [[0.0, 1.0], [0.0, 0.0]])


def closed_form_tau(spec: ModelSpec) -> AntilinearOp:
    """Closed-form antilinear Hermitian witness of ``H^+ = tau H inv(tau)``.

    Away from the exceptional set the matrix part is the real symmetric
    ``inv(A)^2`` with per-level blocks
    ``[[1 + w^2/E^2, 1 - w^2/E^2], [1 - w^2/E^2, 1 + w^2/E^2]] / 2``;
    at ``varpi = sqrt(lambda_l)`` the coalesced level instead carries
    ``-2 sqrt(lambda_l) [[0, 1], [1, -2]]``.
    """
    w2 = spec.varpi**2
    # w2 - lambda_l = E_l^2 can be 0 only at a coalesced level, as in closed_form_basis
    with np.errstate(divide="ignore"):
        blocks = _eigenvector_blocks(-w2 / (w2 - np.array(spec.lambdas)))
    return AntilinearOp(_place(spec, blocks, lambda s: [[0.0, -2 * s], [-2 * s, 4 * s]]))


def closed_form_X0(spec: ModelSpec) -> AntilinearOp:
    """Piecewise block-basis involution commuting with ``H0``: identity
    conjugation on levels with real (or coalesced) eigenvalues, a
    sigma1 swap with conjugation on levels carrying an imaginary pair.
    It is ``S C0 S``, as :func:`closed_form_operators` derives it."""
    return closed_form_operators(spec).X0


def closed_form_X(spec: ModelSpec) -> AntilinearOp:
    """The commuting involution for ``H`` itself, i.e. the lift of ``X0``
    through the Jordan basis.

    The lift evaluates to plain componentwise conjugation in every regime
    and at every exceptional point: on real-pair levels the eigenvector
    block is real, and on imaginary-pair levels the two eigenvectors are
    componentwise conjugates, so ``A X0 conj(inv(A)) = I`` block by block.
    Consistent with ``H`` being a real matrix.
    """
    return conjugation(2 * spec.L)


def closed_form_operators(spec: ModelSpec) -> SymmetryOperators:
    """The full closed-form witness set, valid in all regimes including
    exceptional points.  S and C0 are index maps of the slots: S flips the
    chain of the coalesced level, swapping its two slots, and fixes every
    other slot; C0 fixes the levels with a real or coalesced pair and swaps
    the two slots of a level with an imaginary pair.  The rest follows from
    them, :func:`closed_form_basis`, :func:`closed_form_tau` and
    :func:`closed_form_X` by :func:`~pseudospec.symmetry.operators_from`."""
    slot = np.arange(2 * spec.L)
    level, other = slot % spec.L, np.roll(slot, spec.L)  # other pairs slot l with slot L + l
    star = exceptional_levels(spec.lambdas, np.array([spec.varpi]))[0]
    imaginary = (np.array(spec.lambdas) >= spec.varpi**2)[level] & (level != star)
    return operators_from(np.where(level == star, other, slot), np.where(imaginary, other, slot),
                          closed_form_basis(spec)[1], closed_form_tau(spec), closed_form_X(spec))


def closed_form_block_diagonalization(spec: ModelSpec) -> BlockDiagonalization:
    """BlockDiagonalization built from the closed-form Jordan basis, with
    clusters in the canonical (Re, Im) order so it is interchangeable with
    the generic pipeline's output up to the chain gauge."""
    star = exceptional_index(spec)
    A_eps = closed_form_basis(spec)[0]
    E = energies(spec)
    L = spec.L

    entries = []  # (eigenvalue, chain columns in the spin-major basis)
    for l in range(L):
        if l == star:
            entries.append((0.0 + 0.0j, [A_eps[:, l], A_eps[:, L + l]]))
        else:
            entries.append((complex(E[l]), [A_eps[:, l]]))
            entries.append((complex(-E[l]), [A_eps[:, L + l]]))
    entries.sort(key=lambda t: (-len(t[1]), 0))  # chains first within ties below
    entries.sort(key=lambda t: (t[0].real, t[0].imag))

    return from_chains(build_H(spec), [E for E, _ in entries], [[chain] for _, chain in entries])


def reference_gauge_tau(spec: ModelSpec) -> AntilinearOp:
    """tau synthesized by the generic construction from the closed-form
    Jordan basis; matches :func:`closed_form_tau` entrywise."""
    return build_tau(closed_form_block_diagonalization(spec))
