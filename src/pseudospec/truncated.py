"""Finite truncation of the two-band model H = (Lambda K - 2 w^2 sigma3)/(2w).

``Lambda`` is diagonal with strictly increasing positive eigenvalues
``lambda_1 < ... < lambda_L`` and ``w`` (written ``varpi``) is a positive
parameter.  The basis is spin-major: slot ``+`` of level ``l`` is column
``l`` and slot ``-`` is column ``L + l`` (0-based), so the Hamiltonian is
the real block matrix

    H = [[Lambda - 2 w^2, Lambda], [-Lambda, -Lambda + 2 w^2]] / (2 w)

with spectrum ``{+-sqrt(w^2 - lambda_l)}`` and ``H^+ sigma3 = sigma3 H``
exactly.  Branch convention, frozen: ``E_l = i sqrt(lambda_l - w^2)``
(positive imaginary part) when ``lambda_l > w^2``, so the ``+`` slot always
carries the non-negative-imaginary eigenvalue.

Exceptional points sit at ``w = sqrt(lambda_l)``, where the level-``l``
pair coalesces into a length-2 chain.  Each closed form takes only the
spec and holds in all three spectral regimes and at the exceptional
points: :func:`closed_form_basis` gives the Jordan basis with its inverse,
and the ``closed_form_*`` operators the full witness set.  The witness
``X`` obtained by lifting ``X0`` through the Jordan basis collapses to
plain componentwise conjugation in every regime (the model is a real
matrix), while ``X0`` itself keeps the regime-dependent piecewise form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOp, conjugation
from .blockdiag import BlockDiagonalization, from_chains
from .symmetry import SymmetryOperators, build_tau, build_tau0

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])

EP_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    lambdas: tuple[float, ...]
    varpi: float

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        if len(lams) == 0:
            raise ValueError("need at least one Lambda eigenvalue")
        if lams[0] <= 0 or any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("Lambda eigenvalues must be strictly increasing and positive")
        if not self.varpi > 0:
            raise ValueError("varpi must be positive")
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
    L = spec.L
    Lam = np.diag(spec.lambdas).astype(complex)
    I = np.eye(L)
    w = spec.varpi
    top = np.hstack([Lam - 2 * w**2 * I, Lam])
    bot = np.hstack([-Lam, -Lam + 2 * w**2 * I])
    return np.vstack([top, bot]) / (2 * w)


def exceptional_set(spec: ModelSpec) -> np.ndarray:
    return np.sqrt(np.asarray(spec.lambdas))


def exceptional_index(spec: ModelSpec) -> int | None:
    """0-based level whose pair coalesces at this varpi, or None."""
    gaps = np.abs(spec.varpi - exceptional_set(spec))
    j = int(np.argmin(gaps))
    return j if gaps[j] <= EP_MATCH_TOL else None


def is_exceptional(spec: ModelSpec) -> bool:
    return exceptional_index(spec) is not None


def real_pair_count(spec: ModelSpec) -> int:
    """Number m of strictly real eigenvalue pairs away from the
    exceptional set: m = #{l : lambda_l < varpi^2}."""
    return int(sum(1 for l in spec.lambdas if l < spec.varpi**2))


def _assemble(spec: ModelSpec, blocks) -> np.ndarray:
    """Place per-level 2x2 blocks into the spin-major 2L x 2L layout."""
    L = spec.L
    M = np.zeros((2 * L, 2 * L), dtype=complex)
    for l, B in enumerate(blocks):
        idx = (l, L + l)
        for i in range(2):
            for j in range(2):
                M[idx[i], idx[j]] = B[i][j]
    return M


def _eigenvector_block(r) -> list[list]:
    """``[[1 - r, 1 + r], [1 + r, 1 - r]] / 2``."""
    a, b = 1 - r, 1 + r
    return [[a / 2, b / 2], [b / 2, a / 2]]


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
    w = spec.varpi
    star = exceptional_index(spec)
    basis, inverse = [], []
    for l, E in enumerate(energies(spec)):
        if l == star:
            s = np.sqrt(spec.lambdas[l])
            basis.append([[0.5, -1.0 / s], [0.5, 0.0]])
            inverse.append([[0.0, 2.0], [-s, s]])
        else:
            basis.append(_eigenvector_block(E / w))
            inverse.append(_eigenvector_block(w / E))
    return _assemble(spec, basis), _assemble(spec, inverse)


def closed_form_H0(spec: ModelSpec) -> np.ndarray:
    """Block-Jordan form in the spin-major layout: diag(E, -E) per level,
    a nilpotent 2x2 block at a coalesced level."""
    star = exceptional_index(spec)
    blocks = []
    for l, E in enumerate(energies(spec)):
        if l == star:
            blocks.append([[0.0, 1.0], [0.0, 0.0]])
        else:
            blocks.append([[E, 0.0], [0.0, -E]])
    return _assemble(spec, blocks)


def closed_form_tau(spec: ModelSpec) -> AntilinearOp:
    """Closed-form antilinear Hermitian witness of ``H^+ = tau H inv(tau)``.

    Away from the exceptional set the matrix part is the real symmetric
    ``inv(A)^2`` with per-level blocks
    ``[[1 + w^2/E^2, 1 - w^2/E^2], [1 - w^2/E^2, 1 + w^2/E^2]] / 2``;
    at ``varpi = sqrt(lambda_l)`` the coalesced level instead carries
    ``-2 sqrt(lambda_l) [[0, 1], [1, -2]]``.
    """
    w2 = spec.varpi**2
    star = exceptional_index(spec)
    blocks = []
    for l, lam in enumerate(spec.lambdas):
        if l == star:
            s = np.sqrt(lam)
            blocks.append([[0.0, -2 * s], [-2 * s, 4 * s]])
        else:
            blocks.append(_eigenvector_block(-w2 / (w2 - lam)))  # w2 - lam = E_l^2
    return AntilinearOp(_assemble(spec, blocks))


def _real_class(spec: ModelSpec, l: int) -> bool:
    return spec.lambdas[l] < spec.varpi**2 or exceptional_index(spec) == l


def closed_form_X0(spec: ModelSpec) -> AntilinearOp:
    """Piecewise block-basis involution commuting with ``H0``: identity
    conjugation on levels with real (or coalesced) eigenvalues, a
    sigma1 swap with conjugation on levels carrying an imaginary pair."""
    blocks = [np.eye(2) if _real_class(spec, l) else SIGMA_1 for l in range(spec.L)]
    return AntilinearOp(_assemble(spec, blocks))


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
    exceptional points."""
    star = exceptional_index(spec)
    S_blocks = [SIGMA_1 if l == star else np.eye(2) for l in range(spec.L)]
    S = _assemble(spec, S_blocks)
    C_blocks = [np.eye(2) if _real_class(spec, l) else SIGMA_1 for l in range(spec.L)]
    C0 = _assemble(spec, C_blocks)
    eta0 = S @ C0
    Ainv = closed_form_basis(spec)[1]
    eta = Ainv.conj().T @ eta0 @ Ainv
    eta = (eta + eta.conj().T) / 2.0
    return SymmetryOperators(
        S=S,
        Theta=conjugation(2 * spec.L),
        tau0=AntilinearOp(S),
        tau=closed_form_tau(spec),
        C0=C0,
        eta0=eta0,
        X0=closed_form_X0(spec),
        X=closed_form_X(spec),
        eta=eta,
    )


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
    bd = closed_form_block_diagonalization(spec)
    return build_tau(bd, build_tau0(bd.table))
