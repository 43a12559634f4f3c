"""Dynamical two-level formulation of 1-d real-potential scattering.

At wavenumber ``k`` and potential value ``v(x)`` the effective Hamiltonian

    H(x) = v(x)/(2k) * [[1, exp(-2ikx)], [-exp(2ikx), -1]]

is traceless and nilpotent; the transfer matrix of the potential is the
full-line evolution operator of ``i dU/dx = H(x) U``.  This module builds
``H(x)``, one point or a whole grid per call, and integrates the transfer
matrix with a fixed-step classical fourth-order scheme.  A sweep is one
integration whose step grid has every sample point as a node, so it costs
O(steps + samples) steps rather than one integration per sample.  For a
rectangular barrier the module also gives the exact transfer matrix, the
oracle for the integrator, and it carries the closed-form symmetry
witnesses of this family for cross-checking the generic pipeline.

Closed forms, in the gauge whose Jordan basis is
``A = exp(-ikx sigma3) [[1, 1], [-1, 0]]`` (chain head ``(1, -1)^T``):

    S = eta0 = sigma1,   C0 = I,   tau0 = sigma1 . conj,   X0 = conj,
    X  = exp(-2ikx sigma3) . conj,
    tau = [[0, -1], [-1, -2 exp(2ikx)]] . conj

Here ``tau = inv(A)^+ tau0 inv(A)``, whose matrix part is
``conj(inv(A)^T sigma1 inv(A))``; it is symmetric (Hermitian) but not an
involution, as a witness of this kind need not be.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import AntilinearOp, conjugation
from .blockdiag import BlockDiagonalization, block_diagonalize, from_chains
from .linalg import as_matrix, inverse
from .symmetry import SymmetryOperators, synthesize_operators

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]])

#: integrator steps whose increments one numpy call forms; bounds the
#: scratch memory of an integration for any step count
BLOCK_STEPS = 1024


@dataclass(frozen=True)
class RectangularBarrier:
    v0: float
    x_start: float
    x_end: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.v0, self.x_start, self.x_end])):
            raise ValueError("rectangular barrier needs finite v0, x_start and x_end")
        if not self.x_start < self.x_end:
            raise ValueError("rectangular barrier needs x_start < x_end")

    def value(self, x):
        """v at x, elementwise for an array x."""
        return np.where((self.x_start <= x) & (x <= self.x_end), self.v0, 0.0)


@dataclass(frozen=True)
class SampledPotential:
    """Tabulated potential; linear interpolation between samples, error
    outside the grid."""

    xs: tuple[float, ...]
    vs: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.size != vs.size or xs.size < 2:
            raise ValueError("sampled potential needs matching x and v grids of length >= 2")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("sampled potential needs finite x and v values")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("sample grid must be strictly increasing in x")
        object.__setattr__(self, "xs", tuple(float(x) for x in xs))
        object.__setattr__(self, "vs", tuple(float(v) for v in vs))

    def value(self, x):
        """v at x, elementwise for an array x; every x must lie on the grid."""
        outside = np.asarray(x)[(x < self.xs[0]) | (x > self.xs[-1])]
        if outside.size:
            raise ValueError(
                f"x={outside.flat[0]} is outside the sampled grid [{self.xs[0]}, {self.xs[-1]}]"
            )
        return np.interp(x, self.xs, self.vs)


@dataclass(frozen=True)
class PotentialSpec:
    potential: RectangularBarrier | SampledPotential
    k: float

    def __post_init__(self):
        if not 0 < self.k < np.inf:
            raise ValueError("wavenumber k must be positive and finite")


@dataclass(frozen=True)
class TransferResult:
    """U and its drift |det U - 1| at x_plus after ``steps`` integrator
    steps, and both at each sample point the integration was asked for."""

    U: np.ndarray
    det_drift: float
    steps: int
    sample_U: np.ndarray
    sample_drift: np.ndarray


def hamiltonian(x, k: float, v) -> np.ndarray:
    """The traceless two-level Hamiltonian at position x.

    Array-valued x and v give one 2x2 block per entry of their broadcast,
    bit for bit equal to the blocks of separate scalar calls.
    """
    if not k > 0:
        raise ValueError("wavenumber k must be positive")
    u = np.exp(-2j * k * np.asarray(x, dtype=float))
    M = np.empty(u.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = 1.0
    M[..., 0, 1] = u
    M[..., 1, 0] = -1.0 / u
    M[..., 1, 1] = -1.0
    return (np.asarray(v, dtype=float) / (2.0 * k))[..., None, None] * M


def hamiltonian_at(x, spec: PotentialSpec) -> np.ndarray:
    return hamiltonian(x, spec.k, spec.potential.value(x))


def _rk4_increments(spec: PotentialSpec, x0: np.ndarray, h: float) -> np.ndarray:
    """The classical RK4 step from each x0 as U <- U + Delta U.

    The equation is linear, so each stage is a matrix K_i times U and the
    step's increment is the 2x2 matrix Delta = (h/6)(K1 + 2 K2 + 2 K3 + K4).
    H comes from one call on the stage points of every step.
    """
    m = x0.size
    xs = np.concatenate((x0, x0 + h / 2, x0 + h))
    A = -1j * hamiltonian(xs, spec.k, spec.potential.value(xs))
    A1, A2, A3 = A[:m], A[m:2 * m], A[2 * m:]
    K2 = A2 + (h / 2) * (A2 @ A1)
    K3 = A2 + (h / 2) * (A2 @ K2)
    K4 = A3 + h * (A3 @ K3)
    return (h / 6) * (A1 + 2 * K2 + 2 * K3 + K4)


def evolve_transfer(
    spec: PotentialSpec, x_minus: float, x_plus: float, steps: int, at=()
) -> TransferResult:
    """Integrate ``i dU/dx = H(x) U`` from x_minus to x_plus.

    Fixed-step classical fourth-order scheme; deterministic and clean for
    order-of-convergence checks.  The sample points ``at`` (nondecreasing,
    inside the range) are nodes of the step grid, and the result holds U at
    each of them: the stretch between consecutive nodes gets
    ``max(1, round(steps * length / (x_plus - x_minus)))`` equal steps, so a
    sweep is one integration of at most ``steps + len(at) + 1`` steps.
    Increments are formed BLOCK_STEPS steps per numpy call and applied as
    ``U <- U + Delta U``; forming ``I + Delta`` first would round away the
    small increment's low digits.  Since tr H = 0, det U = 1 is preserved
    up to the integrator's own O(h^4) drift, which is reported.  A step
    that straddles a jump of v, such as a barrier edge, is only first
    order.  Raises ``ValueError`` naming the first sample point, or
    x_plus, at which U is not finite.
    """
    if not x_minus < x_plus:
        raise ValueError("need x_minus < x_plus")
    if steps < 1:
        raise ValueError("need at least one step")
    nodes = np.concatenate(([x_minus], at, [x_plus]))
    if not np.all(np.diff(nodes) >= 0):
        raise ValueError("sample points must be nondecreasing inside [x_minus, x_plus]")
    total = x_plus - x_minus
    U = np.eye(2, dtype=complex)
    snapshots = []
    taken = 0
    for a, b in zip(nodes[:-1], nodes[1:]):
        if b > a:
            n = max(1, round(steps * (b - a) / total))
            h = (b - a) / n
            for start in range(0, n, BLOCK_STEPS):
                x0 = a + np.arange(start, min(n, start + BLOCK_STEPS)) * h
                for delta in _rk4_increments(spec, x0, h):
                    U = U + delta @ U
            taken += n
        snapshots.append(U)
    Us = np.array(snapshots)
    broken = np.flatnonzero(~np.isfinite(Us).all(axis=(1, 2)))
    if broken.size:
        raise ValueError(f"the transfer matrix is not finite at x = {float(nodes[broken[0] + 1])!r}")
    drift = np.abs(np.linalg.det(Us) - 1.0)
    return TransferResult(U, float(drift[-1]), taken, Us[:-1], drift[:-1])


def barrier_transfer(spec: PotentialSpec, x_minus: float, x: float) -> np.ndarray:
    """Exact transfer matrix U(x <- x_minus) of a rectangular barrier.

    Where v is constant, H(y) = D(y) N D(y)^-1 with D(y) = exp(-iky sigma3)
    and N = (v/2k)[[1, 1], [-1, -1]], so U = D(y1) exp(-iG(y1 - y0)) D(y0)^-1
    over [y0, y1] with G = N - k sigma3.  G^2 = (k^2 - v) I gives
    exp(-iGt) = cos(qt) I - i t sinc(qt) G with q = sqrt(k^2 - v), imaginary
    above the barrier top.  The inner D factors cancel at the barrier edges.
    """
    barrier = spec.potential
    if not isinstance(barrier, RectangularBarrier):
        raise TypeError("the closed-form transfer matrix needs a rectangular barrier")
    if not x_minus <= x:
        raise ValueError("need x_minus <= x")
    k = spec.k
    edges = np.clip([x_minus, barrier.x_start, barrier.x_end, x], x_minus, x)
    U = np.diag([np.exp(1j * k * x_minus), np.exp(-1j * k * x_minus)])
    for y0, y1, v in zip(edges[:-1], edges[1:], (0.0, barrier.v0, 0.0)):
        t = y1 - y0
        G = (v / (2.0 * k)) * np.array([[1.0, 1.0], [-1.0, -1.0]]) - k * SIGMA_3
        qt = np.sqrt(complex(k * k - v)) * t
        sinc = np.sin(qt) / qt if qt != 0 else 1.0
        U = (np.cos(qt) * np.eye(2) - 1j * t * sinc * G) @ U
    return np.diag([np.exp(-1j * k * x), np.exp(1j * k * x)]) @ U


def closed_form_jordan_basis(x: float, k: float, v: float = 1.0) -> np.ndarray:
    """Reference Jordan basis of H(x): columns are the eigenvector
    ``exp(-ikx sigma3) (1, -1)^T`` and the chain tail scaled so that
    ``H tail = head`` holds for the given v (the natural tail picks up the
    factor 2k/v)."""
    if v == 0.0:
        raise ValueError("the chain basis degenerates at v = 0")
    D = np.diag([np.exp(-1j * k * x), np.exp(1j * k * x)])
    F = np.array([[1.0, 1.0], [-1.0, 0.0]])
    return D @ F @ np.diag([1.0, 2.0 * k / v])


def closed_form_operators(x: float, k: float) -> SymmetryOperators:
    """The closed-form witness set of H(x), independent of v up to the
    real scale of tau."""
    u = np.exp(-2j * k * x)
    tau = np.array([[0.0, -1.0], [-1.0, -2.0 / u]])
    X = np.diag([u, 1.0 / u])
    A = closed_form_jordan_basis(x, k)
    Ainv = inverse(A)
    eta = Ainv.conj().T @ SIGMA_1 @ Ainv
    eta = (eta + eta.conj().T) / 2.0
    return SymmetryOperators(
        S=SIGMA_1.astype(complex),
        Theta=conjugation(2),
        tau0=AntilinearOp(SIGMA_1),
        tau=AntilinearOp(tau),
        C0=np.eye(2, dtype=complex),
        eta0=SIGMA_1.astype(complex),
        X0=conjugation(2),
        X=AntilinearOp(X),
        eta=eta,
    )


def pipeline_operators_reference_gauge(
    x: float, k: float, v: float = 1.0
) -> tuple[SymmetryOperators, BlockDiagonalization]:
    """Run the generic pipeline on H(x) and synthesize its witnesses in the
    reference chain gauge.

    The pipeline fixes chain scale and phase by its own frozen head rule,
    which differs from the reference gauge by a per-chain factor; entrywise
    comparison against the closed forms is only meaningful after mapping
    both sides to one gauge, fixed here on the reference side.  The pipeline
    run still owns the structure: the cluster table is checked and the
    reference basis is required to reproduce the pipeline's chain filtration
    before any operator is built from it.
    """
    H = hamiltonian(x, k, v)
    bd = block_diagonalize(H)
    table = bd.table
    if len(table.clusters) != 1 or table.clusters[0].p_list != (2,):
        raise RuntimeError(f"unexpected spectral table for H(x): {table.clusters}")
    if abs(table.clusters[0].value) > 1e-8:
        raise RuntimeError("cluster center strayed from zero")

    A_ref = closed_form_jordan_basis(x, k, v)
    head_pipe = bd.A[:, 0]
    head_ref = A_ref[:, 0] / np.linalg.norm(A_ref[:, 0])
    overlap = abs(np.vdot(head_ref, head_pipe))
    if abs(overlap - 1.0) > 1e-8:
        raise RuntimeError("pipeline chain head does not span the reference head ray")
    if np.linalg.norm(H @ A_ref - A_ref @ bd.H0) > 1e-10 * max(np.linalg.norm(H), 1.0):
        raise RuntimeError("reference basis fails the chain relations for this H")

    bd_ref = from_chains(H, [table.clusters[0].value], [[[A_ref[:, 0], A_ref[:, 1]]]])
    return synthesize_operators(bd_ref), bd_ref


def reflection_transmission(result: TransferResult) -> dict[str, complex]:
    """Reflection and transmission amplitudes read off the transfer matrix.

    Convention: for ``M`` mapping amplitude pairs ``(A+, A-)`` on the left
    to the right, left/right incidence gives ``T = det(M)/M22``,
    ``R_left = -M21/M22``, ``R_right = M12/M22``.  Provided as a
    convenience on top of the evolution machinery.
    """
    M = as_matrix(result.U)
    if abs(M[1, 1]) == 0.0:
        raise ValueError("transfer matrix has M22 = 0; amplitudes undefined")
    det = np.linalg.det(M)
    return {
        "T": complex(det / M[1, 1]),
        "R_left": complex(-M[1, 0] / M[1, 1]),
        "R_right": complex(M[0, 1] / M[1, 1]),
    }
