"""Jordan structure of dense complex matrices.

Given a square complex ``H`` this module computes eigenvalue clusters,
Jordan chains of generalized eigenvectors, the change of basis ``A`` with
``H = A H0 inv(A)``, the exactly block-Jordan ``H0``, and the biorthonormal
complement ``inv(A)^+``.

One eigensolve serves two purposes.  Its eigenvalues are clustered by one
rule: two join when they lie within ``tol |H|_F``, or when their first-order
perturbation discs overlap and one pseudospectral component holds both, so
a Jordan chain that rounding split is one cluster again (Edelman, Elmroth &
Kagstrom, SIAM J. Matrix Anal. Appl. 18, 1997).  Its eigenvectors are the
basis columns of every simple, well-separated cluster.  Every other cluster
runs the SVD rank staircase of Kagstrom & Ruhe (ACM TOMS 6, 1980) on
``H - E``.  With no close clusters a decomposition therefore costs O(n^3):
one eigensolve, one inversion of the eigenvectors, and one SVD plus one
inversion of ``A``, whose inverse and condition number travel with the
result.

Canonical ordering, frozen so downstream operators are reproducible:

* clusters are sorted by ``(Re E, Im E)``;
* chains within a cluster by descending length, ties broken by the index of
  the largest-magnitude entry of the chain head;
* within a chain the label ``i`` runs from the eigenvector (head, ``i = 1``)
  up the chain, so that ``(H - E) v_i = v_{i-1}``.

Each chain is rescaled as a whole so that its head has unit norm with the
first significant component real positive.  That fixes the per-chain scale
and phase; the residual in-chain mixing freedom is resolved
deterministically by the top-down construction below.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EPS,
    SingularMatrixError,
    as_matrix,
    eigensystem,
    fro,
    inverse_and_cond,
)

DEFAULT_TOL = 1e-8
DEFAULT_COND_LIMIT = 1e12

#: residual norm below which a candidate chain top is considered linearly
#: dependent on the structure already built (a staircase inconsistency)
_INDEPENDENCE_CUTOFF = 1e-8


class JordanStructureError(RuntimeError):
    """Rank staircase or chain construction is inconsistent at tolerance."""


class IllConditionedBasisError(RuntimeError):
    """The Jordan basis is too ill-conditioned to certify anything."""


@dataclass(frozen=True)
class EigenCluster:
    """One distinct eigenvalue with its Jordan data.

    ``p_list`` holds the Jordan dimensions (chain lengths), sorted
    descending; its length is the geometric multiplicity and its sum the
    algebraic multiplicity.
    """

    value: complex
    p_list: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.p_list)

    @property
    def algebraic(self) -> int:
        return sum(self.p_list)


@dataclass(frozen=True)
class SpectralTable:
    clusters: tuple[EigenCluster, ...]

    @property
    def dimension(self) -> int:
        return sum(c.algebraic for c in self.clusters)

    def labels(self) -> list[tuple[int, int, int]]:
        """Canonical (cluster, chain, index) label of every basis slot."""
        out = []
        for n, c in enumerate(self.clusters):
            for a, p in enumerate(c.p_list):
                out.extend((n, a, i) for i in range(1, p + 1))
        return out


@dataclass(frozen=True)
class ClusteredSpectrum:
    """Eigenvalue clusters before any Jordan analysis."""

    centers: tuple[complex, ...]
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class BlockDiagonalization:
    """The triple (A, H0, table); columns of A are the Jordan basis in the
    canonical label order of :meth:`SpectralTable.labels` and H0 is exactly
    block-Jordan.

    Built only by :func:`from_chains`, which inverts A once: ``A_inv`` and
    ``cond_A`` come from that one SVD and inversion.
    """

    A: np.ndarray
    H0: np.ndarray
    table: SpectralTable
    recon_residual: float  # |H - A H0 inv(A)| / |H|
    A_inv: np.ndarray = field(repr=False)
    cond_A: float


def cluster_eigenvalues(raw, tol: float, H, vectors) -> ClusteredSpectrum:
    """Union-find clustering of the raw eigenvalues of ``H``, whose unit
    eigenvector columns ``V`` are ``vectors``.

    Two values join a cluster when they are within the absolute tolerance
    ``tol`` of each other, or when their first-order perturbation discs
    overlap and ``sigma_min(H - zI) <= sqrt(n eps) |H|_F`` at their midpoint
    ``z`` confirms that one component of the pseudospectrum holds both
    (Trefethen & Embree, Spectra and Pseudospectra, 2005).  A disc has
    radius ``kappa_k n eps |H|_F``, with ``kappa_k`` the norm of row k of
    ``inv(V)``: the eigenvalue condition number.  Overlapping pairs are
    tried nearest first, one SVD each, and a pair already in one cluster is
    skipped, as is a midpoint that a rejected SVD nearby already settles:
    ``sigma_min(H - zI)`` is 1-Lipschitz in ``z``.  Cluster centers are the
    member means.  Input is sorted lexicographically by (Re, Im) first, so
    the result does not depend on the eigensolver's output order.
    """
    vals = np.asarray(raw, dtype=complex).ravel()
    if vals.size == 0:
        raise ValueError("cannot cluster an empty eigenvalue list")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    n = vals.size

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)

    dist = np.abs(vals[:, None] - vals[None, :]).ravel()  # pair (i, j) at i * n + j
    for k in np.flatnonzero(dist <= tol).tolist():
        join(*divmod(k, n))
    scale = fro(H)
    try:
        Vinv = np.linalg.inv(vectors)[order]
    except np.linalg.LinAlgError:
        # exactly repeated eigenvectors come with exactly repeated values,
        # which the floor has joined; unbounded discs would send every pair
        # to a midpoint test that a third eigenvalue there can fool
        Vinv = np.zeros((n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.linalg.norm(Vinv, axis=1) * (n * EPS * scale)
        overlap = np.flatnonzero(dist <= (r[:, None] + r[None, :]).ravel())
    cutoff = np.sqrt(n * EPS) * scale
    eye = np.eye(n)
    rejected = []  # (z, m): sigma_min(H - z'I) > cutoff wherever |z' - z| < m
    for k in overlap[np.argsort(dist[overlap], kind="stable")].tolist():
        i, j = divmod(k, n)
        if i < j and find(i) != find(j):
            z = (vals[i] + vals[j]) / 2
            if any(abs(z - z0) < m for z0, m in rejected):
                continue
            s_min = np.linalg.svd(H - z * eye, compute_uv=False)[-1]
            if s_min <= cutoff:
                join(i, j)
            else:
                # sigma_min is 1-Lipschitz in z; n eps |H|_F allows for rounding
                rejected.append((z, s_min - cutoff - n * EPS * scale))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    centers = []
    counts = []
    for root in groups:
        members = vals[groups[root]]
        centers.append(complex(np.mean(members)))
        counts.append(len(members))
    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    return ClusteredSpectrum(tuple(centers[i] for i in order), tuple(counts[i] for i in order))


def _kernel_staircase(N: np.ndarray, tol: float, parent_scale: float):
    """Kernel bases and dimensions of N, N^2, ... until they stabilize.

    Rank decisions on the l-th power use an absolute singular value cutoff
    built from the effective scale ``s = max(smax(N), floor)`` with
    ``floor = 64 n eps * parent_scale``: the true scale of N^l decays like
    a power while float noise stays near ``n eps * parent_scale * s^(l-1)``,
    so a threshold relative to ``smax(N^l)`` alone would misread exactly
    nilpotent powers, and one without the parent floor would misread a
    fully degenerate cluster, where N itself is pure round-off.

    Returns the kernels, their dimensions, the power at which they
    stabilize, and ``s_eff``.
    """
    n = N.shape[0]
    svd_N = np.linalg.svd(N)
    floor = 64 * n * EPS * parent_scale
    s_eff = max(float(svd_N[1][0]), floor)
    kernels = {0: np.zeros((n, 0), dtype=complex)}
    dims = [0]
    if s_eff == 0.0:
        kernels[1] = np.eye(n, dtype=complex)
        return kernels, [0, n], 1, s_eff

    P = N
    l = 0
    while True:
        l += 1
        if l > 1:
            P = P @ N
        cutoff = max((tol * s_eff) ** l, floor * s_eff ** (l - 1))
        u, s, vh = svd_N if l == 1 else np.linalg.svd(P)
        k = int(np.count_nonzero(s <= cutoff))
        if l == 1 and k == 0:
            raise JordanStructureError(
                "no numerical kernel at the given cluster center; "
                "the center is not an eigenvalue at this tolerance"
            )
        kernels[l] = vh[n - k:, :].conj().T if k else np.zeros((n, 0), dtype=complex)
        dims.append(k)
        if k == dims[l - 1]:
            return kernels, dims, l - 1, s_eff
        if l > n:
            raise JordanStructureError("kernel staircase failed to stabilize")


def _canonical_gauge(chain: list[np.ndarray]) -> list[np.ndarray]:
    """Rescale a chain as a whole so that its head has unit norm with the
    first significant component real positive (the frozen head rule)."""
    head = chain[0]
    scale = 1.0 / float(np.linalg.norm(head))
    mags = np.abs(head)
    sig = np.nonzero(mags > 1e-12 * mags.max())[0][0]
    pivot = head[sig] * scale
    scale *= np.conj(pivot) / abs(pivot)
    return [scale * v for v in chain]


def jordan_chains(
    H, center, tol: float = DEFAULT_TOL, *, _parent_scale: float | None = None
) -> list[list[np.ndarray]]:
    """Jordan chains of ``H`` at an eigenvalue cluster center.

    Returns a list of chains, each chain a list ``[v_1, ..., v_p]`` with
    ``(H - E) v_1 ~ 0`` and ``(H - E) v_i = v_{i-1}`` exactly by
    construction for ``i >= 2``.  Chains are built top-down: a basis of
    ``ker N^l`` modulo ``ker N^{l-1}`` and the already-descended tops is
    picked at the largest power first, then descendants are generated by
    applying ``N``.  ``_parent_scale`` is ``|H|_2`` when the caller already
    has it, as :func:`block_diagonalize` does for all its clusters.
    """
    A = as_matrix(H, square=True)
    n = A.shape[0]
    N = A - complex(center) * np.eye(n)
    parent_scale = float(np.linalg.norm(A, 2)) if _parent_scale is None else _parent_scale
    kernels, dims, q, s_eff = _kernel_staircase(N, tol, parent_scale)

    increments = [dims[l] - dims[l - 1] for l in range(1, q + 1)]
    for l in range(1, q):
        if increments[l] > increments[l - 1]:
            raise JordanStructureError(
                f"kernel dimensions are inconsistent at power {l + 1}: "
                f"increment grew from {increments[l - 1]} to {increments[l]}"
            )

    # top-down selection of chain tops
    tops: list[tuple[int, np.ndarray]] = []
    for l in range(q, 0, -1):
        want = increments[l - 1] - (increments[l] if l < q else 0)
        if want == 0:
            continue
        blocks = [kernels[l - 1]]
        for p, t in tops:
            v = t
            for _ in range(p - l):
                v = N @ v
            blocks.append(v[:, None])
        existing = np.hstack(blocks)
        Q = None
        if existing.shape[1]:
            Q, _ = np.linalg.qr(existing)
        cands = kernels[l].copy()
        for _ in range(want):
            resid = cands if Q is None else cands - Q @ (Q.conj().T @ cands)
            norms = np.linalg.norm(resid, axis=0)
            j = int(np.argmax(norms))
            if norms[j] < _INDEPENDENCE_CUTOFF:
                raise JordanStructureError(
                    f"could not find an independent chain top at power {l}"
                )
            new = resid[:, j] / norms[j]
            tops.append((l, new))
            Q = new[:, None] if Q is None else np.hstack([Q, new[:, None]])

    floor = 64 * n * EPS * parent_scale
    head_cutoff = 10 * max(tol * s_eff, floor)  # matches the kernel cutoff at power 1
    chains: list[list[np.ndarray]] = []
    for p, t in tops:
        chain = [t]
        for _ in range(p - 1):
            chain.append(N @ chain[-1])
        chain.reverse()  # head first
        head = chain[0]
        hnorm = float(np.linalg.norm(head))
        if hnorm == 0.0 or float(np.linalg.norm(N @ head)) > head_cutoff:
            raise JordanStructureError("chain head failed the eigenvector residual check")
        chains.append(_canonical_gauge(chain))

    chains.sort(key=lambda c: (-len(c), int(np.argmax(np.abs(c[0])))))
    return chains


def _simple_heads(
    H: np.ndarray, values: np.ndarray, vectors: np.ndarray, skel: ClusteredSpectrum,
    tol: float, scale: float,
) -> dict[int, np.ndarray]:
    """Canonical eigenvectors of the simple, well-separated clusters, keyed
    by cluster index and read straight from the eigensolve.

    A cluster qualifies when its multiplicity is 1 and its nearest other
    eigenvalue is farther than ``tol * (|H|_F + |E|)``.  A Jordan chain
    that rounding split into nearby simple eigenvalues does not qualify:
    :func:`cluster_eigenvalues` has merged it back into one cluster.  The
    vector must also pass the staircase's eigenvector-residual check,
    ``|(H - E) v| <= 10 max(tol |H - E|_2, 64 n eps |H|_2)``, evaluated
    with the lower bounds ``rho(H - E)`` and ``|H|_F / sqrt(n)`` in place
    of the 2-norms, so its cutoff is never looser.
    """
    singles = [k for k, m in enumerate(skel.multiplicities) if m == 1]
    if not singles or not np.isfinite(scale):
        return {}
    n = values.size
    m = len(singles)
    centers = np.array([skel.centers[k] for k in singles])
    dist = np.abs(centers[:, None] - values[None, :])
    idx = np.argmin(dist, axis=1)  # a simple cluster's center is its one member
    rho = dist.max(axis=1)  # spectral radius of H - E
    dist[np.arange(m), idx] = np.inf
    ok = dist.min(axis=1) > tol * (scale + np.abs(centers))
    V = vectors[:, idx]
    resid = np.linalg.norm(H @ V - V * centers, axis=0)
    floor = 64 * n * EPS * scale / np.sqrt(n)
    ok &= resid <= 10 * np.maximum(tol * rho, floor)
    return {k: _canonical_gauge([V[:, j]])[0] for j, k in enumerate(singles) if ok[j]}


def _check_condition(cA: float, cond_limit: float) -> None:
    if not np.isfinite(cA) or cA > cond_limit:
        raise IllConditionedBasisError(
            f"Jordan basis condition number {cA:.3e} exceeds limit {cond_limit:.1e}"
        )


def block_diagonalize(
    H,
    tol: float = DEFAULT_TOL,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> BlockDiagonalization:
    """Full Jordan decomposition ``H = A H0 inv(A)`` in canonical order.

    ``tol`` is relative to ``|H|_F`` and controls both the clustering floor
    and rank decisions; split Jordan chains merge through the disc rule of
    :func:`cluster_eigenvalues` at any ``tol``.  Simple, well-separated
    clusters take their basis vector from the eigensolve; the rest run
    :func:`jordan_chains`.  Raises :class:`JordanStructureError` when the
    staircase is inconsistent (including a cluster whose chain census does
    not reproduce its eigenvalue count) and
    :class:`IllConditionedBasisError` when ``cond(A)`` exceeds
    ``cond_limit``.
    """
    A_in = as_matrix(H, square=True)
    n = A_in.shape[0]
    if n == 0:
        raise ValueError("cannot decompose an empty matrix")
    scale = fro(A_in)
    values, vectors = eigensystem(A_in)
    skel = cluster_eigenvalues(values, tol * scale if scale else tol, A_in, vectors)
    heads = _simple_heads(A_in, values, vectors, skel, tol, scale)

    parent_scale = None
    chain_sets = []
    for k, (center, count) in enumerate(zip(skel.centers, skel.multiplicities)):
        if k in heads:
            chains = [[heads[k]]]
        else:
            if parent_scale is None:
                parent_scale = float(np.linalg.norm(A_in, 2))
            chains = jordan_chains(A_in, center, tol, _parent_scale=parent_scale)
            alg = sum(len(c) for c in chains)
            if alg != count:
                raise JordanStructureError(
                    f"cluster at {center}: staircase algebraic multiplicity {alg} "
                    f"disagrees with the clustered eigenvalue count {count}"
                )
        chain_sets.append(chains)

    try:
        bd = from_chains(A_in, skel.centers, chain_sets)
    except SingularMatrixError as exc:
        _check_condition(exc.cond_estimate, cond_limit)
        raise
    _check_condition(bd.cond_A, cond_limit)
    return bd


def from_chains(H: np.ndarray, centers, chain_sets) -> BlockDiagonalization:
    """Assemble the triple (A, H0, table) from the Jordan chains of each
    cluster, given in canonical order: ``chain_sets[k]`` holds the chains
    at ``centers[k]``, each head first.

    The columns of A follow the labels of :meth:`SpectralTable.labels`, H0
    is the block-Jordan form those labels describe, A is inverted once, and
    the reconstruction residual is taken relative to ``|H|_F``.  Raises
    :class:`~pseudospec.linalg.SingularMatrixError` for a singular basis.
    """
    clusters = tuple(
        EigenCluster(E, tuple(len(c) for c in chains)) for E, chains in zip(centers, chain_sets)
    )
    table = SpectralTable(clusters)
    A = np.column_stack([v for chains in chain_sets for chain in chains for v in chain])
    H0 = np.zeros(A.shape, dtype=complex)
    for col, (n, _, i) in enumerate(table.labels()):
        H0[col, col] = table.clusters[n].value
        if i >= 2:
            H0[col - 1, col] = 1.0
    A_inv, cA = inverse_and_cond(A)
    scale = fro(H)
    recon = fro(H - A @ H0 @ A_inv) / (scale if scale else 1.0)
    return BlockDiagonalization(A, H0, table, recon, A_inv, cA)


def biorthonormal_complement(bd: BlockDiagonalization) -> np.ndarray:
    """Columns are the dual basis: ``inv(A)^+`` applied to the canonical
    basis, biorthonormal to the Jordan basis and complete."""
    return bd.A_inv.conj().T
