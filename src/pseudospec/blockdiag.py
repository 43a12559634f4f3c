"""Jordan structure of dense complex matrices.

Given a square complex ``H`` this module computes eigenvalue clusters,
Jordan chains of generalized eigenvectors, the change of basis ``A`` with
``H = A H0 inv(A)``, the exactly block-Jordan ``H0``, and the biorthonormal
complement ``inv(A)^+``.

Matrices are decomposed a block of rows at a time (:func:`decompose_stack`),
and a block's spectral data are flat arrays, :class:`BlockSpectra`: every
cluster's center, size and number of chains, every chain's length, and the
clusters of each row.  H0 and the symmetry witnesses are index rules over
them.  A block's decomposition is a set of arrays, and a row's
:class:`SpectralTable` and :class:`BlockDiagonalization` are built only
where one is handed out.

One eigensolve serves two purposes.  Its eigenvalues are clustered by one
rule: two join when they lie within ``tol |H|_F``, or when their first-order
perturbation discs overlap and one pseudospectral component holds both, so
a Jordan chain that rounding split is one cluster again (Edelman, Elmroth &
Kagstrom, SIAM J. Matrix Anal. Appl. 18, 1997).  Its eigenvectors are the
basis columns of every simple cluster, one that the rule leaves with one
member, whose eigenvector passes the residual check.  Every other cluster
runs the SVD rank staircase of Kagstrom & Ruhe (ACM TOMS 6, 1980) on
``H - E``, which stops as soon as its kernel holds the cluster's
eigenvalue count: a cluster whose longest chain is q costs q SVDs, and a
QR only where descended chain links join a kernel basis, below the top
power.  With no close clusters a decomposition therefore costs O(n^3):
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
deterministically by the top-down construction below.  The rule runs in
array form, once per stack of heads: once per decomposed block for all its
simple heads and once per staircase cluster for its
chains.  It takes the pivot's modulus with ``np.hypot``, so a head gets
the same bits in any stack as alone.
"""
from __future__ import annotations

import cmath
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    EPS,
    EigensolveError,
    _check_tol,
    as_matrix,
    eigensystem_stack,
    fro,
    fro_rows,
    rows_of,
)

DEFAULT_TOL = 1e-8

#: condition number of the Jordan basis above which a decomposition is
#: refused with :class:`IllConditionedBasisError`
COND_LIMIT = 1e12

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

    def labels(self) -> list[tuple[int, int, int]]:
        """Canonical (cluster, chain, index) label of every basis slot."""
        return [(n, a, i) for n, c in enumerate(self.clusters)
                for a, p in enumerate(c.p_list) for i in range(1, p + 1)]


class BlockSpectra(NamedTuple):
    """The clusters and chains of the rows of a block as flat arrays, rows
    in order and each row in canonical order: every cluster's center, size
    (algebraic multiplicity) and number of chains, every chain's length, and
    the number of clusters of each row.  A row's :class:`SpectralTable` is
    built from them only when :meth:`tables` is asked for."""

    centers: np.ndarray
    sizes: np.ndarray
    chains: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, tables) -> BlockSpectra:
        clusters = [c for t in tables for c in t.clusters]
        return cls(np.array([c.value for c in clusters], dtype=complex),
                   *(np.array(a, dtype=np.intp) for a in (
                       [c.algebraic for c in clusters], [c.d for c in clusters],
                       [p for c in clusters for p in c.p_list], [len(t.clusters) for t in tables])))

    def take(self, keep: np.ndarray) -> BlockSpectra:
        """The rows that the boolean mask ``keep`` marks."""
        c = keep.repeat(self.counts)
        return BlockSpectra(self.centers[c], self.sizes[c], self.chains[c],
                            self.lengths[c.repeat(self.chains)], self.counts[keep])

    def tables(self) -> list[SpectralTable]:
        """Each row's :class:`SpectralTable`."""
        lengths, ends = self.lengths.tolist(), self.chains.cumsum().tolist()
        clusters = [EigenCluster(E, tuple(lengths[e - d:e]))
                    for E, e, d in zip(self.centers.tolist(), ends, self.chains.tolist())]
        return [SpectralTable(tuple(clusters[e - k:e]))
                for e, k in zip(self.counts.cumsum().tolist(), self.counts.tolist())]


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

    Built only from the arrays of :func:`_assemble`, after one inversion of
    A: ``A_inv`` and ``cond_A`` come from that one SVD and inversion.
    ``real`` records that H has no imaginary part, so that conjugation
    commutes with it.
    """

    A: np.ndarray
    H0: np.ndarray
    table: SpectralTable
    recon_residual: float  # |H - A H0 inv(A)| / |H|
    A_inv: np.ndarray = field(repr=False)
    cond_A: float
    real: bool


#: the decomposition of a block of rows as arrays: ``errors`` maps each row
#: that failed to the error of :data:`DECOMPOSITION_ERRORS` that ended it,
#: and ``rows`` lists the others in order; the remaining fields hold the
#: decomposed rows' spectra, bases, inverses, H0, relative reconstruction
#: residuals, condition numbers and realness, and are ``None`` when no row
#: was decomposed
_Decomposed = namedtuple("_Decomposed", "errors rows spectra A A_inv H0 recon cond real",
                         defaults=(None,) * 7)


def _decompositions(block: _Decomposed) -> list[BlockDiagonalization]:
    """A :class:`BlockDiagonalization` of each decomposed row of a block."""
    return list(map(BlockDiagonalization, block.A, block.H0, block.spectra.tables(),
                    block.recon.tolist(), block.A_inv, block.cond.tolist(), block.real.tolist()))


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
    the result does not depend on the eigensolver's output order.  Raises
    ValueError, before any arithmetic, unless ``raw`` holds n finite values
    and ``H`` and ``vectors`` are both n x n.
    """
    vals = np.asarray(raw, dtype=complex).ravel()
    if vals.size == 0 or not np.isfinite(vals).all():
        raise ValueError("raw must hold one or more eigenvalues, all finite")
    _check_tol("tol", tol)
    H, vectors = np.asarray(H), np.asarray(vectors)
    for name, M in (("H", H), ("vectors", vectors)):
        if M.shape != (vals.size, vals.size):
            raise ValueError(f"{name} must be n x n for the n = {vals.size} values, got {M.shape}")
    out = _clusters(vals[None], vectors[None], H[None], np.array([tol]), np.array([fro(H)]))
    if out.errors:
        raise out.errors[0]
    (centers,), (sizes,) = out.centers, out.sizes
    return ClusteredSpectrum(*(tuple(a[sizes > 0].tolist()) for a in (centers, sizes)))


def _condition_numbers(vectors: np.ndarray) -> np.ndarray:
    """Row norms of ``inv(V)`` for each row of a stack of eigenvector
    matrices, one stacked inversion.  A singular ``V`` gets zeros: the real
    eigensolve can return exactly parallel eigenvectors at an exceptional
    point, as it does for the two-band model.  When one fails the stacked
    inversion, one stacked ``slogdet``, which runs the same LAPACK
    ``getrf`` and so finds the same zero pivot, screens out the singular
    rows, and the rest are inverted in one more call, each with the bits
    it has alone.

    Exactly repeated eigenvectors come with exactly repeated values, which
    the floor joins; unbounded discs would send every pair to a midpoint
    test that a third eigenvalue there can fool.
    """
    try:
        Vinv = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(vectors)[0] != 0
        Vinv = np.zeros_like(vectors)
        Vinv[regular] = np.linalg.inv(vectors[regular])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(Vinv, axis=-1)


#: the clustering of a block of rows, from :func:`_clusters`: each row's
#: eigenvalues sorted by (Re, Im), their pairwise distances and raw indices;
#: its clusters in canonical order, as (m, n) arrays whose rows are padded
#: with size 0: their centers, sizes and the index of each one's first
#: member among the sorted values; and the error of each row whose
#: clustering failed, which has no cluster
_Clusters = namedtuple("_Clusters", "vals dist order centers sizes first errors")


def _clusters(values, vectors, Hs, floor, scale) -> _Clusters:
    """The union-find clustering of every row of a block, given its
    eigenvalues, unit eigenvectors, matrices, absolute floors and
    ``|H|_F``; see :func:`cluster_eigenvalues`.

    A pair may merge when it lies within the floor or its perturbation
    discs overlap.  A row with no such pair has one cluster per value,
    centered at the value plus 0.0, as the mean of one member forms it: one
    array expression serves all such rows.  Only the other rows run the
    union-find of :func:`_cluster_row`."""
    m, n = values.shape
    order = np.lexsort((values.imag, values.real), axis=-1)
    by_value = (np.arange(m)[:, None], order)
    vals = values[by_value]
    dist = np.abs(vals[:, :, None] - vals[:, None, :])
    upper = np.arange(n)[:, None] < np.arange(n)  # dist and both masks are symmetric
    joined = (dist <= floor[:, None, None]) & upper
    with np.errstate(over="ignore", invalid="ignore"):
        r = _condition_numbers(vectors)[by_value] * (n * EPS * scale)[:, None]
        overlap = (dist <= r[:, :, None] + r[:, None, :]) & upper
    centers, sizes = vals + 0.0, np.ones(vals.shape, dtype=np.intp)
    first, errors = np.indices(vals.shape)[1], {}
    for i in (joined | overlap).any(axis=(1, 2)).nonzero()[0].tolist():
        try:
            centers[i], sizes[i], first[i] = _cluster_row(
                vals[i], dist[i], joined[i], overlap[i], Hs[i], scale[i])
        except DECOMPOSITION_ERRORS as exc:  # its frames hold the block's arrays: a cycle
            errors[i], sizes[i] = exc.with_traceback(None), 0
    return _Clusters(vals, dist, order, centers, sizes, first, errors)


def _cluster_row(vals, dist, joined, overlap, H, scale) -> list[list]:
    """Union-find clustering of one row: its sorted eigenvalues, their
    distances, the pairs within the floor and those whose discs overlap,
    each pair once as ``(i, j)`` with ``i < j``, its matrix and ``|H|_F``;
    see :func:`cluster_eigenvalues`.  Returns the cluster centers, their
    sizes and the index of each one's first member among the sorted values,
    in canonical order, each list padded with 0 to one entry per value."""
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

    dist = dist.ravel()  # pair (i, j) at i * n + j
    for k in joined.ravel().nonzero()[0].tolist():
        join(*divmod(k, n))
    overlap = overlap.ravel().nonzero()[0]
    cutoff = np.sqrt(n * EPS) * scale
    eye = np.eye(n)
    rejected = []  # (z, m): sigma_min(H - z'I) > cutoff wherever |z' - z| < m
    for k in overlap[dist[overlap].argsort(kind="stable")].tolist():
        i, j = divmod(k, n)
        if find(i) != find(j):
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
    clusters = [(complex(vals[g].sum() / len(g)), len(g), g[0]) for g in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))  # centers as np.mean forms them
    return [list(a) + [0] * (n - len(a)) for a in zip(*clusters)]


def _kernel_staircase(N: np.ndarray, tol: float, center: complex, size: int):
    """Kernel bases of N^0, N, N^2, ... up to the first power q whose kernel
    holds ``size`` dimensions or more, or at which they stop growing, as one
    list ``[ker N^0, ..., ker N^q]``, and the one cutoff of every rank
    decision, for ``N = H - center``.  ``size`` is the cluster's eigenvalue
    count, so a cluster whose longest chain is q costs q SVDs, with no SVD
    that only confirms the kernel has stopped growing; at ``size = n`` the
    staircase runs until nothing is left to deflate.

    No power of N is formed.  The staircase deflates instead (Golub &
    Wilkinson, SIAM Rev. 18, 1976; Kagstrom & Ruhe, ACM TOMS 6, 1980): x
    lies in ker N^(l+1) when N x lies in ker N^l, that is when the leading
    rows of the previous level's ``V^H``, which span the orthogonal
    complement of ker N^l, annihilate N x.  Each level is one SVD of those
    rows times N, whose singular values share the scale of N, so every rank
    decision counts them against ``max(tol |N|_2, floor)``, with ``floor =
    64 n eps (|N|_2 + |center|)``: a cutoff relative to ``|N|_2`` alone
    would misread a fully degenerate cluster, where N itself is pure
    round-off.  The floor takes its scale from the first SVD and the
    center, and ``|H|_2 <= |N|_2 + |center| <= 3 |H|_2`` when the center
    is an eigenvalue, which keeps it close to ``64 n eps |H|_2``.  Summed
    term by term, it overflows only where ``|H|_2`` would.
    """
    n = N.shape[0]
    _, s, vh = np.linalg.svd(N)
    smax = float(s[0])
    floor = 64 * n * EPS * smax + 64 * n * EPS * abs(center)
    cutoff = max(tol * smax, floor)
    kernels = [np.zeros((n, 0), dtype=complex)]
    while True:
        k = n - s.size + int(np.count_nonzero(s <= cutoff))
        if k == kernels[-1].shape[1]:
            if k == 0:
                raise JordanStructureError(
                    "no numerical kernel at the given cluster center; "
                    "the center is not an eigenvalue at this tolerance"
                )
            return kernels, cutoff
        kernels.append(vh[n - k:, :].conj().T)
        if k >= size:  # the cluster is spanned, or overshot, which the caller refuses
            return kernels, cutoff
        _, s, vh = np.linalg.svd(vh[:n - k] @ N)


def _canonical_gauge(heads: np.ndarray) -> np.ndarray:
    """The frozen head rule for each row of a (k, n) stack of chain heads:
    the factor that gives the head unit norm with its first significant
    component, the first above ``1e-12`` times its largest modulus, real
    positive.  A head whose norm is zero or not finite is refused: its
    factor is NaN.

    The factor is ``s conj(p) / |p|`` with ``s = 1 / |h|`` and the pivot
    ``p = h[sig] s``, in that order, the norm from :func:`fro_rows` and
    ``|p|`` as ``np.hypot(p.real, p.imag)``, which is the scalar ``abs``
    bit for bit where ``np.abs`` of an array is not; so every factor has
    the bits of one head gauged alone.
    """
    norms = fro_rows(heads)
    mags = np.abs(heads)
    sig = (mags > 1e-12 * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    # a norm of 0 or inf sends 0 * inf, 0 / 0 or inf / inf into the factor,
    # and a NaN norm its NaN, so a refused head's factor is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / norms
        pivot = heads[np.arange(len(heads)), sig] * scale
        return scale * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


_REFUSED_HEAD = "chain head is zero or not finite"


def _gauged(factor, *chain: np.ndarray) -> list[np.ndarray]:
    """The links of a chain, head first, scaled as a whole by the head's
    factor from :func:`_canonical_gauge`; a NaN factor refuses the chain."""
    if cmath.isnan(factor):
        raise JordanStructureError(_REFUSED_HEAD)
    return [factor * v for v in chain]


def jordan_chains(H, center, tol: float = DEFAULT_TOL,
                  size: int | None = None) -> list[list[np.ndarray]]:
    """Jordan chains of ``H`` at an eigenvalue cluster center.

    Returns a list of chains, each chain a list ``[v_1, ..., v_p]`` with
    ``(H - E) v_1 ~ 0`` and ``(H - E) v_i = v_{i-1}`` exactly by
    construction for ``i >= 2``.  Chains are built top-down from the
    staircase of :func:`_kernel_staircase`, which stops once the kernel
    holds ``size`` dimensions, the cluster's eigenvalue count (default n:
    it stops when the kernel stops growing).  A kernel that passes
    ``size`` gives chains whose lengths sum past it.  At each power l, from
    the largest down, every open chain descends one link by ``N``, and the
    new tops are a basis of ``ker N^l`` modulo ``ker N^{l-1}`` and those
    links.  At the largest power no link has joined the kernel basis,
    whose columns are orthonormal from its SVD, so only the lower powers
    run a QR.  Each link is formed once, and one call of
    :func:`_canonical_gauge` gauges every chain head.
    """
    A = as_matrix(H)
    _check_tol("tol", tol)
    n = A.shape[0]
    if size is None:
        size = n
    elif not (isinstance(size, (int, np.integer)) and 1 <= size <= n):
        raise ValueError(f"size must be an integer in 1..{n}, got {size!r}")
    center = complex(center)
    N = A - center * np.eye(n)
    kernels, cutoff = _kernel_staircase(N, tol, center, size)

    q = len(kernels) - 1
    increments = [kernels[l].shape[1] - kernels[l - 1].shape[1] for l in range(1, q + 1)]
    for l in range(1, q):
        if increments[l] > increments[l - 1]:
            raise JordanStructureError(
                f"kernel dimensions are inconsistent at power {l + 1}: "
                f"increment grew from {increments[l - 1]} to {increments[l]}"
            )

    chains: list[list[np.ndarray]] = []  # top first until the end
    for l in range(q, 0, -1):
        for chain in chains:
            chain.append(N @ chain[-1])
        want = increments[l - 1] - (increments[l] if l < q else 0)
        if want == 0:
            continue
        # spans what the new tops must avoid: orthonormal as it comes until
        # descended links join it
        Q = kernels[l - 1]
        if chains:
            Q, _ = np.linalg.qr(np.concatenate([Q] + [c[-1][:, None] for c in chains], axis=1))
        cands = kernels[l].copy()  # C order: the layout sets how the products round
        for _ in range(want):
            resid = cands - Q @ (Q.conj().T @ cands)
            norms = np.linalg.norm(resid, axis=0)
            j = int(norms.argmax())
            if norms[j] < _INDEPENDENCE_CUTOFF:
                raise JordanStructureError(
                    f"could not find an independent chain top at power {l}"
                )
            new = resid[:, j] / norms[j]
            chains.append([new])
            Q = np.concatenate([Q, new[:, None]], axis=1)

    out = []
    for factor, chain in zip(_canonical_gauge(np.array([c[-1] for c in chains])), chains):
        chain.reverse()  # head first
        if float(np.linalg.norm(N @ chain[0])) > 10 * cutoff:
            raise JordanStructureError("chain head failed the eigenvector residual check")
        out.append(_gauged(factor, *chain))
    if len(out) > 1:  # one chain needs no order, nor a key
        out.sort(key=lambda c: (-len(c), int(abs(c[0]).argmax())))
    return out


def _simple_heads(H, vectors, vals, dist, order, tol: float, scale):
    """Which eigenvalues of each row of a stack, as simple clusters, may
    take their basis vector straight from the eigensolve.

    ``vals``, ``dist`` and ``order`` are the rows' sorted eigenvalues,
    their pairwise distances and their raw indices, from :func:`_clusters`;
    :func:`_cluster_row` centers a simple cluster at its one member plus
    0.0, as ``np.mean`` forms it.  The clustering alone decides which
    clusters are simple: a Jordan chain that rounding split into nearby
    eigenvalues is one cluster again.  The vector, column ``order`` of
    ``vectors``, qualifies when it passes the staircase's
    eigenvector-residual check, ``|(H - E) v| <= 10 max(tol |H - E|_2, 64
    n eps (|H - E|_2 + |E|))``, evaluated with the lower bounds ``rho(H -
    E)`` and ``|H|_F / sqrt(n) <= |H|_2 <= |H - E|_2 + |E|`` in place of
    the 2-norms, so its cutoff is never looser.  Rows need a finite
    ``|H|_F``.  Returns the (m, n) verdicts in sorted order.
    """
    m, n = vals.shape
    centers = vals + 0.0
    rho = dist.max(axis=2)  # spectral radius of H - E
    V = vectors[np.arange(m)[:, None, None], np.arange(n)[:, None], order[:, None, :]]
    resid = np.linalg.norm(H @ V - V * centers[:, None, :], axis=1)
    floor = 64 * n * EPS * scale / np.sqrt(n)
    return resid <= 10 * np.maximum(tol * rho, floor[:, None])


#: failures that make one decomposition, and only that one, inconclusive.
#: Every numerical breakdown ends as one of them.  ArithmeticError stays
#: out, so that a ZeroDivisionError shows as the bug it is.
DECOMPOSITION_ERRORS = (
    JordanStructureError, IllConditionedBasisError, EigensolveError, np.linalg.LinAlgError,
)


def block_diagonalize(H, tol: float = DEFAULT_TOL) -> BlockDiagonalization:
    """Full Jordan decomposition ``H = A H0 inv(A)`` in canonical order.

    ``tol`` is relative to ``|H|_F`` and controls both the clustering floor
    and rank decisions; split Jordan chains merge through the disc rule of
    :func:`cluster_eigenvalues` at any ``tol``.  Simple clusters take their
    basis vector from the eigensolve when it passes the residual check;
    the rest run :func:`jordan_chains`.  Raises
    :class:`JordanStructureError` when the staircase is inconsistent
    (including a cluster whose chain census does not reproduce its
    eigenvalue count) and
    :class:`IllConditionedBasisError` when ``cond(A)`` exceeds
    :data:`COND_LIMIT`.  The one-row case of :func:`decompose_stack`.
    """
    A = as_matrix(H)
    if A.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    _check_tol("tol", tol)
    return _one(decompose_stack(A[None], tol, fro_rows(A[None]), eigensystem_stack(A[None])))


def _one(block: _Decomposed) -> BlockDiagonalization:
    """The decomposition of a one-row block, or its error raised."""
    if block.errors:
        raise block.errors[0]
    return _decompositions(block)[0]


def decompose_stack(Hs: np.ndarray, tol: float, scale: np.ndarray, eigen: tuple) -> _Decomposed:
    """:func:`block_diagonalize` of each row of a validated (m, n, n) stack,
    n >= 1, at a validated ``tol``, given ``|H|_F`` per row in ``scale``
    and the rows' eigenvalues, unit eigenvectors and realness from
    :func:`~pseudospec.linalg.eigensystem_stack` in ``eigen``.

    The block's clusters, chains and bases are arrays from the start.  The
    inversion of the eigenvectors, the floor and disc tests of
    :func:`_clusters`, the simple-head checks, their gauge and the assembly
    are stacked; a row with no merge candidate gets its clusters from one
    array expression, and only a row with a candidate runs the union-find.
    Only a cluster that is not simple, or whose eigenvector fails the
    residual check, runs the staircase, which takes its scale from its own
    ``H - E`` and ``E``, not from ``|H|_2``, stops at the cluster's size
    and gauges its chain heads in one call.  Every basis column is
    scattered into the block's A, and H0 is set from the flat arrays of
    :class:`BlockSpectra`.

    Returns the block's arrays and each failed row's error as a
    :class:`_Decomposed`; no row's table or decomposition is built here.
    When a stacked LAPACK call fails, the call raises, and the caller
    decomposes the rows one by one, so that a failure stays with its own
    row.
    """
    m, n = Hs.shape[:2]
    values, vectors, real = eigen
    floor = np.array([tol * s if s else tol for s in scale.tolist()])
    vals, dist, order, centers, sizes, first, errors = _clusters(values, vectors, Hs, floor, scale)
    # one head check of all values of the rows with a finite |H|_F and a
    # simple cluster
    single = sizes == 1
    check = (np.isfinite(scale) & single.any(1)).nonzero()[0]
    ok = np.zeros(values.shape, dtype=bool)
    if check.size:
        ok[check] = _simple_heads(*(rows_of(a, check) for a in (Hs, vectors, vals, dist, order)),
                                  tol, scale[check])
    # and one gauge of all their simple heads, one multiply with the factor
    # first, as _gauged forms factor * v, into their slots
    simple = single & ok[np.arange(m)[:, None], first]
    col = sizes.cumsum(1) - sizes  # the first slot of each cluster
    A = np.zeros(Hs.shape, dtype=complex)
    failed = {}  # row: the cluster that ended it
    r, k = simple.nonzero()
    if r.size:
        heads = vectors[r, :, order[r, first[r, k]]]
        factors = _canonical_gauge(heads)
        A[r, :, col[r, k]] = factors[:, None] * heads
        refused = np.isnan(factors)
        failed = dict(zip(r[refused][::-1].tolist(), k[refused][::-1].tolist()))  # each row's first
        errors.update((i, JordanStructureError(_REFUSED_HEAD)) for i in failed)
    # the chain lengths of each cluster, where a simple cluster has one chain;
    # every other cluster runs the staircase, in order, up to a failure in its row
    p_lists = sizes[:, :, None] * (np.arange(n) == 0)
    for i, k in zip(*(a.tolist() for a in ((sizes > 0) & ~simple).nonzero())):
        if failed.get(i, k) < k:
            continue
        center, size, at = complex(centers[i, k]), int(sizes[i, k]), int(col[i, k])
        try:
            chain_set = jordan_chains(Hs[i], center, tol, size)
            p_list = list(map(len, chain_set))
            if sum(p_list) != size:
                raise JordanStructureError(
                    f"cluster at {center}: staircase algebraic multiplicity {sum(p_list)} "
                    f"disagrees with the clustered eigenvalue count {size}"
                )
        except DECOMPOSITION_ERRORS as exc:
            failed[i], errors[i] = k, exc.with_traceback(None)
            continue
        A[i, :, at:at + size] = np.array([v for chain in chain_set for v in chain]).T
        p_lists[i, k, :len(p_list)] = p_list
    if len(errors) == m:  # nothing is left to assemble
        return _Decomposed(errors, [])
    sizes[list(errors)] = 0
    present = sizes > 0
    p_lists = p_lists[present]
    rows = [i for i in range(m) if i not in errors]
    spectra = BlockSpectra(centers[present], sizes[present], (p_lists > 0).sum(1),
                           p_lists[p_lists > 0], present.sum(1)[rows])
    block = _assemble(rows_of(Hs, rows), scale[rows], real[rows], rows_of(A, rows), spectra)
    errors.update((rows[k], exc) for k, exc in block.errors.items())
    return _Decomposed(errors, [rows[k] for k in block.rows], *block[2:])


def from_chains(H, centers, chain_sets) -> BlockDiagonalization:
    """Assemble the triple (A, H0, table) from the Jordan chains of each
    cluster, given in canonical order: ``chain_sets[k]`` holds the chains
    at ``centers[k]``, each head first.

    The columns of A follow the labels of :meth:`SpectralTable.labels`, H0
    is the block-Jordan form those labels describe, A is inverted once, and
    the reconstruction residual is taken relative to ``|H|_F``.  Raises
    :class:`IllConditionedBasisError` when ``cond(A)`` exceeds
    :data:`COND_LIMIT`, a singular basis included, as
    :func:`block_diagonalize` does, and ValueError, before any
    arithmetic, when ``centers`` and ``chain_sets`` differ in length or
    hold a value that is not finite.
    """
    H = as_matrix(H)
    if len(centers) != len(chain_sets) or not np.isfinite(np.asarray(centers, complex)).all():
        raise ValueError(f"centers must be {len(chain_sets)} finite values, one per chain set")
    A = np.array([v for chains in chain_sets for chain in chains for v in chain], dtype=complex).T
    if A.shape != H.shape or not np.isfinite(A).all():
        raise ValueError(f"chain_sets must give {len(H)} finite columns of dimension {len(H)}")
    table = SpectralTable(tuple(EigenCluster(E, tuple(map(len, chains)))
                                for E, chains in zip(centers, chain_sets)))
    return _one(_assemble(H[None], np.array([fro(H)]), np.array([not H.imag.any()]), A[None],
                          BlockSpectra.of([table])))


def _assemble(Hs, scale, real, A, spectra) -> _Decomposed:
    """:func:`from_chains` for each row of a stack, given its matrices
    ``Hs``, ``|H|_F``, realness, spectra and Jordan bases ``A``, columns
    in canonical order.  H0 is set from the flat arrays.  One stacked SVD
    gives every ``cond(A)``, infinite for a singular basis, and this is the
    one rule on a Jordan basis: a row with ``cond(A)`` above
    :data:`COND_LIMIT`, or not finite, gets an
    :class:`IllConditionedBasisError`, and one stacked inversion serves
    the others.  Returns the arrays of the other rows and the errors as a
    :class:`_Decomposed`, rows numbered as in ``Hs``."""
    m, n = A.shape[:2]
    # H0 holds each slot's cluster value on the diagonal and a 1 above
    # every slot that is not a chain head, set for the whole block at once
    H0 = np.zeros(A.shape, dtype=complex)
    entries = H0.reshape(m, n * n)  # a view: the diagonal is every (n + 1)-th entry
    entries[:, ::n + 1] = spectra.centers.repeat(spectra.sizes).reshape(m, n)
    link = np.ones((m, n))
    link.flat[spectra.lengths.cumsum() - spectra.lengths] = 0.0  # the chain heads
    entries[:, 1::n + 1] = link[:, 1:]
    s = np.linalg.svd(A, compute_uv=False)
    cond = np.divide(s[:, 0], s[:, -1], out=np.full(m, np.inf), where=s[:, -1] != 0.0)
    good = cond <= COND_LIMIT
    errors = {k: IllConditionedBasisError(
        f"Jordan basis condition number {c:.3e} exceeds limit {COND_LIMIT:.1e}")
        for k, (g, c) in enumerate(zip(good.tolist(), cond.tolist())) if not g}
    if errors:  # also inf and NaN
        spectra = spectra.take(good)
        Hs, scale, real, A, H0, cond = (a[good] for a in (Hs, scale, real, A, H0, cond))
    A_inv = np.linalg.inv(A) if len(A) else A  # no row left to invert
    recon = fro_rows(Hs - A @ H0 @ A_inv) / np.where(scale != 0.0, scale, 1.0) if len(A) else scale
    return _Decomposed(errors, good.nonzero()[0].tolist(), spectra, A, A_inv, H0, recon, cond, real)


def biorthonormal_complement(bd: BlockDiagonalization) -> np.ndarray:
    """Columns are the dual basis: ``inv(A)^+`` applied to the canonical
    basis, biorthonormal to the Jordan basis and complete."""
    return bd.A_inv.conj().T
