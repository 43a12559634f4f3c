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
deterministically by the top-down construction below.  The rule runs in
array form, once per stack of heads: once per decomposed block for all its
simple, well-separated heads and once per staircase cluster for its
chains.  It takes the pivot's modulus with ``np.hypot``, so a head gets
the same bits in any stack as alone.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    EPS,
    EigensolveError,
    as_matrix,
    eigensystem_stack,
    fro,
    fro_rows,
    inverse_and_cond_stack,
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

    @property
    def dimension(self) -> int:
        return sum(c.algebraic for c in self.clusters)

    @cached_property
    def slots(self) -> tuple[tuple[int, int, int, int], ...]:
        """(cluster, chain, index, column of the chain head) of every basis
        slot, in canonical order; built once per table."""
        out = []
        for n, c in enumerate(self.clusters):
            for a, p in enumerate(c.p_list):
                head = len(out)
                out.extend((n, a, i, head) for i in range(1, p + 1))
        return tuple(out)

    def labels(self) -> list[tuple[int, int, int]]:
        """Canonical (cluster, chain, index) label of every basis slot."""
        return [slot[:3] for slot in self.slots]


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
    ``cond_A`` come from that one SVD and inversion.  ``real`` records that
    H has no imaginary part, so that conjugation commutes with it.
    """

    A: np.ndarray
    H0: np.ndarray
    table: SpectralTable
    recon_residual: float  # |H - A H0 inv(A)| / |H|
    A_inv: np.ndarray = field(repr=False)
    cond_A: float
    real: bool


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
    H = np.asarray(H)
    vectors = np.asarray(vectors)
    scale = np.array([fro(H)])
    screen = _merge_screen(vals[None], _condition_numbers(vectors[None]), np.array([tol]), scale)
    return _cluster_row(screen, 0, H)[0]


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


def _merge_screen(values, kappa, tol, scale) -> tuple:
    """Sort each row of ``values`` by (Re, Im) and find its pairs within
    the absolute floor ``tol`` or with overlapping perturbation discs;
    ``kappa`` holds the condition numbers in raw order.  Returns the
    sorted values, their distances, both pair masks, each pair once, as
    ``(i, j)`` with ``i < j``, ``scale``, the rows with a pair that may
    merge and the raw index of each sorted value."""
    m, n = values.shape
    order = np.lexsort((values.imag, values.real), axis=-1)
    by_value = (np.arange(m)[:, None], order)
    vals = values[by_value]
    dist = np.abs(vals[:, :, None] - vals[:, None, :])
    upper = np.arange(n)[:, None] < np.arange(n)  # dist and both masks are symmetric
    floor = (dist <= tol[:, None, None]) & upper
    with np.errstate(over="ignore", invalid="ignore"):
        r = kappa[by_value] * (n * EPS * scale)[:, None]
        overlap = (dist <= r[:, :, None] + r[:, None, :]) & upper
    candidates = (floor | overlap).any(axis=(1, 2))
    return vals, dist, floor, overlap, scale, candidates, order


def _cluster_row(screen: tuple, row: int, H: np.ndarray) -> tuple[ClusteredSpectrum, list[int]]:
    """Union-find clustering of one row of a merge screen; see
    :func:`cluster_eigenvalues`.  Also returns, per cluster, the index of
    its first member among the sorted values."""
    vals, dist, floor, overlap, scale, candidate, _ = (a[row] for a in screen)
    n = vals.size
    if not candidate:
        # the mean of one member, as sum() / 1 forms it: 0 + v, then / 1
        return ClusteredSpectrum(tuple((vals + 0.0).tolist()), (1,) * n), list(range(n))

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
    for k in np.flatnonzero(floor).tolist():
        join(*divmod(k, n))
    overlap = np.flatnonzero(overlap)
    cutoff = np.sqrt(n * EPS) * scale
    eye = np.eye(n)
    rejected = []  # (z, m): sigma_min(H - z'I) > cutoff wherever |z' - z| < m
    for k in overlap[np.argsort(dist[overlap], kind="stable")].tolist():
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

    centers = []
    counts = []
    for root in groups:
        members = vals[groups[root]]
        centers.append(complex(members.sum() / len(members)))  # np.mean, bit for bit
        counts.append(len(members))
    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    roots = list(groups)
    return (ClusteredSpectrum(tuple(centers[i] for i in order), tuple(counts[i] for i in order)),
            [groups[roots[i]][0] for i in order])


def _kernel_staircase(N: np.ndarray, tol: float, center: complex):
    """Kernel bases of N^0, N, N^2, ... up to the power q at which they
    stabilize, as one list ``[ker N^0, ..., ker N^q]``, and the one cutoff
    of every rank decision, for ``N = H - center``.

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
        if k == n:  # nothing is left to deflate
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


def jordan_chains(H, center, tol: float = DEFAULT_TOL) -> list[list[np.ndarray]]:
    """Jordan chains of ``H`` at an eigenvalue cluster center.

    Returns a list of chains, each chain a list ``[v_1, ..., v_p]`` with
    ``(H - E) v_1 ~ 0`` and ``(H - E) v_i = v_{i-1}`` exactly by
    construction for ``i >= 2``.  Chains are built top-down from the
    staircase of :func:`_kernel_staircase`: at each power l, from the
    largest down, every open chain descends one link by ``N``, and the new
    tops are a basis of ``ker N^l`` modulo ``ker N^{l-1}`` and those links.
    Each link is formed once, and one call of :func:`_canonical_gauge`
    gauges every chain head.
    """
    A = as_matrix(H)
    n = A.shape[0]
    center = complex(center)
    N = A - center * np.eye(n)
    kernels, cutoff = _kernel_staircase(N, tol, center)

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
        # spans what the new tops must avoid
        Q = np.hstack([kernels[l - 1]] + [chain[-1][:, None] for chain in chains])
        if Q.shape[1]:
            Q, _ = np.linalg.qr(Q)
        cands = kernels[l].copy()  # C order: the layout sets how the products round
        for _ in range(want):
            resid = cands - Q @ (Q.conj().T @ cands)
            norms = np.linalg.norm(resid, axis=0)
            j = int(np.argmax(norms))
            if norms[j] < _INDEPENDENCE_CUTOFF:
                raise JordanStructureError(
                    f"could not find an independent chain top at power {l}"
                )
            new = resid[:, j] / norms[j]
            chains.append([new])
            Q = np.hstack([Q, new[:, None]])

    out = []
    for factor, chain in zip(_canonical_gauge(np.array([c[-1] for c in chains])), chains):
        chain.reverse()  # head first
        if float(np.linalg.norm(N @ chain[0])) > 10 * cutoff:
            raise JordanStructureError("chain head failed the eigenvector residual check")
        out.append(_gauged(factor, *chain))
    if len(out) > 1:  # one chain needs no order, nor a key
        out.sort(key=lambda c: (-len(c), int(np.argmax(np.abs(c[0])))))
    return out


def _simple_heads(H, vectors, vals, dist, order, tol: float, scale):
    """Which eigenvalues of each row of a stack, as simple clusters, may
    take their basis vector straight from the eigensolve.

    ``vals``, ``dist`` and ``order`` are the rows' sorted eigenvalues,
    their pairwise distances and their raw indices, from
    :func:`_merge_screen`; :func:`_cluster_row` centers a simple cluster at
    its one member plus 0.0, as ``np.mean`` forms it.  A cluster qualifies
    when its nearest other eigenvalue is farther than ``tol * (|H|_F +
    |E|)``.  A Jordan chain that rounding split into nearby simple
    eigenvalues does not qualify: :func:`cluster_eigenvalues` has merged it
    back into one cluster.  The vector, column ``order`` of ``vectors``,
    must also pass the staircase's eigenvector-residual check, ``|(H - E)
    v| <= 10 max(tol |H - E|_2, 64 n eps (|H - E|_2 + |E|))``, evaluated
    with the lower bounds ``rho(H - E)`` and ``|H|_F / sqrt(n) <= |H|_2 <=
    |H - E|_2 + |E|`` in place of the 2-norms, so its cutoff is never
    looser.  Rows need a finite ``|H|_F``.  Returns the (m, n) verdicts in
    sorted order.
    """
    m, n = vals.shape
    centers = vals + 0.0
    rho = dist.max(axis=2)  # spectral radius of H - E
    nearest = np.where(np.eye(n, dtype=bool), np.inf, dist).min(axis=2)
    ok = nearest > tol * (scale[:, None] + np.abs(centers))
    V = vectors[np.arange(m)[:, None, None], np.arange(n)[:, None], order[:, None, :]]
    resid = np.linalg.norm(H @ V - V * centers[:, None, :], axis=1)
    floor = 64 * n * EPS * scale / np.sqrt(n)
    ok &= resid <= 10 * np.maximum(tol * rho, floor[:, None])
    return ok


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
    :func:`cluster_eigenvalues` at any ``tol``.  Simple, well-separated
    clusters take their basis vector from the eigensolve; the rest run
    :func:`jordan_chains`.  Raises :class:`JordanStructureError` when the
    staircase is inconsistent (including a cluster whose chain census does
    not reproduce its eigenvalue count) and
    :class:`IllConditionedBasisError` when ``cond(A)`` exceeds
    :data:`COND_LIMIT`.  The one-row case of :func:`decompose_stack`.
    """
    A = as_matrix(H)
    if A.shape[0] == 0:
        raise ValueError("cannot decompose an empty matrix")
    (bd,) = decompose_stack(A[None], tol, fro_rows(A[None]))
    if isinstance(bd, Exception):
        raise bd
    return bd


def decompose_stack(Hs: np.ndarray, tol: float, scale: np.ndarray) -> list:
    """:func:`block_diagonalize` of each row of a validated (m, n, n) stack,
    n >= 1, given ``|H|_F`` per row in ``scale``.

    The eigensolve, the inversion of the eigenvectors, the clustering
    screen, the simple-head checks, their gauge and the assembly are
    stacked; only a row with a candidate merge runs the union-find, and only
    a cluster that is not simple and well separated the staircase, which
    takes its scale from its own ``H - E`` and ``E``, not from ``|H|_2``,
    and gauges its chain heads in one call.  Returns per row
    a :class:`BlockDiagonalization` or the error of
    :data:`DECOMPOSITION_ERRORS` that ended it.  When a stacked LAPACK call
    fails, the rows are decomposed one by one, so a failure stays with its
    own row.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    try:
        return _decompose(Hs, tol, scale)
    except (EigensolveError, np.linalg.LinAlgError) as exc:
        if len(Hs) == 1:
            return [exc]
        return [decompose_stack(Hs[i:i + 1], tol, scale[i:i + 1])[0]
                for i in range(len(Hs))]


def _decompose(Hs, tol, scale) -> list:
    m = len(Hs)
    values, vectors, real = eigensystem_stack(Hs)
    floor_tol = np.array([tol * s if s else tol for s in scale.tolist()])
    screen = _merge_screen(values, _condition_numbers(vectors), floor_tol, scale)
    out: list = [None] * m
    skels = {}
    for i in range(m):
        try:
            skels[i] = _cluster_row(screen, i, Hs[i])
        except DECOMPOSITION_ERRORS as exc:
            out[i] = exc.with_traceback(None)  # its frames hold out: a cycle
    # one head check of all values of the rows with a finite |H|_F and a
    # simple cluster
    finite = np.isfinite(scale).tolist()
    check = [i for i, (skel, _) in skels.items() if finite[i] and 1 in skel.multiplicities]
    vals, dist, *_, order = screen
    ok = np.zeros(values.shape, dtype=bool)
    if check:
        ok[check] = _simple_heads(
            Hs[check], vectors[check], vals[check], dist[check], order[check], tol, scale[check]
        )
    # and one gauge of all their simple, well-separated heads, one multiply:
    # factor first, as _gauged forms factor * v
    simple = [(i, j) for i, (skel, first) in skels.items()
              for count, j in zip(skel.multiplicities, first) if count == 1 and ok[i, j]]
    gauged = {}
    if simple:
        si, sj = np.array(simple).T
        heads = vectors[si, :, order[si, sj]]
        factors = _canonical_gauge(heads)
        gauged = dict(zip(simple, zip(np.isnan(factors).tolist(), factors[:, None] * heads)))

    rows, centers_list, chain_sets = [], [], []
    for i, (skel, first) in skels.items():
        try:
            chains_here = []
            for center, count, j in zip(skel.centers, skel.multiplicities, first):
                if (i, j) in gauged:
                    refused, head = gauged[i, j]
                    if refused:
                        raise JordanStructureError(_REFUSED_HEAD)
                    chains = [[head]]
                else:
                    chains = jordan_chains(Hs[i], center, tol)
                    alg = sum(len(c) for c in chains)
                    if alg != count:
                        raise JordanStructureError(
                            f"cluster at {center}: staircase algebraic multiplicity {alg} "
                            f"disagrees with the clustered eigenvalue count {count}"
                        )
                chains_here.append(chains)
        except DECOMPOSITION_ERRORS as exc:
            out[i] = exc.with_traceback(None)
            continue
        rows.append(i)
        centers_list.append(skel.centers)
        chain_sets.append(chains_here)

    if rows:
        bds = _assemble(rows_of(Hs, rows), scale[rows], centers_list, chain_sets, real[rows])
        for i, bd in zip(rows, bds):
            out[i] = bd
    return out


def from_chains(H, centers, chain_sets) -> BlockDiagonalization:
    """Assemble the triple (A, H0, table) from the Jordan chains of each
    cluster, given in canonical order: ``chain_sets[k]`` holds the chains
    at ``centers[k]``, each head first.

    The columns of A follow the labels of :meth:`SpectralTable.labels`, H0
    is the block-Jordan form those labels describe, A is inverted once, and
    the reconstruction residual is taken relative to ``|H|_F``.  Raises
    :class:`IllConditionedBasisError` when ``cond(A)`` exceeds
    :data:`COND_LIMIT`, a singular basis included, as
    :func:`block_diagonalize` does.
    """
    H = as_matrix(H)
    (bd,) = _assemble(H[None], np.array([fro(H)]), [centers], [chain_sets],
                      np.array([not H.imag.any()]))
    if isinstance(bd, Exception):
        raise bd
    return bd


def _assemble(Hs, scale, centers_list, chain_sets, real) -> list:
    """:func:`from_chains` for each row of a stack, one stacked SVD and
    inversion for all bases; ``real`` marks the rows of ``Hs`` with no
    imaginary part.  A row whose basis has ``cond(A)`` above
    :data:`COND_LIMIT`, or not finite, gets an
    :class:`IllConditionedBasisError`; a basis singular to working
    tolerance is one of them."""
    tables, columns, values, counts, lengths = [], [], [], [], []
    for centers, chains_at in zip(centers_list, chain_sets):
        p_lists = [tuple(len(c) for c in chains) for chains in chains_at]
        tables.append(SpectralTable(tuple(map(EigenCluster, centers, p_lists))))
        columns.append([v for chains in chains_at for chain in chains for v in chain])
        values += centers
        counts += map(sum, p_lists)
        lengths += [p for p_list in p_lists for p in p_list]
    A = np.swapaxes(np.array(columns), 1, 2).copy()
    if A.shape[1] != A.shape[2]:
        raise ValueError(f"the chains span {A.shape[2]} columns of dimension {A.shape[1]}")
    # H0 holds each slot's cluster value on the diagonal and a 1 above
    # every slot that is not a chain head, set for the whole block at once
    H0 = np.zeros(A.shape, dtype=complex)
    d = np.arange(A.shape[1])
    H0[:, d, d] = np.repeat(np.array(values, dtype=complex), counts).reshape(len(A), -1)
    link = np.ones(A.shape[:2])
    link.flat[np.cumsum(lengths) - lengths] = 0.0  # the chain heads
    H0[:, d[:-1], d[1:]] = link[:, 1:]
    A_inv, rows, cond = inverse_and_cond_stack(A.astype(complex, copy=False))
    recon = []
    if rows:
        R = rows_of(Hs, rows) - rows_of(A, rows) @ rows_of(H0, rows) @ A_inv
        recon = [f / (s if s else 1.0) for f, s in zip(fro_rows(R).tolist(), scale[rows].tolist())]
    regular = dict(zip(rows, zip(recon, A_inv)))
    real = real.tolist()
    out: list = []
    for r, cA in enumerate(cond):
        if cA <= COND_LIMIT:  # so r is regular: COND_LIMIT < 1 / SINGULARITY_CUTOFF
            out.append(BlockDiagonalization(A[r], H0[r], tables[r], *regular[r], cA, real[r]))
        else:  # also inf and NaN
            out.append(IllConditionedBasisError(
                f"Jordan basis condition number {cA:.3e} exceeds limit {COND_LIMIT:.1e}"
            ))
    return out


def biorthonormal_complement(bd: BlockDiagonalization) -> np.ndarray:
    """Columns are the dual basis: ``inv(A)^+`` applied to the canonical
    basis, biorthonormal to the Jordan basis and complete."""
    return bd.A_inv.conj().T
