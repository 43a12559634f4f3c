import re

import numpy as np
import pytest

from pseudospec import blockdiag
from pseudospec.certify import INCONCLUSIVE, NOT_PSEUDO_HERMITIAN, PSEUDO_HERMITIAN, decide
from pseudospec.blockdiag import (
    COND_LIMIT,
    BlockSpectra,
    EigenCluster,
    IllConditionedBasisError,
    JordanStructureError,
    SpectralTable,
    biorthonormal_complement,
    block_diagonalize,
    cluster_eigenvalues,
    from_chains,
    jordan_chains,
)
from pseudospec.linalg import EPS, EigensolveError, eigensystem, eigensystem_stack, fro, fro_rows
from pseudospec.truncated import ModelSpec, build_H, closed_form_block_diagonalization


def jordan_matrix(structure):
    """Exact block-Jordan matrix from [(eigenvalue, [p, ...]), ...]."""
    dim = sum(p for _, ps in structure for p in ps)
    J = np.zeros((dim, dim), dtype=complex)
    col = 0
    for value, ps in structure:
        for p in ps:
            for i in range(p):
                J[col + i, col + i] = value
                if i:
                    J[col + i - 1, col + i] = 1.0
            col += p
    return J


def well_conditioned(rng, n, spread=(0.6, 1.6)):
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(*spread, size=n)) @ q2


def scatter_hamiltonian(x, k, v=1.0):
    u = np.exp(-2j * k * x)
    return (v / (2 * k)) * np.array([[1.0, u], [-1.0 / u, -1.0]])


def per_vector_gauge(chain):
    """The frozen head rule as one scalar computation per chain: the
    reference for the bits of the array gauge."""
    head = chain[0]
    hnorm = float(np.linalg.norm(head))
    if not 0.0 < hnorm < np.inf:
        raise JordanStructureError("chain head is zero or not finite")
    mags = np.abs(head)
    scale = 1.0 / hnorm
    sig = np.nonzero(mags > 1e-12 * float(mags.max()))[0][0]
    pivot = head[sig] * scale
    scale *= np.conj(pivot) / abs(pivot)
    return [scale * v for v in chain]


def cluster_diagonal(raw, tol):
    """Clusters of diag(raw), whose eigenvectors are the unit vectors."""
    return cluster_eigenvalues(raw, tol, np.diag(raw), np.eye(len(raw)))


class TestClusterEigenvalues:
    @pytest.mark.parametrize("raw", [[], [1.0, np.nan]], ids=["empty", "nan"])
    def test_empty_or_non_finite_values_are_refused(self, raw):
        # unchecked, a NaN value comes back as a NaN center
        with pytest.raises(ValueError, match="raw must hold one or more eigenvalues, all finite"):
            cluster_eigenvalues(raw, 1e-8, np.eye(len(raw)), np.eye(len(raw)))

    # unchecked, a larger H and vectors gave a result, a smaller vectors
    # an IndexError inside numpy, and a non-square H was accepted
    @pytest.mark.parametrize("raw, H, vectors, name", [
        ([1.0, 2.0], np.eye(3), np.eye(3), "H"),
        ([1.0, 2.0, 3.0], np.eye(3), np.eye(2), "vectors"),
        ([1.0, 2.0], np.ones((2, 3)), np.eye(2), "H"),
    ], ids=["larger-H-and-vectors", "smaller-vectors", "non-square-H"])
    def test_H_and_vectors_must_match_the_values(self, raw, H, vectors, name):
        with pytest.raises(ValueError, match=f"^{name} must be n x n for the n = {len(raw)} values"):
            cluster_eigenvalues(raw, 0.1, H, vectors)

    def test_basic_merge(self):
        out = cluster_diagonal([1.0, 1.0 + 1e-14, 2.0], 1e-10)
        assert out.centers == (pytest.approx(1.0), pytest.approx(2.0))
        assert out.multiplicities == (2, 1)

    def test_order_is_canonical(self):
        out = cluster_diagonal([2.0, 1.0 + 1j, 1.0 - 1j], 1e-12)
        assert out.centers == (1.0 - 1j, 1.0 + 1j, 2.0)

    def test_scatter_hamiltonian_spectrum_is_one_cluster(self):
        H = scatter_hamiltonian(0.4, 1.3)
        values, vectors = np.linalg.eig(H)
        out = cluster_eigenvalues(values, 1e-6 * fro(H), H, vectors)
        assert out.multiplicities == (2,)
        assert abs(out.centers[0]) < 1e-10

    def test_coalesced_pair_in_two_band_model(self):
        # lambda = [1, 4], varpi = 2: spectrum {0, 0, +-sqrt(3)}
        lam = np.diag([1.0, 4.0])
        I = np.eye(2)
        H = np.vstack([np.hstack([lam - 8 * I, lam]), np.hstack([-lam, -lam + 8 * I])]) / 4.0
        values, vectors = np.linalg.eig(H)
        out = cluster_eigenvalues(values, 1e-6 * fro(H), H, vectors)
        assert out.multiplicities == (1, 2, 1)
        assert abs(out.centers[0] + np.sqrt(3)) < 1e-10
        assert abs(out.centers[1]) < 1e-10
        assert abs(out.centers[2] - np.sqrt(3)) < 1e-10

    def test_merge_is_transitive(self):
        out = cluster_diagonal([0.0, 1.0], 2.0)
        assert out.multiplicities == (2,)
        # a long chain of nearby values merges into one cluster whose spread
        # dwarfs the tolerance
        chain = np.arange(1500) * 9e-4
        out = cluster_diagonal(chain, 1e-3)
        assert out.multiplicities == (1500,)


    def test_member_sum_over_count_is_np_mean_bit_for_bit(self):
        # the center formula, sum() / len, against np.mean on member lists
        # of 1-16 values at scales 1e-300 to 1e300, some parts -0.0
        rng = np.random.default_rng(17)
        for _ in range(48_000):
            k = int(rng.integers(1, 17))
            members = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            members *= 10.0 ** rng.choice([-300, -150, -1, 0, 1, 150, 300])
            members.real[rng.random(k) < 0.2] = -0.0
            members.imag[rng.random(k) < 0.2] = -0.0
            want = complex(np.mean(members))
            got = complex(members.sum() / len(members))
            assert repr(got) == repr(want), members

    def test_centers_are_member_means_with_their_signed_zeros(self):
        # a center is its members' mean as np.mean forms it, 0 + sum / count,
        # so a negative zero part turns positive; simple clusters skip the
        # union-find and must agree
        raw = [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(2.0, -0.0)]
        expected = ["0j", "1j", "(2+0j)"]
        assert [repr(c) for c in cluster_diagonal(raw, 1e-8).centers] == expected
        assert [repr(c) for c in cluster_diagonal(raw + raw, 1e-8).centers] == expected


class TestJordanChains:
    def test_diagonal_double_eigenvalue(self):
        chains = jordan_chains(np.diag([5.0, 5.0]), 5.0)
        assert [len(c) for c in chains] == [1, 1]

    def test_scatter_chain_head(self):
        # head of the length-2 chain at x=0, k=1, v=2 spans (1, -1)/sqrt(2)
        H = scatter_hamiltonian(0.0, 1.0, 2.0)
        chains = jordan_chains(H, 0.0)
        assert [len(c) for c in chains] == [2]
        head = chains[0][0]
        want = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.max(np.abs(head - want)) < 1e-10
        # chain link is exact by construction
        assert np.max(np.abs(H @ chains[0][1] - head)) < 1e-12

    @pytest.mark.parametrize(
        "structure",
        [
            [(2.0, [2])],
            [(1.0, [2, 1]), (-1.0, [1])],
            [(0.5j, [3, 1]), (2.0, [2, 2, 1])],
            [(0.0, [3]), (1.0 + 1j, [1]), (1.0 - 1j, [1])],
        ],
    )
    def test_construct_then_recover(self, structure):
        rng = np.random.default_rng(sum(p for _, ps in structure for p in ps))
        J = jordan_matrix(structure)
        A = well_conditioned(rng, J.shape[0])
        H = A @ J @ np.linalg.inv(A)
        for value, ps in structure:
            chains = jordan_chains(H, value, tol=1e-5)
            assert sorted((len(c) for c in chains), reverse=True) == sorted(ps, reverse=True)

    @pytest.mark.parametrize("z, p, seed", [
        *((0.005 + 0.01j, 4, seed) for seed in range(10)),
        *((0.015 + 0.03j, 5, seed) for seed in range(3)),
    ])
    def test_long_chains_of_a_conjugate_pair(self, z, p, seed):
        # a rank cutoff per power of N misreads these chains as "kernel
        # dimensions are inconsistent at power p"
        W = well_conditioned(np.random.default_rng(seed), 2 * p)
        H = W @ jordan_matrix([(z, [p]), (z.conjugate(), [p])]) @ np.linalg.inv(W)
        cert = decide(H / np.linalg.norm(H))
        assert cert.verdict == PSEUDO_HERMITIAN, cert.diagnostics
        assert [c.p_list for c in cert.table.clusters] == [(p,), (p,)]
        assert cert.cond_A < 1e3

    def test_wrong_center_is_rejected(self):
        with pytest.raises(JordanStructureError):
            jordan_chains(np.diag([1.0, 2.0]), 5.0)

    def test_gauge_makes_the_first_significant_head_component_positive(self):
        head, top = np.array([0.0, 3j, 4.0]), np.array([1.0, 0.0, 0.0])
        (factor,) = blockdiag._canonical_gauge(head[None])
        got = blockdiag._gauged(factor, head, top)
        assert np.allclose(got[0], [0.0, 0.6, -0.8j]) and np.allclose(got[1], [-0.2j, 0.0, 0.0])

    @pytest.mark.parametrize("head", [
        [0.0, 0.0, 0.0],
        [1.0, np.nan, 0.0],
        [np.inf, 1.0, 0.0],
        [1.0, complex(0.0, -np.inf), 0.0],
        [1e200, 1e200, 0.0],  # finite entries whose norm overflows
        [1e-170, 1e-170, 0.0],  # nonzero entries whose norm underflows
    ])
    def test_gauge_refuses_a_zero_or_non_finite_head(self, head):
        chain = [np.array(head, dtype=complex), np.ones(3, complex)]
        with np.errstate(over="ignore"):  # the norm of 1e200 entries overflows
            (factor,) = blockdiag._canonical_gauge(chain[0][None])
        with pytest.raises(JordanStructureError, match="zero or not finite"):
            blockdiag._gauged(factor, *chain)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_array_gauge_is_the_per_vector_rule_bit_for_bit(self, kind, n):
        # the eigenvector heads of a block, gathered in a shuffled order as
        # contiguous rows, against the rule applied to each strided column
        rng = np.random.default_rng(n)
        H = rng.standard_normal((n, n))
        if kind == "complex":
            H = H + 1j * rng.standard_normal((n, n))
        V = eigensystem(H)[1]
        perm = rng.permutation(n)
        heads = V.T[perm]
        for factor, head, col in zip(blockdiag._canonical_gauge(heads), heads, perm):
            (want,) = per_vector_gauge([V[:, col]])
            assert blockdiag._gauged(factor, head)[0].tobytes() == want.tobytes()

    def test_array_gauge_is_the_per_vector_rule_on_chains(self):
        # heads of every scale, some led by zero or tiny components, so that
        # the pivot is not always the first entry, on chains of length 1-3
        rng = np.random.default_rng(3)
        chains = []
        for k in range(60):
            chain = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(k % 3 + 1)]
            chain[0] *= 10.0 ** rng.integers(-150, 150)
            chain[0][:k % 4] *= [0.0, 1e-13, 1e-11][:k % 4]
            chains.append(chain)
        factors = blockdiag._canonical_gauge(np.array([c[0] for c in chains]))
        for factor, chain in zip(factors, chains):
            got, want = blockdiag._gauged(factor, *chain), per_vector_gauge(chain)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    @pytest.mark.parametrize("bad", [0.0, np.nan, 1e200])
    def test_a_refused_head_leaves_the_others_their_bits(self, bad):
        heads = np.random.default_rng(4).standard_normal((5, 4)) + 0j
        heads[2] = bad
        with np.errstate(over="ignore"):  # the norm of 1e200 entries overflows
            factors = blockdiag._canonical_gauge(heads)
        assert np.isnan(factors).tolist() == [r == 2 for r in range(5)]
        for r in (0, 1, 3, 4):
            assert factors[r].tobytes() == blockdiag._canonical_gauge(heads[r:r + 1])[0].tobytes()


    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_multiply_gauges_each_head_as_alone(self, kind):
        # every eigenvector head of a block, gathered as _decompose gathers
        # them, some refused, scaled by one multiply against factor * v
        # per head; the order matters, heads * factors differs in the bits
        rng = np.random.default_rng(5)
        Hs = rng.standard_normal((16, 8, 8))
        if kind == "complex":
            Hs = Hs + 1j * rng.standard_normal((16, 8, 8))
        vectors = eigensystem_stack(Hs.astype(complex))[1]
        heads = np.swapaxes(vectors, 1, 2).reshape(-1, 8)[rng.permutation(128)]
        heads[[3, 40, 77]] = [[0.0], [np.nan], [np.inf]]
        factors = blockdiag._canonical_gauge(heads)
        assert np.isnan(factors).nonzero()[0].tolist() == [3, 40, 77]
        for factor, head, got in zip(factors, heads, factors[:, None] * heads):
            if np.isnan(factor):
                with pytest.raises(JordanStructureError, match="zero or not finite"):
                    blockdiag._gauged(factor, head)
            else:
                assert got.tobytes() == (factor * head).tobytes()
                assert got.tobytes() == blockdiag._gauged(factor, head)[0].tobytes()

    def test_a_refused_simple_head_refuses_only_its_row(self, monkeypatch):
        # every basis column of a simple cluster carries the bits of the
        # scalar head rule on its eigenvector; a head refused by the gauge
        # ends its own row with the staircase's message, and only that row
        gauge = blockdiag._canonical_gauge

        def refuse_third(heads):
            factors = gauge(heads)
            factors[2] = np.nan
            return factors

        Hs = np.random.default_rng(6).standard_normal((3, 4, 4)) + 0j
        monkeypatch.setattr(blockdiag, "_canonical_gauge", refuse_third)
        block = blockdiag.decompose_stack(Hs, blockdiag.DEFAULT_TOL, fro_rows(Hs),
                                          eigensystem_stack(Hs))
        assert list(block.errors) == [0] and block.rows == [1, 2]
        assert isinstance(block.errors[0], JordanStructureError)
        assert str(block.errors[0]) == "chain head is zero or not finite"
        for H, bd in zip(Hs[1:], blockdiag._decompositions(block)):
            values, vectors = eigensystem(H)
            for col, (n, *_) in enumerate(bd.table.labels()):
                (j,) = np.flatnonzero(values + 0.0 == bd.table.clusters[n].value)
                (want,) = per_vector_gauge([vectors[:, j]])
                assert bd.A[:, col].tobytes() == want.tobytes()


class TestStaircaseStop:
    """The staircase stops once its kernel holds the cluster's size: a
    cluster whose longest chain is q makes q SVDs.  Each H has one more,
    simple, eigenvalue, so that a staircase run to stabilization, the rule
    of a direct call without ``size``, makes one SVD more."""

    @staticmethod
    def behind_a_basis(ps, seed=0):
        J = jordan_matrix([(0.5, ps), (-1.0, [1])])
        W = well_conditioned(np.random.default_rng(seed), J.shape[0])
        return W @ J @ np.linalg.inv(W)

    @pytest.mark.parametrize("ps", [[2], [3], [4], [5], [3, 1], [1, 1]],
                             ids=["J2", "J3", "J4", "J5", "J3+J1", "semisimple-double"])
    def test_a_cluster_with_longest_chain_q_makes_q_svds(self, monkeypatch, ps):
        H = self.behind_a_basis(ps)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        stopped = jordan_chains(H, 0.5, size=sum(ps))
        assert len(svds) == max(ps)
        assert [len(c) for c in stopped] == ps
        # without size the staircase confirms with one more SVD, and the
        # chains keep every bit
        full = jordan_chains(H, 0.5)
        assert len(svds) == 2 * max(ps) + 1
        assert ([[v.tobytes() for v in c] for c in full]
                == [[v.tobytes() for v in c] for c in stopped])

    def test_decompose_passes_each_cluster_its_size(self, monkeypatch):
        calls = count_calls(monkeypatch, blockdiag, "jordan_chains")
        bd = block_diagonalize(self.behind_a_basis([3, 1]))
        assert [c.p_list for c in bd.table.clusters] == [(1,), (3, 1)]
        assert [args[3] for args in calls] == [4]

    def test_a_kernel_past_the_size_gives_chains_past_it(self):
        # J2 + J2 at a size of 3: the kernel jumps from 2 to 4 dimensions,
        # and decompose_stack refuses the sum 4 as disagreeing with the
        # clustered eigenvalue count
        chains = jordan_chains(self.behind_a_basis([2, 2]), 0.5, size=3)
        assert [len(c) for c in chains] == [2, 2]

    @pytest.mark.parametrize("size", [0, 4, 2.0, "2"])
    def test_size_must_be_an_integer_in_1_to_n(self, size):
        with pytest.raises(ValueError, match=re.escape(f"size must be an integer in 1..3, "
                                                       f"got {size!r}")):
            jordan_chains(jordan_matrix([(0.5, [2]), (1.0, [1])]), 0.5, size=size)


class TestStaircaseInconsistency:
    """Kernel staircases that no matrix gives, stubbed in, end the chain
    build with a JordanStructureError."""

    @staticmethod
    def stub(monkeypatch, kernels):
        monkeypatch.setattr(blockdiag, "_kernel_staircase",
                            lambda N, tol, center, size: (kernels, 1e-12))

    def test_a_growing_kernel_increment_is_refused(self, monkeypatch):
        # ker N gains 1 dimension and ker N^2 then 2: a Jordan structure
        # has no more chains of length 2 or more than of length 1 or more
        e = np.eye(3, dtype=complex)
        self.stub(monkeypatch, [e[:, :0], e[:, :1], e])
        with pytest.raises(JordanStructureError, match="kernel dimensions are inconsistent at "
                                                       "power 2: increment grew from 1 to 2"):
            jordan_chains(np.zeros((3, 3)), 0.0)

    def test_a_chain_top_inside_the_lower_kernel_is_refused(self, monkeypatch):
        # ker N^2 given as two copies of ker N: no new top lies outside it
        e = np.eye(2, dtype=complex)
        self.stub(monkeypatch, [e[:, :0], e[:, :1], e[:, [0, 0]]])
        with pytest.raises(JordanStructureError,
                           match="could not find an independent chain top at power 2"):
            jordan_chains(jordan_matrix([(0.0, [2])]), 0.0)


class TestBlockDiagonalize:
    def test_hermitian_diagonal(self):
        bd = block_diagonalize(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(bd.H0, np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(np.abs(bd.A.conj().T @ bd.A), np.eye(3))  # permutation
        assert bd.recon_residual < 1e-12

    def test_scatter_hamiltonian_structure(self):
        for x, k in [(0.0, 1.0), (0.7, 0.5), (np.pi / 4, 2.0)]:
            bd = block_diagonalize(scatter_hamiltonian(x, k))
            assert len(bd.table.clusters) == 1
            c = bd.table.clusters[0]
            assert abs(c.value) < 1e-10
            assert c.p_list == (2,)
            assert np.allclose(bd.H0, np.array([[0.0, 1.0], [0.0, 0.0]]))
            assert bd.table.labels() == [(0, 0, 1), (0, 0, 2)]

    def test_reconstruction_and_chain_identities(self):
        rng = np.random.default_rng(42)
        structure = [(1.5, [2, 1]), (-0.5 + 1j, [2]), (-0.5 - 1j, [2])]
        J = jordan_matrix(structure)
        A0 = well_conditioned(rng, J.shape[0])
        H = A0 @ J @ np.linalg.inv(A0)
        bd = block_diagonalize(H, tol=1e-6)
        scale = fro(H)
        assert bd.recon_residual <= 1e-8 * bd.cond_A
        # head and link identities in the assembled basis
        for col, (n, a, i) in enumerate(bd.table.labels()):
            E = bd.table.clusters[n].value
            v = bd.A[:, col]
            if i == 1:
                assert np.linalg.norm(H @ v - E * v) <= 1e-8 * scale
            else:
                assert np.linalg.norm(H @ v - E * v - bd.A[:, col - 1]) <= 1e-8 * scale

    def test_canonicalization_is_idempotent(self):
        rng = np.random.default_rng(3)
        structure = [(0.0, [2]), (1.0, [1, 1])]
        J = jordan_matrix(structure)
        A0 = well_conditioned(rng, 4)
        H = A0 @ J @ np.linalg.inv(A0)
        bd1 = block_diagonalize(H, tol=1e-6)
        rebuilt = bd1.A @ bd1.H0 @ np.linalg.inv(bd1.A)
        bd2 = block_diagonalize(rebuilt, tol=1e-6)
        assert [(c.p_list) for c in bd1.table.clusters] == [(c.p_list) for c in bd2.table.clusters]
        assert all(
            abs(c1.value - c2.value) < 1e-8
            for c1, c2 in zip(bd1.table.clusters, bd2.table.clusters)
        )

    @pytest.mark.parametrize("varpi", [2.0, 1.5])
    def test_closed_form_triple_shares_the_assembly(self, varpi):
        # varpi = 2 is the exceptional point of level 2, where its pair
        # coalesces into a length-2 chain; varpi = 1.5 has simple clusters only
        bd = closed_form_block_diagonalization(ModelSpec((1.0, 4.0), varpi))
        n = bd.A.shape[0]
        expected = np.zeros((n, n), dtype=complex)
        for col, (c, _, i) in enumerate(bd.table.labels()):
            expected[col, col] = bd.table.clusters[c].value
            if i >= 2:
                expected[col - 1, col] = 1.0
        assert np.array_equal(bd.H0, expected)
        chains = [p for c in bd.table.clusters for p in c.p_list]
        assert chains.count(2) == (1 if varpi == 2.0 else 0)
        assert bd.recon_residual < 1e-12

    def test_ill_conditioned_basis_is_reported(self):
        # a length-2 chain with a huge superdiagonal scale forces cond(A)
        # to about 1e14, beyond the fixed limit of 1e12
        H = np.array([[0.0, 1e14], [0.0, 0.0]])
        with pytest.raises(IllConditionedBasisError):
            block_diagonalize(H)


class TestFromChainsAcceptance:
    """``from_chains`` judges a basis by the rule ``decide`` applies."""

    H = np.diag([1.0, 2.0]).astype(complex)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    # cond [[1, 1], [0, 1e-12]] is about 2e12; [[1, 1], [0, 0]] is singular
    @pytest.mark.parametrize("tail", [1e-12, 0.0], ids=["cond-2e12", "singular"])
    def test_basis_beyond_the_condition_limit_is_refused(self, tail):
        with pytest.raises(IllConditionedBasisError, match="exceeds limit 1.0e[+]12"):
            from_chains(self.H, [1.0, 2.0], [[[self.e1]], [[self.e1 + tail * self.e2]]])

    def test_refused_basis_is_never_inverted(self, monkeypatch):
        # cond 2e12 lies between COND_LIMIT and 1 / (1e3 eps), about 4.5e12,
        # which an explicit inversion would still accept: the one rule on
        # cond(A) refuses it before any inversion
        tail = self.e1 + 1e-12 * self.e2
        assert COND_LIMIT < np.linalg.cond(np.column_stack((self.e1, tail))) < 1 / (1e3 * EPS)
        invs = count_calls(monkeypatch, np.linalg, "inv")
        with pytest.raises(IllConditionedBasisError, match="exceeds limit 1.0e[+]12"):
            from_chains(self.H, [1.0, 2.0], [[[self.e1]], [[tail]]])
        assert invs == []

    def test_mixed_block_inverts_only_its_accepted_rows(self, monkeypatch):
        # a well-conditioned basis, one at cond 2e12, another and a singular
        # one: inv sees rows 0 and 2 alone, in one call, and each keeps the
        # bits of its own inversion
        A = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1e-12]], [[1.0, 0.5], [0.0, 1.0]],
                      [[1.0, 1.0], [0.0, 0.0]]], dtype=complex)
        Hs = np.stack([self.H] * 4)
        table = SpectralTable((EigenCluster(1.0, (1,)), EigenCluster(2.0, (1,))))
        invs = count_calls(monkeypatch, np.linalg, "inv")
        block = blockdiag._assemble(Hs, fro_rows(Hs), np.ones(4, dtype=bool), A,
                                    BlockSpectra.of([table] * 4))
        assert block.rows == [0, 2] and sorted(block.errors) == [1, 3]
        assert all(isinstance(e, IllConditionedBasisError) for e in block.errors.values())
        assert len(invs) == 1 and np.array_equal(invs[0][0], A[[0, 2]])
        for r, row in enumerate((0, 2)):
            assert block.A_inv[r].tobytes() == np.linalg.inv(A[row]).tobytes()

    def test_non_finite_H_is_refused(self):
        H = self.H.copy()
        H[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            from_chains(H, [1.0, 2.0], [[[self.e1]], [[self.e2]]])

    # each is refused before any arithmetic, which would drop an extra
    # center, fail in a reshape on a missing one, give a NaN reconstruction
    # for a non-finite center and a failed SVD for a NaN chain entry
    @pytest.mark.parametrize("centers, chain_sets, match", [
        ([1.0, 2.0, 3.0], [[[e1]], [[e2]]], "centers must be 2 finite values"),
        ([1.0], [[[e1]], [[e2]]], "centers must be 2 finite values"),
        ([np.inf, 2.0], [[[e1]], [[e2]]], "centers must be 2 finite values"),
        ([np.nan, 2.0], [[[e1]], [[e2]]], "centers must be 2 finite values"),
        ([1.0, 2.0], [[[np.array([np.nan, 0.0])]], [[e2]]],
         "chain_sets must give 2 finite columns of dimension 2"),
    ], ids=["extra-center", "missing-center", "inf-center", "nan-center", "nan-chain-entry"])
    def test_malformed_centers_or_chains_are_refused(self, centers, chain_sets, match):
        with pytest.raises(ValueError, match=match):
            from_chains(self.H, centers, chain_sets)


class TestBiorthonormalComplement:
    def test_unitary_case_degenerates_to_the_same_columns(self):
        bd = block_diagonalize(np.diag([1.0, 2.0, 4.0]))
        phi = biorthonormal_complement(bd)
        assert np.max(np.abs(phi - bd.A)) < 1e-12

    def test_biorthonormality_and_completeness(self):
        rng = np.random.default_rng(12)
        structure = [(0.3, [2, 1]), (2.0, [1]), (1j, [1]), (-1j, [1])]
        J = jordan_matrix(structure)
        A0 = well_conditioned(rng, J.shape[0])
        H = A0 @ J @ np.linalg.inv(A0)
        bd = block_diagonalize(H, tol=1e-6)
        phi = biorthonormal_complement(bd)
        n = J.shape[0]
        assert fro(phi.conj().T @ bd.A - np.eye(n)) < 1e-10
        assert fro(bd.A @ phi.conj().T - np.eye(n)) < 1e-10

    def test_scatter_dual_basis_in_reference_gauge(self):
        # dual columns of the reference chain basis; the value is fixed by
        # biorthonormality against A = exp(-ikx sigma3) [[1,1],[-1,0]]
        for x, k in [(0.0, 1.0), (0.6, 0.8)]:
            H = scatter_hamiltonian(x, k, v=2 * k)
            bd = block_diagonalize(H)
            D = np.diag([np.exp(-1j * k * x), np.exp(1j * k * x)])
            A_ref = D @ np.array([[1.0, 1.0], [-1.0, 0.0]])
            ref = from_chains(H, [bd.table.clusters[0].value], [[[A_ref[:, 0], A_ref[:, 1]]]])
            phi = biorthonormal_complement(ref)
            want = np.column_stack([D @ [0.0, -1.0], D @ [1.0, 1.0]])
            assert np.max(np.abs(phi - want)) < 1e-12


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through wrapper; returns its call list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEigensolverHeads:
    def test_simple_spectrum_skips_the_staircase(self, monkeypatch):
        H = np.random.default_rng(64).standard_normal((64, 64))
        calls = count_calls(monkeypatch, blockdiag, "jordan_chains")
        bd = block_diagonalize(H)
        assert calls == []
        assert all(c.p_list == (1,) for c in bd.table.clusters)
        assert bd.recon_residual < 1e-12
        # the frozen head rule: unit norm, first significant component real positive
        for col in range(64):
            v = bd.A[:, col]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
            pivot = v[np.nonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0][0]]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-15

    def test_heads_match_the_staircase(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        bd = block_diagonalize(H)
        for col, cluster in enumerate(bd.table.clusters):
            (chain,) = jordan_chains(H, cluster.value)
            assert np.linalg.norm(bd.A[:, col] - chain[0]) < 1e-12

    def test_split_jordan_chain_goes_to_the_staircase(self, monkeypatch):
        # a J3(E) + J1(E) cluster behind a complex basis, normalized to
        # |H|_F = 1, like the real clusters of the jordan-census benchmark:
        # rounding splits it into simple eigenvalues about eps**(1/3) apart,
        # whose perturbation discs overlap, so they merge into one cluster
        # and none of them may take an eigenvector as a one-slot chain and
        # leave an unpaired complex value
        J = jordan_matrix([(0.75, [3, 1])])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            H = W @ J @ np.linalg.inv(W)
            H /= np.linalg.norm(H)
            calls = count_calls(monkeypatch, blockdiag, "jordan_chains")
            assert decide(H).verdict != NOT_PSEUDO_HERMITIAN
            assert calls
            monkeypatch.undo()

    def test_simple_clusters_beside_a_split_chain_skip_the_staircase(self, monkeypatch):
        # a row whose split J2 chain must merge still takes its two simple
        # eigenvalues straight from the eigensolve: one staircase, at the chain
        J = jordan_matrix([(0.75, [2]), (3.0, [1]), (-2.0, [1])])
        rng = np.random.default_rng(11)
        W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = W @ J @ np.linalg.inv(W)
        scale = np.linalg.norm(H)
        calls = count_calls(monkeypatch, blockdiag, "jordan_chains")
        bd = block_diagonalize(H / scale)
        assert [c.p_list for c in bd.table.clusters] == [(1,), (2,), (1,)]
        assert len(calls) == 1 and abs(calls[0][1] - 0.75 / scale) < 1e-6
        assert bd.recon_residual < 1e-10

    def test_the_staircase_takes_no_two_norm_of_H(self, monkeypatch):
        # its floor comes from its own first SVD and the cluster center
        original = np.linalg.norm

        def no_two_norm(x, ord=None, *args, **kwargs):
            assert ord != 2, "a 2-norm is one more SVD"
            return original(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", no_two_norm)
        J = jordan_matrix([(0.75, [3, 1]), (-1.0, [1])])
        W = well_conditioned(np.random.default_rng(2), 5)
        calls = count_calls(monkeypatch, blockdiag, "jordan_chains")
        bd = block_diagonalize(W @ J @ np.linalg.inv(W), tol=1e-6)
        assert calls
        assert [c.p_list for c in bd.table.clusters] == [(1,), (3, 1)]

    def test_eigensolver_failure_is_inconclusive(self, monkeypatch):
        def no_convergence(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(EigensolveError):
            block_diagonalize(np.diag([1.0, 2.0]))
        assert decide(np.diag([1.0, 2.0])).verdict == INCONCLUSIVE


def split_chain_pair(seed):
    """J3(z) + J3(conj z) behind a complex Gaussian basis, |H|_F = 1: rounding
    splits each chain into three simple eigenvalues about 2e-6 apart."""
    z = 0.6 + 0.9j
    J = jordan_matrix([(z, [3]), (np.conj(z), [3])])
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = W @ J @ np.linalg.inv(W)
    return H / np.linalg.norm(H)


class TestDiscClustering:
    def test_split_chains_merge_on_the_default_profile(self):
        # the floor alone (1e-8 |H|_F) leaves six clusters here, of which
        # the staircase finds no conjugate partners
        cert = decide(split_chain_pair(0))
        assert cert.verdict == PSEUDO_HERMITIAN
        assert [c.p_list for c in cert.table.clusters] == [(3,), (3,)]

    def test_one_svd_per_join(self, monkeypatch):
        # three pieces per chain overlap pairwise: two joins make one
        # cluster, and the third pair is skipped without an SVD
        H = split_chain_pair(0)
        values, vectors = np.linalg.eig(H)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        out = cluster_eigenvalues(values, 1e-8 * fro(H), H, vectors)
        assert out.multiplicities == (3, 3)
        assert len(svds) == 4

    def test_a_rejection_settles_the_midpoints_near_it(self, monkeypatch):
        # lambda = (1, 4), varpi = 2: both pieces of the coalesced pair at 0
        # overlap -sqrt(3) and +sqrt(3), so there are four midpoints, two at
        # each of +-sqrt(3)/2.  sigma_min there is about 3.4e6 times the
        # cutoff, and sigma_min is 1-Lipschitz in z: one SVD per side settles both
        H = build_H(ModelSpec((1.0, 4.0), 2.0))
        values, vectors = np.linalg.eig(H)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        out = cluster_eigenvalues(values, 1e-8 * fro(H), H, vectors)
        assert out.multiplicities == (1, 2, 1)
        assert len(svds) == 2

    def test_repeated_eigenvectors_leave_the_floor_to_decide(self):
        # eig can return an exactly coalesced pair with two equal vectors,
        # as at lambda = (1.6, 12.96), varpi = sqrt(12.96); inv(V) then does
        # not exist.  Unbounded discs would test the midpoint 0 of -1 and 1,
        # where the pair itself makes sigma_min vanish, and merge them
        H = jordan_matrix([(-1.0, [1]), (1.0, [1]), (0.0, [2])])
        vectors = np.eye(4)
        vectors[:, 3] = vectors[:, 2]
        out = cluster_eigenvalues([-1.0, 1.0, 0.0, 0.0], 1e-8 * fro(H), H, vectors)
        assert out.multiplicities == (1, 2, 1)

    def test_a_failed_merge_confirmation_raises(self, monkeypatch):
        # the error that ends the union-find of the one row is raised, where
        # a row of a block would end inconclusive
        H = split_chain_pair(0)
        values, vectors = np.linalg.eig(H)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            cluster_eigenvalues(values, 1e-8 * fro(H), H, vectors)

    def test_overlap_needs_pseudospectral_confirmation(self):
        # lambda = (1, 4), varpi = 2: the coalesced pair at 0 has kappa near
        # 6e15, so its disc (radius 18) covers +-sqrt(3), but sigma_min of
        # H - z at the midpoints is far above sqrt(n eps) |H|_F
        cert = decide(build_H(ModelSpec((1.0, 4.0), 2.0)))
        assert cert.verdict == PSEUDO_HERMITIAN
        assert [c.algebraic for c in cert.table.clusters] == [1, 2, 1]
        assert cert.table.clusters[1].p_list == (2,)


def union_find_rows(Hs):
    """The clustering of a block by :func:`blockdiag._clusters` at the
    default floor, and the rows on which it ran the union-find."""
    rows = []
    cluster_row = blockdiag._cluster_row

    def spy(vals, dist, joined, overlap, H, scale):
        (row,) = [i for i, M in enumerate(Hs) if np.array_equal(M, H)]
        rows.append(row)
        return cluster_row(vals, dist, joined, overlap, H, scale)

    values, vectors, _ = eigensystem_stack(Hs)
    scale = fro_rows(Hs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockdiag, "_cluster_row", spy)
        out = blockdiag._clusters(values, vectors, Hs, blockdiag.DEFAULT_TOL * scale, scale)
    return out, rows


def test_plain_rows_get_the_union_find_clusters():
    # a row with no merge candidate takes its clusters from one array
    # expression for the whole block: they are those that the union-find
    # finds on the row, bit for bit, -0.0 parts included
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 8, 16):
        Hs = rng.standard_normal((40, n, n)) + 0j
        Hs[:20] += 1j * rng.standard_normal((20, n, n))
        # eigenvalues with -0.0 imaginary parts, where the union-find's mean
        # of one member, sum() / 1, has +0.0; the 1e-3j keeps the row complex
        Hs[5] = np.diag(-np.arange(n) + 0j)
        Hs[5].imag = -0.0
        Hs[5, -1, 0] += 1e-3j if n > 1 else 0.0
        out, merge_rows = union_find_rows(Hs)
        plain = [i for i in range(len(Hs)) if i not in merge_rows]
        assert len(plain) > 30 and not out.errors and 5 in plain
        assert np.signbit(out.vals[5].imag).all() or n == 1
        none, scale = np.zeros((n, n), dtype=bool), fro_rows(Hs)  # a plain row has no pair
        for i in plain:
            want, want_sizes, want_first = blockdiag._cluster_row(
                out.vals[i], out.dist[i], none, none, Hs[i], scale[i])
            assert out.centers[i].tobytes() == np.array(want).tobytes()
            assert out.sizes[i].tolist() == want_sizes and out.first[i].tolist() == want_first


class TestStoredInverse:
    def test_cond_A_is_stored(self, monkeypatch):
        rng = np.random.default_rng(8)
        bd = block_diagonalize(rng.standard_normal((8, 8)))
        svds = count_calls(monkeypatch, np.linalg, "svd")
        first, second = bd.cond_A, bd.cond_A
        assert svds == []
        assert first == second
        assert first == pytest.approx(np.linalg.cond(bd.A), rel=1e-12)

    def test_A_inv_inverts_A(self):
        rng = np.random.default_rng(9)
        structure = [(1.0, [2, 1]), (0.5j, [1]), (-0.5j, [1])]
        J = jordan_matrix(structure)
        A0 = well_conditioned(rng, J.shape[0])
        bd = block_diagonalize(A0 @ J @ np.linalg.inv(A0), tol=1e-6)
        n = J.shape[0]
        assert fro(bd.A_inv @ bd.A - np.eye(n)) < 1e-12
        assert np.array_equal(biorthonormal_complement(bd), bd.A_inv.conj().T)

    def test_one_inversion_per_decide(self, monkeypatch):
        # A is inverted once in block_diagonalize; the only other inversion
        # is of the eigenvector matrix, and the witnesses reuse inv(A)
        rng = np.random.default_rng(10)
        H = rng.standard_normal((16, 16))
        invs = count_calls(monkeypatch, np.linalg, "inv")
        svds = count_calls(monkeypatch, np.linalg, "svd")
        assert decide(H).verdict == "pseudo_hermitian"
        assert len(invs) == 2
        assert len(svds) == 1
