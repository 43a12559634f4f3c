import numpy as np
import pytest

from pseudospec import symmetry
from pseudospec.antilinear import AntilinearOp, is_hermitian, is_involution
from pseudospec.blockdiag import EigenCluster, SpectralTable, block_diagonalize
from pseudospec.linalg import SingularMatrixError, fro, inverse
from pseudospec.certify import (
    PSEUDO_HERMITIAN,
    decide,
    residual_commute_antilinear,
    residual_hermitian_metric,
    residual_intertwine_antilinear,
    residual_intertwine_linear,
    residual_involution,
)
from pseudospec.symmetry import (
    PairingError,
    build_C0,
    build_S,
    build_Theta,
    build_X,
    build_X0,
    build_eta0,
    build_metric_eta,
    build_tau,
    build_tau0,
    check_pairing,
    classify_spectrum,
    gamma_from_tau_X,
    synthesize_operators,
)
from tests.test_blockdiag import count_calls, jordan_matrix, scatter_hamiltonian, well_conditioned

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def table(*clusters):
    return SpectralTable(tuple(EigenCluster(v, tuple(p)) for v, p in clusters))


class TestClassify:
    def test_all_real(self):
        lab = classify_spectrum(table((1.0, [1]), (2.0, [1])))
        assert lab.real_clusters == (0, 1)
        assert lab.pairs == () and lab.unpaired == ()

    def test_two_band_model_below_first_threshold(self):
        # lambda = [1, 4], varpi = 0.5: two imaginary conjugate pairs
        e1, e2 = 1j * np.sqrt(0.75), 1j * np.sqrt(3.75)
        lab = classify_spectrum(table((-e2, [1]), (-e1, [1]), (e1, [1]), (e2, [1])))
        assert lab.real_clusters == ()
        assert sorted(lab.pairs) == [(2, 1), (3, 0)]
        assert lab.unpaired == ()

    def test_lone_complex_value_is_unpaired(self):
        lab = classify_spectrum(table((1.0 + 1j, [1])))
        assert lab.unpaired == (0,)

    def test_real_axis_tolerance_wins_over_pairing(self):
        # both members of a nearly coalesced pair are classified real
        lab = classify_spectrum(table((1.0 - 1e-12j, [1]), (1.0 + 1e-12j, [1])))
        assert lab.real_clusters == (0, 1)
        assert lab.pairs == ()


class TestPairing:
    def test_real_spectrum_passes(self):
        t = table((1.0, [1]), (2.0, [2]))
        assert check_pairing(classify_spectrum(t), t).ok

    def test_matched_chain_lists_pass(self):
        t = table((1j, [2, 1]), (-1j, [2, 1]))
        assert check_pairing(classify_spectrum(t), t).ok

    def test_mismatched_chain_lists_fail_with_names(self):
        t = table((1j, [2, 1]), (-1j, [3]))
        rep = check_pairing(classify_spectrum(t), t)
        assert not rep.ok and "Jordan dimensions" in rep.detail

    def test_unpaired_cluster_fails_with_name(self):
        t = table((1.0, [1]), (2.0 + 1j, [1]))
        rep = check_pairing(classify_spectrum(t), t)
        assert not rep.ok and "no conjugate partner" in rep.detail

    def test_scatter_table_passes(self):
        t = table((0.0, [2]))
        assert check_pairing(classify_spectrum(t), t).ok


class TestPermutationBuilders:
    def test_S_identity_for_simple_chains(self):
        assert np.array_equal(build_S(table((1.0, [1]), (2.0, [1]))), np.eye(2))

    def test_S_is_swap_for_one_double_chain(self):
        assert np.array_equal(build_S(table((0.0, [2]))), SIGMA_1)

    def test_S_antidiagonal_for_length_three(self):
        S = build_S(table((0.0, [3])))
        assert np.array_equal(S, np.fliplr(np.eye(3)))

    def test_S_mixed_chain_lengths(self):
        S = build_S(table((0.0, [2, 1])))
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = want[2, 2] = 1.0
        assert np.array_equal(S, want)

    def test_tau0_matches_S_and_theta_is_conjugation(self):
        t = table((0.0, [2]))
        assert np.array_equal(build_tau0(t).matrix, build_S(t))
        assert np.array_equal(build_Theta(3).matrix, np.eye(3))

    def test_C0_identity_on_real_spectrum(self):
        t = table((0.0, [2]))
        assert np.array_equal(build_C0(classify_spectrum(t), t), np.eye(2))

    def test_C0_swaps_simple_conjugate_pair(self):
        t = table((-1j, [1]), (1j, [1]))
        assert np.array_equal(build_C0(classify_spectrum(t), t), SIGMA_1)

    def test_C0_swaps_paired_chains_slotwise(self):
        t = table((-1j, [2]), (1j, [2]))
        C = build_C0(classify_spectrum(t), t)
        want = np.zeros((4, 4))
        want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 1.0
        assert np.array_equal(C, want)

    def test_C0_refuses_unpaired_spectrum(self):
        t = table((1j, [1]),)
        with pytest.raises(PairingError):
            build_C0(classify_spectrum(t), t)

    def test_eta0_commutes_with_S_and_squares_to_identity(self):
        t = table((-1j, [2, 1]), (1j, [2, 1]), (0.5, [2]))
        S = build_S(t)
        C0 = build_C0(classify_spectrum(t), t)
        assert np.array_equal(C0 @ S, S @ C0)
        eta0 = build_eta0(S, C0)
        assert np.array_equal(eta0 @ eta0, np.eye(t.dimension))
        assert np.array_equal(eta0, eta0.T)

    def test_X0_matrix_is_C0(self):
        # eta0 tau0 = S C0 S conj = C0 conj, so the matrix part is C0
        t = table((-2j, [1]), (2j, [1]), (1.0, [2]))
        lab = classify_spectrum(t)
        S, C0 = build_S(t), build_C0(lab, t)
        X0 = build_X0(build_eta0(S, C0), build_tau0(t))
        assert np.max(np.abs(X0.matrix - C0)) < 1e-15


def paired_instance(rng, structure):
    J = jordan_matrix(structure)
    A0 = well_conditioned(rng, J.shape[0])
    return A0 @ J @ np.linalg.inv(A0)


PAIRED_STRUCTURES = [
    [(1.0, [2]), (0.25, [1])],
    [(1j, [1]), (-1j, [1]), (2.0, [1])],
    [(0.5 + 1j, [2, 1]), (0.5 - 1j, [2, 1])],
    [(0.0, [3]), (1.0 + 0.5j, [1]), (1.0 - 0.5j, [1])],
]


class TestSynthesis:
    def test_tau_on_hermitian_matrix(self):
        H = np.diag([2.0, -1.0, 0.5])
        bd = block_diagonalize(H)
        tau = build_tau(bd, build_tau0(bd.table))
        assert residual_intertwine_antilinear(H, tau) < 1e-12
        assert is_hermitian(tau)[1] < 1e-12

    def test_tau_scatter_reference_gauge(self):
        for x, k in [(0.0, 1.0), (0.3, 1.0), (np.pi / 4, 0.5)]:
            from pseudospec.scattering import pipeline_operators_reference_gauge

            ops, _ = pipeline_operators_reference_gauge(x, k, v=2 * k)
            want = np.array([[0.0, -1.0], [-1.0, -2.0 * np.exp(2j * k * x)]])
            assert np.max(np.abs(ops.tau.matrix - want)) < 1e-10

    def test_tau_two_band_reference_gauge_is_inverse_square_basis(self):
        from pseudospec.truncated import (
            ModelSpec,
            closed_form_basis,
            reference_gauge_tau,
        )

        spec = ModelSpec((1.0, 4.0), 1.5)
        K = reference_gauge_tau(spec).matrix
        want = closed_form_basis(spec)[1]
        want = want @ want
        assert np.max(np.abs(K - want)) < 1e-12

    @pytest.mark.parametrize("structure", PAIRED_STRUCTURES)
    def test_full_witness_set_on_paired_instances(self, structure):
        rng = np.random.default_rng(hash(str(structure)) % 2**32)
        H = paired_instance(rng, structure)
        bd = block_diagonalize(H, tol=1e-5)
        ops = synthesize_operators(bd)
        assert residual_intertwine_antilinear(H, ops.tau) < 1e-8
        assert is_hermitian(ops.tau)[1] < 1e-10
        assert residual_involution(ops.X) < 1e-8
        assert residual_commute_antilinear(H, ops.X) < 1e-8
        herm, inter = residual_hermitian_metric(H, ops.eta)
        assert herm < 1e-12 and inter < 1e-8
        assert residual_intertwine_linear(H, gamma_from_tau_X(ops.tau, ops.X)) < 1e-8
        # block-basis identities are permutation-exact
        assert np.array_equal(ops.C0 @ ops.S, ops.S @ ops.C0)
        assert np.array_equal(ops.eta0 @ ops.tau0.matrix, ops.tau0.matrix @ ops.eta0)
        assert is_involution(ops.X0)[0] and is_hermitian(ops.X0)[0]
        dim = ops.S.shape[0]
        for M in (ops.S, ops.C0, ops.eta0):
            assert np.array_equal(M, M.conj().T)
            assert np.array_equal(M @ M, np.eye(dim))
        assert is_hermitian(ops.tau0)[0] and is_involution(ops.tau0)[0]

    def test_no_random_metric_can_rescue_an_unpaired_spectrum(self):
        # spot-check of the converse direction: with an orphan complex
        # cluster, no Hermitian candidate comes close to intertwining
        rng = np.random.default_rng(31)
        H = paired_instance(rng, [(0.5 + 1.5j, [1]), (1.0, [1]), (-1.0, [1])])
        best = np.inf
        for _ in range(300):
            G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            G = G + G.conj().T
            best = min(best, residual_hermitian_metric(H, G)[1])
        assert best > 1e-3

    def test_tau_exists_without_pairing(self):
        # the adjoint witness needs no conjugate pairing at all
        rng = np.random.default_rng(77)
        structure = [(0.3 + 0.7j, [2]), (1.0, [1])]  # unpaired complex cluster
        H = paired_instance(rng, structure)
        bd = block_diagonalize(H, tol=1e-5)
        tau = build_tau(bd, build_tau0(bd.table))
        assert residual_intertwine_antilinear(H, tau) < 1e-8
        assert is_hermitian(tau)[1] < 1e-10
        with pytest.raises(PairingError):
            synthesize_operators(bd)

    def test_metric_on_hermitian_input_is_positive(self):
        H = np.diag([1.0, 3.0, -2.0])
        bd = block_diagonalize(H)
        ops = synthesize_operators(bd)
        w = np.linalg.eigvalsh(ops.eta)
        assert np.all(w > 0.1)

    def test_scatter_metric_and_its_nonuniqueness(self):
        # the synthesized eta intertwines, and so does the unrelated
        # constant metric diag(1, -1): metrics are not unique
        H = scatter_hamiltonian(0.4, 1.0)
        bd = block_diagonalize(H)
        ops = synthesize_operators(bd)
        herm, inter = residual_hermitian_metric(H, ops.eta)
        assert herm < 1e-12 and inter < 1e-10
        herm3, inter3 = residual_hermitian_metric(H, np.diag([1.0, -1.0]))
        assert herm3 == 0.0 and inter3 < 1e-15

    def test_gamma_frozen_example(self):
        # tau = X = conjugation gives the identity
        gamma = gamma_from_tau_X(build_Theta(2), build_Theta(2))
        assert np.array_equal(gamma, np.eye(2))
        # two-level closed forms at x = 0: gamma = K_tau conj(K_X)
        H = scatter_hamiltonian(0.0, 1.0, 2.0)
        tau = AntilinearOp(np.array([[0.0, -1.0], [-1.0, -2.0]]))
        X = AntilinearOp(np.eye(2))
        gamma = gamma_from_tau_X(tau, X)
        assert np.array_equal(gamma, tau.matrix)
        assert residual_intertwine_linear(H, gamma) < 1e-15


def offset_S(t):
    """Chain reversal written with explicit starting offsets per chain."""
    S = np.zeros((t.dimension, t.dimension))
    start = 0
    for c in t.clusters:
        for p in c.p_list:
            for i in range(p):
                S[start + p - 1 - i, start + i] = 1.0
            start += p
    return S


def offset_C0(lab, t):
    """Pair swap written with explicit starting offsets per chain."""
    offsets, start = [], 0
    for c in t.clusters:
        offsets.append([])
        for p in c.p_list:
            offsets[-1].append(start)
            start += p
    C = np.zeros((t.dimension, t.dimension))
    for n in lab.real_clusters:
        for sa, p in zip(offsets[n], t.clusters[n].p_list):
            for i in range(p):
                C[sa + i, sa + i] = 1.0
    for n, m in lab.pairs:
        for sa, sb, p in zip(offsets[n], offsets[m], t.clusters[n].p_list):
            for i in range(p):
                C[sb + i, sa + i] = 1.0
                C[sa + i, sb + i] = 1.0
    return C


def sandwich_tau(bd):
    """tau as the symmetrized inverse of the sandwich ``A S A^T``."""
    K = np.conj(np.linalg.inv(bd.A @ offset_S(bd.table) @ bd.A.T))
    return (K + K.T) / 2.0


def graded_instance(seed, n, decades):
    """Real simple spectrum 1..n behind a basis with singular values
    spread over ``decades`` decades."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W = U @ np.diag(np.logspace(0, -decades, n)) @ V
    return W @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(W)


class TestWitnessesFromTheDecomposition:
    @pytest.mark.parametrize("clusters", [
        [(1.0, [3, 1, 1]), (0.5 + 1j, [2, 1]), (0.5 - 1j, [2, 1]), (-2.0, [2, 2])],
        [(0.5 - 1j, [2, 1]), (0.0, [1]), (0.5 + 1j, [2, 1]), (3.0, [2, 1])],
        [(-1j, [2, 1]), (-2j, [3, 2, 2]), (1j, [2, 1]), (2j, [3, 2, 2])],
    ])
    def test_S_and_C0_match_the_offset_loops(self, clusters):
        t = table(*clusters)
        lab = classify_spectrum(t)
        assert np.array_equal(build_S(t), offset_S(t))
        assert np.array_equal(build_C0(lab, t), offset_C0(lab, t))

    @pytest.mark.parametrize("structure", [
        [(0.0, [3]), (1.0 + 0.5j, [1]), (1.0 - 0.5j, [1])],  # defective
        [(0.5 + 1j, [2, 1]), (0.5 - 1j, [2, 1])],  # paired chains
        [(0.3 + 0.7j, [2]), (1.0, [1])],  # unpaired
    ])
    def test_tau_matches_the_inverted_sandwich(self, structure):
        rng = np.random.default_rng(sum(len(p) for _, p in structure))
        bd = block_diagonalize(paired_instance(rng, structure), tol=1e-5)
        want = sandwich_tau(bd)
        assert fro(build_tau(bd, build_tau0(bd.table)).matrix - want) <= 1e-12 * fro(want)

    def test_synthesis_factorizes_nothing(self, monkeypatch):
        rng = np.random.default_rng(12)
        bd = block_diagonalize(paired_instance(rng, PAIRED_STRUCTURES[2]), tol=1e-5)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        invs = count_calls(monkeypatch, np.linalg, "inv")
        synthesize_operators(bd)
        assert svds == [] and invs == []

    def test_synthesis_builds_S_once(self, monkeypatch):
        # tau is lifted from the tau0 that synthesis already holds
        rng = np.random.default_rng(12)
        bd = block_diagonalize(paired_instance(rng, PAIRED_STRUCTURES[2]), tol=1e-5)
        calls = count_calls(monkeypatch, symmetry, "build_S")
        synthesize_operators(bd)
        assert len(calls) == 1

    def test_ill_conditioned_basis_is_certified(self):
        # cond(A S A^T) is about cond(A)^2 here, past the singularity cutoff
        # of an explicit inversion, while inv(A) itself is stored
        H = graded_instance(0, 4, 8)
        cert = decide(H)
        assert 1e7 < cert.cond_A < 1e12
        with pytest.raises(SingularMatrixError):
            inverse(cert.decomposition.A @ cert.witnesses.S @ cert.decomposition.A.T)
        assert cert.verdict == PSEUDO_HERMITIAN
        nH = np.linalg.norm(H)
        tau, X, eta = cert.witnesses.tau.matrix, cert.witnesses.X.matrix, cert.witnesses.eta
        Hh = H.conj().T
        assert np.linalg.norm(Hh @ tau - tau @ H.conj()) < 1e-8 * nH * np.linalg.norm(tau)
        assert np.linalg.norm(tau - tau.T) < 1e-12 * np.linalg.norm(tau)
        assert np.linalg.norm(X @ X.conj() - np.eye(4)) < 1e-8
        assert np.linalg.norm(H @ X - X @ H.conj()) < 1e-8 * nH * np.linalg.norm(X)
        assert np.linalg.norm(Hh @ eta - eta @ H) < 1e-8 * nH * np.linalg.norm(eta)
        assert np.array_equal(eta, eta.conj().T)
