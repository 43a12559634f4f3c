import random
from dataclasses import fields

import numpy as np
import pytest

from pseudospec import scattering, symmetry, truncated
from pseudospec.antilinear import (
    AntilinearOp,
    compose_antilinear_antilinear,
    conjugation,
    is_involution,
)
from pseudospec.blockdiag import BlockSpectra, EigenCluster, SpectralTable, block_diagonalize
from pseudospec.linalg import SingularMatrixError, fro, inverse
from pseudospec.certify import (
    PSEUDO_HERMITIAN,
    decide,
    residual_commute_antilinear,
    residual_intertwine_antilinear,
)
from pseudospec.symmetry import (
    PairingError,
    SymmetryOperators,
    build_tau,
    check_pairing,
    classify_spectrum,
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


def permutations(tables):
    """S and C0 of a block of tables, paired at the default tolerances, as
    the dense (m, n, n) stacks of their index maps: column j of S is
    ``e_flip[j]`` and column j of C0 is ``e_swap[j]``."""
    spectra = BlockSpectra.of(tables)
    maps = symmetry._permutations(spectra, symmetry.label_block(spectra)[1])
    return (np.arange(maps.shape[-1])[:, None] == maps[..., None, :]) * 1.0


def S_and_C0(t):
    """The one-row S and C0 of a table."""
    S, C0 = permutations([t])
    return S[0], C0[0]


class TestPermutationBuilders:
    def test_S_identity_for_simple_chains(self):
        assert np.array_equal(S_and_C0(table((1.0, [1]), (2.0, [1])))[0], np.eye(2))

    def test_S_is_swap_for_one_double_chain(self):
        assert np.array_equal(S_and_C0(table((0.0, [2])))[0], SIGMA_1)

    def test_S_antidiagonal_for_length_three(self):
        S = S_and_C0(table((0.0, [3])))[0]
        assert np.array_equal(S, np.fliplr(np.eye(3)))

    def test_S_mixed_chain_lengths(self):
        S = S_and_C0(table((0.0, [2, 1])))[0]
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = want[2, 2] = 1.0
        assert np.array_equal(S, want)

    def test_tau0_matches_S_and_theta_is_conjugation(self):
        ops = synthesize_operators(block_diagonalize(jordan_matrix([(0.0, [2]), (1.0, [1])])))
        assert np.array_equal(ops.S[:2, :2], SIGMA_1)
        assert np.array_equal(ops.tau0.matrix, ops.S)
        assert np.array_equal(ops.Theta.matrix, np.eye(3))
        # matrix parts are complex, as AntilinearOp.trusted requires
        assert ops.tau0.matrix.dtype == ops.X0.matrix.dtype == complex

    def test_pipeline_and_drivers_share_each_fields_dtype(self):
        # S, C0 and eta0 are real wherever a witness set comes from: the
        # same former makes the permutation-level matrices of all three
        def dtypes(ops):
            return {f.name: getattr(getattr(ops, f.name), "matrix", getattr(ops, f.name)).dtype
                    for f in fields(SymmetryOperators)}

        real = {"S", "C0", "eta0"}
        want = {f.name: np.dtype(float if f.name in real else complex)
                for f in fields(SymmetryOperators)}
        spec = truncated.ModelSpec((1.0, 4.0), 1.5)
        for ops in [decide(truncated.build_H(spec)).witnesses,
                    decide(scatter_hamiltonian(0.3, 1.0)).witnesses,
                    truncated.closed_form_operators(spec),
                    scattering.closed_form_operators(0.3, 1.0)]:
            assert dtypes(ops) == want

    def test_C0_identity_on_real_spectrum(self):
        assert np.array_equal(S_and_C0(table((0.0, [2])))[1], np.eye(2))

    def test_C0_swaps_simple_conjugate_pair(self):
        assert np.array_equal(S_and_C0(table((-1j, [1]), (1j, [1])))[1], SIGMA_1)

    def test_C0_swaps_paired_chains_slotwise(self):
        C = S_and_C0(table((-1j, [2]), (1j, [2])))[1]
        want = np.zeros((4, 4))
        want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 1.0
        assert np.array_equal(C, want)

    def test_C0_refuses_unpaired_spectrum(self):
        bd = block_diagonalize(np.array([[1j]]))
        assert bd.table == table((1j, [1]),)
        with pytest.raises(PairingError):
            synthesize_operators(bd)

    def test_eta0_commutes_with_S_and_squares_to_identity(self):
        structure = [(-1j, [2, 1]), (1j, [2, 1]), (0.5, [2])]
        rng = np.random.default_rng(5)
        ops = synthesize_operators(block_diagonalize(paired_instance(rng, structure), tol=1e-5))
        S, C0, eta0 = ops.S, ops.C0, ops.eta0
        assert not np.array_equal(C0, np.eye(8))
        assert np.array_equal(C0 @ S, S @ C0)
        assert np.array_equal(eta0, S @ C0)
        assert np.array_equal(eta0 @ eta0, np.eye(8))
        assert np.array_equal(eta0, eta0.T)

    def test_X0_matrix_is_C0(self):
        # eta0 tau0 = S C0 S conj = C0 conj, so the matrix part is C0
        rng = np.random.default_rng(6)
        structure = [(-2j, [1]), (2j, [1]), (1.0, [2])]
        bd = block_diagonalize(paired_instance(rng, structure), tol=1e-5)
        ops = synthesize_operators(bd)
        assert np.max(np.abs(ops.X0.matrix - ops.C0)) < 1e-15
        assert is_involution(ops.X0)[0]
        assert residual_commute_antilinear(bd.H0, ops.X0) < 1e-12


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
        tau = build_tau(bd)
        assert residual_intertwine_antilinear(H, tau) < 1e-12
        assert fro(tau.matrix - tau.matrix.T) < 1e-12 * fro(tau.matrix)

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
            closed_form_block_diagonalization,
        )

        spec = ModelSpec((1.0, 4.0), 1.5)
        K = build_tau(closed_form_block_diagonalization(spec)).matrix
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
        assert fro(ops.tau.matrix - ops.tau.matrix.T) < 1e-10 * fro(ops.tau.matrix)
        assert is_involution(ops.X)[1] < 1e-8
        assert residual_commute_antilinear(H, ops.X) < 1e-8
        eta = ops.eta
        assert fro(eta - eta.conj().T) < 1e-12 * fro(eta)
        assert fro(H.conj().T @ eta - eta @ H) < 1e-8 * fro(H) * fro(eta)
        gamma = compose_antilinear_antilinear(ops.tau, ops.X)
        assert fro(H.conj().T @ gamma - gamma @ H) < 1e-8 * fro(H) * fro(gamma)
        # block-basis identities are permutation-exact
        assert np.array_equal(ops.C0 @ ops.S, ops.S @ ops.C0)
        assert np.array_equal(ops.eta0 @ ops.tau0.matrix, ops.tau0.matrix @ ops.eta0)
        assert is_involution(ops.X0)[0] and np.array_equal(ops.X0.matrix, ops.X0.matrix.T)
        dim = ops.S.shape[0]
        for M in (ops.S, ops.C0, ops.eta0):
            assert np.array_equal(M, M.conj().T)
            assert np.array_equal(M @ M, np.eye(dim))
        assert np.array_equal(ops.tau0.matrix, ops.tau0.matrix.T) and is_involution(ops.tau0)[0]

    def test_no_random_metric_can_rescue_an_unpaired_spectrum(self):
        # spot-check of the converse direction: with an orphan complex
        # cluster, no Hermitian candidate comes close to intertwining
        rng = np.random.default_rng(31)
        H = paired_instance(rng, [(0.5 + 1.5j, [1]), (1.0, [1]), (-1.0, [1])])
        best = np.inf
        for _ in range(300):
            G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            G = G + G.conj().T
            best = min(best, fro(H.conj().T @ G - G @ H) / (fro(H) * fro(G)))
        assert best > 1e-3

    def test_tau_exists_without_pairing(self):
        # the adjoint witness needs no conjugate pairing at all
        rng = np.random.default_rng(77)
        structure = [(0.3 + 0.7j, [2]), (1.0, [1])]  # unpaired complex cluster
        H = paired_instance(rng, structure)
        bd = block_diagonalize(H, tol=1e-5)
        tau = build_tau(bd)
        assert residual_intertwine_antilinear(H, tau) < 1e-8
        assert fro(tau.matrix - tau.matrix.T) < 1e-10 * fro(tau.matrix)
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
        for eta, tol in ((ops.eta, 1e-10), (np.diag([1.0, -1.0]), 1e-15)):
            assert fro(eta - eta.conj().T) < 1e-12 * fro(eta)
            assert fro(H.conj().T @ eta - eta @ H) < tol * fro(H) * fro(eta)

    def test_gamma_frozen_example(self):
        # tau = X = conjugation gives the identity
        gamma = compose_antilinear_antilinear(conjugation(2), conjugation(2))
        assert np.array_equal(gamma, np.eye(2))
        # two-level closed forms at x = 0: gamma = K_tau conj(K_X)
        H = scatter_hamiltonian(0.0, 1.0, 2.0)
        tau = AntilinearOp(np.array([[0.0, -1.0], [-1.0, -2.0]]))
        X = AntilinearOp(np.eye(2))
        gamma = compose_antilinear_antilinear(tau, X)
        assert np.array_equal(gamma, tau.matrix)
        assert fro(H.conj().T @ gamma - gamma @ H) < 1e-15 * fro(H) * fro(gamma)


def reference_layout(t, pairs=()):
    """H0, S and C0 of a table slot by slot from its canonical labels: S
    sends slot (n, a, i) to (n, a, p+1-i), and C0 sends it to (m, a, i)
    for each conjugate pair (n, m) in ``pairs`` and fixes it otherwise."""
    labels = t.labels()
    col = {label: j for j, label in enumerate(labels)}
    partner = {}
    for n, m in pairs:
        partner[n], partner[m] = m, n
    H0 = np.zeros((len(labels),) * 2, dtype=complex)
    S, C0 = np.zeros((2, len(labels), len(labels)))
    for j, (n, a, i) in enumerate(labels):
        H0[j, j] = t.clusters[n].value
        if i >= 2:
            H0[j - 1, j] = 1.0
        S[col[n, a, t.clusters[n].p_list[a] + 1 - i], j] = 1.0
        C0[col[partner.get(n, n), a, i], j] = 1.0
    return H0, S, C0


def random_paired_table(rng, n):
    """A table of dimension n with real clusters and conjugate pairs in a
    random order, chains of length up to 5, values far enough apart that
    the default pairing finds every pair."""
    clusters, left, k = [], n, 0
    while left:
        pair = left >= 2 and rng.random() < 0.5
        budget = left // 2 if pair else left
        p_list = []
        while budget and (not p_list or rng.random() < 0.5):
            p_list.append(int(rng.integers(1, min(5, budget) + 1)))
            budget -= p_list[-1]
        p_list = tuple(sorted(p_list, reverse=True))
        k += 1
        values = [complex(k, k), complex(k, -k)] if pair else [complex(k)]
        clusters += [EigenCluster(v, p_list) for v in values]
        left -= len(values) * sum(p_list)
    return SpectralTable(tuple(clusters[i] for i in rng.permutation(len(clusters))))


def sandwich_tau(bd):
    """tau as the symmetrized inverse of the sandwich ``A S A^T``."""
    K = np.conj(np.linalg.inv(bd.A @ reference_layout(bd.table)[1] @ bd.A.T))
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
    def test_S_and_C0_match_the_label_reference(self, clusters):
        t = table(*clusters)
        _, S, C0 = reference_layout(t, classify_spectrum(t).pairs)
        assert np.array_equal(S_and_C0(t)[0], S)
        assert np.array_equal(S_and_C0(t)[1], C0)

    def test_block_S_and_C0_match_the_label_reference(self):
        # whole blocks of rows with different layouts, one call each
        rng = np.random.default_rng(20)
        for _ in range(300):
            n, m = int(rng.integers(1, 17)), int(rng.integers(1, 9))
            tables = [random_paired_table(rng, n) for _ in range(m)]
            labelings = [classify_spectrum(t) for t in tables]
            assert all(check_pairing(lab, t).ok for lab, t in zip(labelings, tables))
            S, C0 = permutations(tables)
            assert S.shape == C0.shape == (m, n, n)
            for r, (t, lab) in enumerate(zip(tables, labelings)):
                _, want_S, want_C0 = reference_layout(t, lab.pairs)
                assert S[r].tobytes() == want_S.tobytes()
                assert C0[r].tobytes() == want_C0.tobytes()

    @pytest.mark.parametrize("structure", [
        [(0.0, [3]), (1.0 + 0.5j, [1]), (1.0 - 0.5j, [1])],  # defective
        [(0.5 + 1j, [2, 1]), (0.5 - 1j, [2, 1])],  # paired chains
        [(0.3 + 0.7j, [2]), (1.0, [1])],  # unpaired
    ])
    def test_tau_matches_the_inverted_sandwich(self, structure):
        rng = np.random.default_rng(sum(len(p) for _, p in structure))
        bd = block_diagonalize(paired_instance(rng, structure), tol=1e-5)
        want = sandwich_tau(bd)
        assert fro(build_tau(bd).matrix - want) <= 1e-12 * fro(want)

    def test_synthesis_factorizes_nothing(self, monkeypatch):
        rng = np.random.default_rng(12)
        bd = block_diagonalize(paired_instance(rng, PAIRED_STRUCTURES[2]), tol=1e-5)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        invs = count_calls(monkeypatch, np.linalg, "inv")
        synthesize_operators(bd)
        assert svds == [] and invs == []

    def test_synthesis_builds_S_once(self, monkeypatch):
        # tau is lifted from the tau0 that synthesis already holds, and S
        # and C0 come from one index-rule call for the block
        rng = np.random.default_rng(12)
        bd = block_diagonalize(paired_instance(rng, PAIRED_STRUCTURES[2]), tol=1e-5)
        calls = count_calls(monkeypatch, symmetry, "_permutations")
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


def loop_labeling(table, real_tol, pair_tol):
    """The one-row rule as a plain loop: classify each cluster, then match
    each plus cluster in index order to its nearest unused conjugate, ties
    to the smaller index, within ``pair_tol * (1 + |E|)``."""
    real, plus, minus = [], [], []
    for n, c in enumerate(table.clusters):
        if abs(c.value.imag) <= real_tol * (1.0 + abs(c.value)):
            real.append(n)
        elif c.value.imag > 0:
            plus.append(n)
        else:
            minus.append(n)
    pairs, used = [], set()
    for n in plus:
        target = np.conj(table.clusters[n].value)
        best = best_dist = None
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
    return symmetry.SpectralLabeling(tuple(real), tuple(pairs), tuple(sorted(unpaired)))


def loop_detail(labeling, table):
    """The detail of the one-row pairing test as a plain loop, None when it
    passes."""
    if labeling.unpaired:
        n = labeling.unpaired[0]
        return f"cluster {n} at E={table.clusters[n].value:.6g} has no conjugate partner"
    for n, m in labeling.pairs:
        cn, cm = table.clusters[n], table.clusters[m]
        if cn.p_list != cm.p_list:
            return (f"conjugate pair ({n}, {m}) has mismatched Jordan dimensions "
                    f"{list(cn.p_list)} vs {list(cm.p_list)}")
    return None


#: values whose moduli, differences and bounds are exact in binary: the
#: Pythagorean 3-4-5 and 5-12-13 points put distances, |E| and so
#: ``tol (1 + |E|)`` exactly on a boundary, the grid makes exact ties
PYTHAGOREAN = (3 + 4j, 4 + 3j, 5 + 12j, 12 + 5j, 0.6 + 0.8j, 5 + 0j, 1j)
P_LISTS = ((1,), (1,), (2,), (1, 1), (2, 1), (3,))
TOLERANCES = (0.0, 1e-8, 0.25, 0.5, 1.0, 2.0)


def random_table(rng):
    """A table of 1 to 9 clusters drawn so that ties, several candidates
    for one plus cluster, values on the pair_tol and real_tol boundaries,
    -0.0 imaginary parts, infinite ones and infinite real parts with a
    zero imaginary part all occur; ``rng`` is a ``random.Random``."""
    values = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.randrange(4)
        if kind == 0:
            z = rng.choice(PYTHAGOREAN) * rng.choice((0.5, 1.0, 2.0))
            z = complex(z.real * rng.choice((-1, 1)), z.imag * rng.choice((-1, 1)))
        elif kind == 1 and values:  # near the conjugate of an earlier value
            z = rng.choice(values).conjugate() + complex(rng.randint(-2, 2), rng.randint(-2, 2)) / 4
        elif kind == 2:
            z = complex(rng.randint(-6, 6), rng.randint(-6, 6)) / 2
        elif rng.random() < 0.9:
            z = complex(rng.randint(-6, 6) / 2, rng.choice((0.0, -0.0)))
        else:  # NaN distances, and at real_tol = 0 an infinite E off the real class
            z = complex(rng.choice((np.inf, -np.inf, 1.0)), rng.choice((np.inf, -np.inf, 0.0)))
        values.append(z)
    return table(*((v, rng.choice(P_LISTS)) for v in values))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_array_labeling_matches_the_loop():
    # 20,000 random tables in blocks of up to 40 rows, each at one of the
    # tolerance pairs: the block gives each row the loop's labeling, whose
    # pairing test names the loop's detail, and each paired cluster the
    # offset to its partner's first slot; so does the one-row case on every
    # tenth table.  An infinite center makes inf - inf, which warns in the
    # loop
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ("tie", "several", "pair_edge", "real_edge", "negative_zero", "infinite"), 0)
    done = 0
    while done < 20_000:
        tables = [random_table(rng) for _ in range(rng.randint(1, 40))]
        real_tol, pair_tol = rng.choice(TOLERANCES), rng.choice(TOLERANCES)
        spectra = BlockSpectra.of(tables)
        labelings, shift = symmetry.label_block(spectra, real_tol, pair_tol)
        start = np.cumsum(spectra.sizes) - spectra.sizes
        want_shift, first = np.zeros_like(shift), 0
        for t, lab in zip(tables, labelings):
            want = loop_labeling(t, real_tol, pair_tol)
            assert lab == want, (t, real_tol, pair_tol)
            report = check_pairing(lab, t)
            detail = loop_detail(want, t)
            assert (report.ok, report.detail) == (detail is None, detail)
            if done % 10 == 0:
                assert classify_spectrum(t, real_tol, pair_tol) == want
            for a, b in want.pairs:
                want_shift[first + a] = start[first + b] - start[first + a]
                want_shift[first + b] = start[first + a] - start[first + b]
            first += len(t.clusters)
            tally_cases(seen, t, real_tol, pair_tol)
            done += 1
        assert np.array_equal(shift, want_shift)
    assert all(count > 100 for count in seen.values()), seen


def tally_cases(seen, t, real_tol, pair_tol):
    """Count the cases the property test must cover."""
    seen["infinite"] += not np.isfinite([c.value for c in t.clusters]).all()
    values = [c.value for c in t.clusters if np.isfinite(c.value)]
    for z in values:
        seen["negative_zero"] += z.imag == 0.0 and np.copysign(1.0, z.imag) < 0
        seen["real_edge"] += z.imag != 0.0 and abs(z.imag) == real_tol * (1.0 + abs(z))
    for z in values:
        if z.imag > 0:
            dists = [abs(w - np.conj(z)) for w in values if w.imag < 0]
            bound = pair_tol * (1.0 + abs(z))
            near = [d for d in dists if d <= bound]
            seen["several"] += len(near) > 1
            seen["tie"] += len(near) != len(set(near))
            seen["pair_edge"] += bound in dists
