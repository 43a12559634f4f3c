import re
import tracemalloc

import numpy as np
import pytest

from pseudospec.antilinear import AntilinearOp, conjugation
from pseudospec.blockdiag import (
    EigenCluster,
    SpectralTable,
    block_diagonalize,
    cluster_eigenvalues,
    jordan_chains,
)
from pseudospec.certify import (
    INCONCLUSIVE,
    NOT_PSEUDO_HERMITIAN,
    PSEUDO_HERMITIAN,
    ToleranceProfile,
    decide,
    decide_many,
    residual_commute_antilinear,
    residual_intertwine_antilinear,
)
from pseudospec.linalg import fro
from pseudospec.symmetry import classify_spectrum
from pseudospec.truncated import ModelSpec, build_H
from tests.test_blockdiag import jordan_matrix, scatter_hamiltonian, well_conditioned


class TestResiduals:
    def test_real_symmetric_with_conjugation(self):
        H = np.array([[1.0, 2.0], [2.0, -3.0]])
        assert residual_intertwine_antilinear(H, conjugation(2)) == 0.0
        assert residual_commute_antilinear(H, conjugation(2)) == 0.0

    def test_scatter_tau_closed_form(self):
        for x, k in [(0.0, 1.0), (0.3, 2.0), (1.0, 0.5)]:
            H = scatter_hamiltonian(x, k)
            tau = AntilinearOp(np.array([[0.0, -1.0], [-1.0, -2.0 * np.exp(2j * k * x)]]))
            assert residual_intertwine_antilinear(H, tau) < 1e-12

    def test_residual_grows_linearly_in_perturbation(self):
        rng = np.random.default_rng(4)
        x, k = 0.3, 1.0
        H = scatter_hamiltonian(x, k)
        tau = AntilinearOp(np.array([[0.0, -1.0], [-1.0, -2.0 * np.exp(2j * k * x)]]))
        R = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r_small = residual_intertwine_antilinear(H, AntilinearOp(tau.matrix + 1e-8 * R))
        r_large = residual_intertwine_antilinear(H, AntilinearOp(tau.matrix + 1e-6 * R))
        assert 30 < r_large / r_small < 300

    def test_constant_metrics_of_the_example_families(self):
        H = scatter_hamiltonian(0.7, 1.3)
        eta = np.diag([1.0, -1.0])
        assert np.array_equal(H.conj().T @ eta, eta @ H)
        # two-band model at several couplings: sigma3 (spin-major) is exact
        from pseudospec.truncated import ModelSpec, build_H

        for w in (0.5, 1.0, 1.5, 2.0, 3.0):
            spec = ModelSpec((1.0, 4.0), w)
            H, eta = build_H(spec), np.kron(np.diag([1.0, -1.0]), np.eye(2))
            assert np.array_equal(H.conj().T @ eta, eta @ H)


def _complex_5x5(rng):
    return rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))


class TestResidualFormulas:
    """Each public residual against its formula written out in full."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_formulas_are_exact(self, seed):
        rng = np.random.default_rng(seed)
        H, K = _complex_5x5(rng), _complex_5x5(rng)
        L = AntilinearOp(K)
        scale = fro(H) * fro(K)
        assert residual_intertwine_antilinear(H, L) == fro(H.conj().T @ K - K @ np.conj(H)) / scale
        assert residual_commute_antilinear(H, L) == fro(H @ K - K @ np.conj(H)) / scale

    @pytest.mark.parametrize("residual, wrap", [
        (residual_intertwine_antilinear, AntilinearOp),
        (residual_commute_antilinear, AntilinearOp),
    ])
    def test_dimension_mismatch_raises(self, residual, wrap):
        rng = np.random.default_rng(7)
        H = _complex_5x5(rng)
        K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            residual(H, wrap(K))


class TestDecide:
    def test_hermitian_matrix_is_pseudo_hermitian(self):
        cert = decide(np.eye(2))
        assert cert.verdict == PSEUDO_HERMITIAN
        assert [(c.value, c.d, c.p_list) for c in cert.table.clusters] == [(1.0, 2, (1, 1))]
        assert cert.witnesses is not None
        assert all(v <= 1e-8 for v in cert.residuals.values())

    def test_scatter_hamiltonian_certificates(self):
        for x in (0.0, 0.3, np.pi / 4, 1.0):
            for k in (0.5, 1.0, 2.0):
                cert = decide(scatter_hamiltonian(x, k))
                assert cert.verdict == PSEUDO_HERMITIAN
                c = cert.table.clusters[0]
                assert len(cert.table.clusters) == 1 and c.p_list == (2,)
                assert abs(c.value) < 1e-10

    def test_unpaired_spectrum_is_refused_with_witness(self):
        cert = decide(np.diag([1.0 + 1j, 2.0]))
        assert cert.verdict == NOT_PSEUDO_HERMITIAN
        assert not cert.pairing_ok
        assert "no conjugate partner" in cert.diagnostics
        assert cert.witnesses is None

    def test_round_trip_soundness(self):
        rng = np.random.default_rng(15)
        structures = [
            [(1.0, [2]), (2.0, [1])],
            [(1j, [2]), (-1j, [2]), (0.0, [1])],
            [(0.3 + 0.2j, [1]), (0.3 - 0.2j, [1]), (-1.0, [3])],
        ]
        for structure in structures:
            J = jordan_matrix(structure)
            A = well_conditioned(rng, J.shape[0])
            H = A @ J @ np.linalg.inv(A)
            cert = decide(H, ToleranceProfile(cluster_tol=1e-5))
            assert cert.verdict == PSEUDO_HERMITIAN
            assert all(v < 1e-8 for v in cert.residuals.values())

    def test_completeness_on_unpaired_instances(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            vals += 2j * np.sign(vals.imag)  # keep everything far from the axis
            A = well_conditioned(rng, n)
            H = A @ np.diag(vals) @ np.linalg.inv(A)
            cert = decide(H)
            assert cert.verdict == NOT_PSEUDO_HERMITIAN

    def test_residuals_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(17)
        H = paired = jordan_matrix([(1j, [1]), (-1j, [1]), (0.5, [2])])
        A = well_conditioned(rng, 4)
        H = A @ paired @ np.linalg.inv(A)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        cert1 = decide(H)
        cert2 = decide(q @ H @ q.conj().T)
        assert cert1.verdict == cert2.verdict == PSEUDO_HERMITIAN
        for key in cert1.residuals:
            assert abs(cert1.residuals[key] - cert2.residuals[key]) < 1e-10

    def test_scale_covariance(self):
        rng = np.random.default_rng(18)
        H = jordan_matrix([(1j, [1]), (-1j, [1]), (1.0, [1])])
        A = well_conditioned(rng, 3)
        H = A @ H @ np.linalg.inv(A)
        cert1 = decide(H)
        cert3 = decide(3.0 * H)
        assert cert1.verdict == cert3.verdict == PSEUDO_HERMITIAN
        assert np.max(np.abs(cert1.witnesses.X.matrix - cert3.witnesses.X.matrix)) < 1e-10
        assert decide(-2.0 * H).verdict == PSEUDO_HERMITIAN

    def test_staircase_svd_failure_is_inconclusive(self, monkeypatch):
        # an exact double eigenvalue merges at the clustering floor with no
        # confirmation SVD, so the first SVD to fail is the staircase's
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        cert = decide(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert cert.verdict == INCONCLUSIVE
        assert "SVD did not converge" in cert.diagnostics

    def test_over_clustered_input_is_inconclusive(self):
        # a huge clustering tolerance merges two genuinely distinct
        # eigenvalues: the floor 2 |H|_F = 0.85 exceeds their distance 0.6.
        # The staircase's cutoff 2 |H - 0|_2 = 0.6 counts both singular
        # values as kernel, so the cluster gets two chains of length 1 at 0,
        # and A H0 inv(A) = 0 misses H by all of |H|_F
        cert = decide(np.diag([0.3, -0.3]), ToleranceProfile(cluster_tol=2.0))
        assert cert.verdict == INCONCLUSIVE
        assert [(c.value, c.p_list) for c in cert.table.clusters] == [(0.0, (1, 1))]
        assert cert.residuals["reconstruction"] == 1.0

    def test_a_single_member_cluster_is_simple_at_any_tolerance(self):
        # at cluster_tol = 1 the floor |H|_F = 0.42 keeps 0.3 and -0.3
        # apart, so each value is a cluster of its own and takes its
        # eigenvector from the eigensolve: no staircase at a cutoff of
        # |H - E|_2 = 0.6 counts the other value's direction as kernel
        cert = decide(np.diag([0.3, -0.3]), ToleranceProfile(cluster_tol=1.0))
        assert cert.verdict == PSEUDO_HERMITIAN
        assert [(c.value, c.p_list) for c in cert.table.clusters] == [(-0.3, (1,)), (0.3, (1,))]

    def test_certificate_records_tolerances(self):
        cert = decide(np.eye(2))
        assert cert.tolerances == ToleranceProfile().as_dict()


J2 = np.array([[0.5, 1.0], [0.0, 0.5]])


TOL_RANGE = "must be finite and non-negative"


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("call, refusal", [
    (lambda t: ToleranceProfile(cluster_tol=t), f"cluster_tol {TOL_RANGE}"),
    (lambda t: block_diagonalize(J2, tol=t), f"tol {TOL_RANGE}"),
    (lambda t: jordan_chains(J2, 0.5, t), f"tol {TOL_RANGE}"),
    (lambda t: jordan_chains(J2, 0.5, size=t), "size must be an integer in 1..2"),
    (lambda t: cluster_eigenvalues([0.5, 0.5], t, J2, np.eye(2)), f"tol {TOL_RANGE}"),
    (lambda t: classify_spectrum(SpectralTable((EigenCluster(0.5, (2,)),)), real_tol=t),
     f"real_tol {TOL_RANGE}"),
    (lambda t: classify_spectrum(SpectralTable((EigenCluster(0.5, (2,)),)), pair_tol=t),
     f"pair_tol {TOL_RANGE}"),
], ids=["ToleranceProfile", "block_diagonalize", "jordan_chains", "jordan_chains-size",
        "cluster_eigenvalues", "classify_spectrum-real_tol", "classify_spectrum-pair_tol"])
def test_every_public_tolerance_is_refused_out_of_range(call, refusal, value):
    # each refuses as ToleranceProfile does: block_diagonalize(J2, tol=inf)
    # used to return the Jordan structure (1, 1), tol=nan to raise "no
    # numerical kernel", and a negative pair_tol to call every cluster
    # unpaired; the staircase's stop, a cluster size, is refused alike
    with pytest.raises(ValueError, match=re.escape(f"{refusal}, got {value!r}")):
        call(value)


def bitwise_conjugate(z: complex, w: complex) -> bool:
    return np.array([z.real, z.imag]).tobytes() == np.array([w.real, -w.imag]).tobytes()


def model_sweep_l4() -> np.ndarray:
    # lambda = l^2: the grid holds the exceptional points varpi = 1, 2, 3, 4
    varpis = np.linspace(0.5, 4.5, 17)
    return np.stack([build_H(ModelSpec((1.0, 4.0, 9.0, 16.0), float(w))) for w in varpis])


class TestRealInput:
    """A real H is decided in real arithmetic: its conjugate pairs are
    exact, X is the conjugation itself, and tau and eta are real when the
    Jordan basis is conjugation-symmetric, as it is for these simple
    spectra."""

    def check(self, H, cert):
        assert cert.verdict == PSEUDO_HERMITIAN
        clusters = cert.table.clusters
        for a, b in cert.labeling.pairs:
            assert bitwise_conjugate(clusters[a].value, clusters[b].value)
        w = cert.witnesses
        assert np.array_equal(w.X.matrix, np.eye(len(H)))
        assert cert.residuals["X_involution"] == 0.0
        assert cert.residuals["X_commute"] == 0.0
        simple = all(c.p_list == (1,) for c in clusters)
        if simple:
            assert not w.tau.matrix.imag.any() and not w.eta.imag.any()
        return simple

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_seeded_real_matrices(self, n):
        H = np.random.default_rng([5, n]).standard_normal((n, n))
        assert self.check(H, decide(H))

    def test_every_row_of_a_model_sweep(self):
        Hs = model_sweep_l4()
        simple = [self.check(H, cert) for H, cert in zip(Hs, decide_many(Hs))]
        assert simple.count(False) == 4  # the four exceptional points

    def test_one_row_decide_peak_memory(self):
        # a one-row block views H, A and inv(A) instead of copying them, and
        # the residuals form few temporaries at once: the traced peak was
        # 4.66 MiB with the copies and is 3.91 MiB without them
        H = np.random.default_rng(3).standard_normal((128, 128))
        decide(H)
        tracemalloc.start()
        try:
            decide(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * 2**20
