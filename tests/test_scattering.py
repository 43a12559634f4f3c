import re
import warnings

import numpy as np
import pytest

from pseudospec.antilinear import is_involution
from pseudospec.certify import (
    PSEUDO_HERMITIAN,
    decide,
    residual_commute_antilinear,
    residual_intertwine_antilinear,
)
from pseudospec.linalg import fro
from pseudospec.scattering import (
    PotentialSpec,
    RectangularBarrier,
    SampledPotential,
    barrier_transfer,
    closed_form_jordan_basis,
    closed_form_operators,
    evolve_transfer,
    hamiltonian,
    hamiltonian_at,
    pipeline_operators_reference_gauge,
    reflection_transmission,
)

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])

BARRIER = PotentialSpec(RectangularBarrier(1.0, 0.0, 1.0), k=1.0)


class TestHamiltonian:
    @pytest.mark.parametrize("k", [np.inf, np.nan, 0.0, -1.0])
    def test_refuses_a_wavenumber_that_is_not_positive_and_finite(self, k):
        # as PotentialSpec does; an infinite k used to give NaN entries
        with pytest.raises(ValueError, match="positive and finite"):
            hamiltonian(0.3, k, 1.0)

    def test_zero_potential_gives_zero_matrix(self):
        spec = PotentialSpec(RectangularBarrier(1.0, 0.0, 1.0), k=1.0)
        assert np.array_equal(hamiltonian_at(-3.0, spec), np.zeros((2, 2)))

    def test_frozen_generator_at_origin(self):
        got = hamiltonian(0.0, 1.0, 2.0)
        assert np.allclose(got, np.array([[1.0, 1.0], [-1.0, -1.0]]))

    def test_traceless_and_degenerate_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, k, v = rng.normal(), rng.uniform(0.2, 3.0), rng.normal()
            H = hamiltonian(x, k, v)
            assert abs(np.trace(H)) < 1e-14 * max(fro(H), 1.0)
            assert abs(np.linalg.det(H)) < 1e-14 * max(fro(H) ** 2, 1.0)

    def test_constant_metric_identity_is_exact(self):
        H = hamiltonian(0.37, 1.7, 0.9)
        s3 = np.diag([1.0, -1.0])
        assert np.array_equal(H.conj().T @ s3, s3 @ H)

    def test_sampled_potential_interpolates_and_guards_range(self):
        pot = SampledPotential((0.0, 1.0, 2.0), (0.0, 2.0, 0.0))
        assert pot.value(0.5) == 1.0
        with pytest.raises(ValueError):
            pot.value(2.5)
        with pytest.raises(ValueError):
            pot.value(np.array([0.5, 2.5]))
        with pytest.raises(ValueError):
            SampledPotential((0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("potential", [
        RectangularBarrier(0.8, 0.25, 0.75),
        SampledPotential((0.0, 0.3, 0.6, 1.0), (0.0, 1.5, -0.4, 0.2)),
    ], ids=["rectangular", "sampled"])
    def test_batched_generator_equals_scalar_calls_bit_for_bit(self, potential):
        spec = PotentialSpec(potential, k=1.3)
        xs = np.concatenate((np.linspace(0.0, 1.0, 41), [0.25, 0.75, 0.3]))
        batched = hamiltonian_at(xs, spec)
        assert batched.shape == (xs.size, 2, 2)
        assert np.array_equal(batched, np.array([hamiltonian_at(x, spec) for x in xs]))


class TestTransferEvolution:
    def test_free_evolution_is_identity(self):
        spec = PotentialSpec(RectangularBarrier(0.0, 0.0, 1.0), k=1.0)
        res = evolve_transfer(spec, -1.0, 2.0, 100)
        assert np.max(np.abs(res.U - np.eye(2))) == 0.0
        assert res.det_drift == 0.0

    def test_step_halving_agreement(self):
        u1 = evolve_transfer(BARRIER, 0.0, 1.0, 2000).U
        u2 = evolve_transfer(BARRIER, 0.0, 1.0, 4000).U
        assert np.max(np.abs(u1 - u2)) < 1e-9

    def test_real_potential_transfer_constraints(self):
        # regression property of the family: conj(U11) = U22, conj(U12) = U21
        U = evolve_transfer(BARRIER, 0.0, 1.0, 1500).U
        assert abs(U[1, 1] - np.conj(U[0, 0])) < 1e-10
        assert abs(U[1, 0] - np.conj(U[0, 1])) < 1e-10

    def test_determinant_preserved(self):
        res = evolve_transfer(BARRIER, 0.0, 1.0, 2000)
        assert res.det_drift <= 1e-9

    def test_fourth_order_convergence(self):
        ref = evolve_transfer(BARRIER, 0.0, 1.0, 320).U
        errs = []
        hs = []
        for steps in (40, 80, 160):
            U = evolve_transfer(BARRIER, 0.0, 1.0, steps).U
            errs.append(np.max(np.abs(U - ref)))
            hs.append(1.0 / steps)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            evolve_transfer(BARRIER, 1.0, 0.0, 10)
        with pytest.raises(ValueError):
            evolve_transfer(BARRIER, 0.0, 1.0, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
    def test_overflowing_transfer_names_the_first_sample(self):
        spec = PotentialSpec(RectangularBarrier(1e150, 0.0, 1.0), k=1.0)
        with pytest.raises(ValueError, match=r"not finite at x = 0\.5$"):
            evolve_transfer(spec, 0.0, 1.0, 10, at=np.array([0.0, 0.5, 1.0]))


class TestExactBarrierTransfer:
    @pytest.mark.parametrize("v0, k", [(1.0, 1.0), (0.8, 1.3), (2.0, 0.7)])
    def test_integrator_matches_closed_form_inside_the_barrier(self, v0, k):
        # v0 = k^2 is the q = 0 limit of the closed form, v0 > k^2 the
        # evanescent case
        spec = PotentialSpec(RectangularBarrier(v0, -1.0, 2.0), k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = barrier_transfer(spec, 0.0, 1.0)
        assert abs(np.linalg.det(exact) - 1.0) < 1e-14
        assert np.max(np.abs(evolve_transfer(spec, 0.0, 1.0, 2000).U - exact)) <= 1e-12

    def test_free_stretches_and_edges(self):
        spec = PotentialSpec(RectangularBarrier(1.5, 0.25, 0.75), k=0.9)
        assert np.max(np.abs(barrier_transfer(spec, -2.0, 0.2) - np.eye(2))) < 1e-14
        assert np.max(np.abs(barrier_transfer(spec, 0.4, 0.4) - np.eye(2))) < 1e-15
        # across both edges the integrator is only first order
        exact = barrier_transfer(spec, 0.0, 1.0)
        errs = [np.max(np.abs(evolve_transfer(spec, 0.0, 1.0, n).U - exact)) for n in (1001, 2003)]
        assert errs[1] < 1e-3 and errs[1] < errs[0]

    def test_rejects_other_potentials(self):
        spec = PotentialSpec(SampledPotential((0.0, 1.0), (1.0, 1.0)), k=1.0)
        with pytest.raises(TypeError):
            barrier_transfer(spec, 0.0, 1.0)


class TestClosedForms:
    def test_phase_special_points(self):
        ops = closed_form_operators(np.pi / 2, 1.0)  # kx = pi/2
        assert np.allclose(ops.X.matrix, -np.eye(2))
        ops = closed_form_operators(0.0, 1.0)
        assert np.allclose(ops.X.matrix, np.eye(2))

    def test_generic_phase_factor_is_not_an_involution_by_itself(self):
        k, x = 1.0, 0.4
        P = np.diag([np.exp(-2j * k * x), np.exp(2j * k * x)])
        assert np.max(np.abs(P @ P - np.eye(2))) > 0.1  # linear square
        assert np.allclose(P @ np.conj(P), np.eye(2))  # antilinear square
        assert np.max(np.abs(P - np.conj(P))) > 0.1  # does not commute with conj

    def test_closed_form_witnesses_pass_their_defining_relations(self):
        for x, k, v in [(0.0, 1.0, 2.0), (0.3, 1.0, 1.0), (1.0, 0.5, -0.7)]:
            H = hamiltonian(x, k, v)
            ops = closed_form_operators(x, k)
            assert residual_intertwine_antilinear(H, ops.tau) < 1e-12
            assert residual_commute_antilinear(H, ops.X) < 1e-12
            assert is_involution(ops.X)[0]

    # kx = 2 and -9.25 lie beyond pi/2, where a square root of exp(-2ikx)
    # would take the other branch
    @pytest.mark.parametrize("x, k, v", [(0.0, 1.0, 1.0), (0.3, 1.0, 2.0), (np.pi / 4, 2.0, 1.0),
                                         (1.0, 0.5, -0.7), (2.0, 1.0, 1.0), (-2.5, 3.7, 0.3)])
    def test_inverse_basis_inverts_the_basis(self, x, k, v):
        A, Ainv = closed_form_jordan_basis(x, k, v)
        assert np.max(np.abs(Ainv @ A - np.eye(2))) <= 1e-15
        assert np.max(np.abs(A @ Ainv - np.eye(2))) <= 1e-15

    def test_basis_frozen_example(self):
        # at x = 0 and k = v/2 the basis is F = [[1, 1], [-1, 0]], exactly
        A, Ainv = closed_form_jordan_basis(0.0, 0.5)
        assert np.array_equal(A, [[1.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(Ainv, [[0.0, -1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("k, v", [(0.0, 1.0), (1.0, 0.0)])
    def test_basis_degenerates_at_zero_k_or_v(self, k, v):
        with pytest.raises(ValueError, match="degenerates"):
            closed_form_jordan_basis(0.3, k, v)
        if v:
            with pytest.raises(ValueError, match="degenerates"):
                closed_form_operators(0.3, k)

    @pytest.mark.parametrize("x, k, match", [
        (0.3, -1.0, "wavenumber k must be positive and finite"),
        (0.3, np.inf, "wavenumber k must be positive and finite"),
        (0.3, np.nan, "wavenumber k must be positive and finite"),
        (np.nan, 1.0, "position x must be finite, got nan"),
        (np.inf, 1.0, "position x must be finite, got inf"),
    ], ids=["negative-k", "inf-k", "nan-k", "nan-x", "inf-x"])
    def test_refuses_what_hamiltonian_refuses_before_any_arithmetic(self, x, k, match):
        # a negative k gave a finite witness set for an H(x) that hamiltonian
        # refuses, and a non-finite x or k reached AntilinearOp's "matrix
        # entries must be finite" after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (closed_form_jordan_basis, closed_form_operators):
                with pytest.raises(ValueError, match=re.escape(match)):
                    call(x, k)

    @pytest.mark.parametrize("x, k", [(0.0, 1.0), (0.3, 1.0), (np.pi / 4, 2.0), (1.0, 0.5),
                                      (-2.5, 3.7)])
    def test_witness_set_is_the_written_out_products(self, x, k):
        # S flips the one length-2 chain and C0 = I; the rest are their
        # products with the closed-form inverse of the reference basis, bit
        # for bit.  S, C0 and eta0 are real, as the pipeline's; the other
        # six complex
        u = np.exp(-2j * k * x)
        S, C0 = SIGMA_1, np.eye(2)
        Ainv = closed_form_jordan_basis(x, k)[1]
        eta0 = S @ C0
        eta = Ainv.conj().T @ eta0 @ Ainv
        want = {"S": S, "Theta": np.eye(2, dtype=complex), "tau0": S.astype(complex), "C0": C0,
                "eta0": eta0, "X0": (eta0 @ S).astype(complex),
                "tau": np.array([[0.0, -1.0], [-1.0, -2.0 / u]], dtype=complex),
                "X": np.diag([u, 1.0 / u]), "eta": (eta + eta.conj().T) / 2.0}
        assert np.array_equal(eta0, SIGMA_1) and np.array_equal(eta0 @ S, np.eye(2))
        ops = closed_form_operators(x, k)
        for name, M in want.items():
            got = getattr(ops, name)
            got = getattr(got, "matrix", got)
            real = name in ("S", "C0", "eta0")
            assert got.dtype == M.dtype == (float if real else complex), name
            assert got.tobytes() == M.tobytes(), name


class TestPipelineAgainstClosedForms:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, np.pi / 4, 1.0])
    def test_X_reproduced_entrywise_in_reference_gauge(self, x, k):
        ops, _ = pipeline_operators_reference_gauge(x, k, v=1.0)
        want = np.diag([np.exp(-2j * k * x), np.exp(2j * k * x)])
        assert np.max(np.abs(ops.X.matrix - want)) < 1e-10

    def test_tau_residuals_are_gauge_free(self):
        for x, k, v in [(0.0, 1.0, 1.0), (0.8, 2.0, 0.3)]:
            H = hamiltonian(x, k, v)
            ops, _ = pipeline_operators_reference_gauge(x, k, v)
            assert residual_intertwine_antilinear(H, ops.tau) < 1e-12
            # same scale-free check for the closed form itself
            assert residual_intertwine_antilinear(H, closed_form_operators(x, k).tau) < 1e-12

    def test_certificates_along_a_sweep(self):
        for x in np.linspace(-0.5, 1.5, 7):
            cert = decide(hamiltonian(x, 1.3, 0.8))
            assert cert.verdict == PSEUDO_HERMITIAN
            c = cert.table.clusters[0]
            assert c.p_list == (2,) and c.d == 1 and abs(c.value) < 1e-10


class TestReflectionTransmission:
    def test_free_case(self):
        res = evolve_transfer(PotentialSpec(RectangularBarrier(0.0, 0.0, 1.0), 1.0), 0.0, 1.0, 10)
        data = reflection_transmission(res)
        assert data["T"] == 1.0 and data["R_left"] == 0.0 and data["R_right"] == 0.0

    def test_flux_balance_for_a_real_barrier(self):
        res = evolve_transfer(BARRIER, 0.0, 1.0, 2000)
        data = reflection_transmission(res)
        assert abs(abs(data["T"]) ** 2 + abs(data["R_left"]) ** 2 - 1.0) < 1e-8
