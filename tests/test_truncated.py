import numpy as np
import pytest

from pseudospec.antilinear import is_involution
from pseudospec.blockdiag import block_diagonalize
from pseudospec.certify import (
    PSEUDO_HERMITIAN,
    decide,
    residual_commute_antilinear,
    residual_intertwine_antilinear,
)
from pseudospec.linalg import fro
from pseudospec.symmetry import synthesize_operators
from pseudospec.truncated import (
    EP_MATCH_TOL,
    ModelSpec,
    build_H,
    build_H_stack,
    closed_form_H0,
    closed_form_X,
    closed_form_X0,
    closed_form_basis,
    closed_form_block_diagonalization,
    closed_form_operators,
    closed_form_tau,
    energies,
    exceptional_index,
    exceptional_levels,
    exceptional_set,
    is_exceptional,
    real_pair_count,
)
from tests.test_linalg import assert_multiset_close

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def spectrum(spec):
    E = energies(spec)
    return np.concatenate([E, -E])


class TestModel:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec((4.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            ModelSpec((-1.0, 2.0), 1.0)
        with pytest.raises(ValueError):
            ModelSpec((1.0,), 0.0)

    @pytest.mark.parametrize("lambdas, varpi", [
        ((1.0, np.nan), 1.0), ((np.nan, 1.0), 1.0), ((1.0, np.inf), 1.0), ((np.inf,), 1.0),
        ((1.0,), np.inf), ((1.0,), np.nan),
    ], ids=["nan-last-lambda", "nan-first-lambda", "infinite-lambda", "only-infinite-lambda",
            "infinite-varpi", "nan-varpi"])
    def test_spec_refuses_non_finite_values(self, lambdas, varpi):
        # NaN compares false, so an ordering test alone lets it through
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(lambdas, varpi)

    def test_single_level_at_coalescence_is_nilpotent(self):
        H = build_H(ModelSpec((1.0,), 1.0))
        assert np.allclose(H, 0.5 * np.array([[-1.0, 1.0], [-1.0, 1.0]]))
        assert np.max(np.abs(H @ H)) < 1e-15

    def test_spectrum_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lams = np.sort(rng.uniform(0.2, 9.0, size=4))
            lams += np.arange(4) * 1e-3  # keep strictly increasing
            spec = ModelSpec(tuple(lams), float(rng.uniform(0.3, 3.5)))
            assert_multiset_close(np.linalg.eigvals(build_H(spec)), spectrum(spec), 1e-8)

    def test_all_real_regime_example(self):
        spec = ModelSpec((1.0, 4.0), 3.0)
        assert_multiset_close(
            np.linalg.eigvals(build_H(spec)),
            [np.sqrt(8.0), -np.sqrt(8.0), np.sqrt(5.0), -np.sqrt(5.0)],
            1e-9,
        )

    def test_exact_constant_metric(self):
        for w in (0.5, 1.0, 2.5):
            spec = ModelSpec((1.0, 4.0, 9.0), w)
            H = build_H(spec)
            s3 = np.kron(np.diag([1.0, -1.0]), np.eye(3))
            assert np.array_equal(H.conj().T @ s3, s3 @ H)

    def test_exceptional_set(self):
        assert np.allclose(exceptional_set(ModelSpec((1.0, 4.0), 1.5)), [1.0, 2.0])
        assert np.allclose(exceptional_set(ModelSpec((2.0,), 1.0)), [np.sqrt(2.0)])
        assert is_exceptional(ModelSpec((1.0, 4.0), 2.0))
        assert not is_exceptional(ModelSpec((1.0, 4.0), 1.9))
        assert exceptional_index(ModelSpec((1.0, 4.0), 2.0)) == 1

    def test_real_pair_count(self):
        lams = (1.0, 4.0, 9.0, 16.0)
        for w, m in [(0.5, 0), (1.5, 1), (2.5, 2), (3.5, 3), (5.0, 4)]:
            assert real_pair_count(ModelSpec(lams, w)) == m


def reference_H(spec):
    """The per-sample builder the stacked one replaced."""
    L, w = spec.L, spec.varpi
    Lam = np.diag(spec.lambdas).astype(complex)
    I = np.eye(L)
    top = np.hstack([Lam - 2 * w**2 * I, Lam])
    bot = np.hstack([-Lam, -Lam + 2 * w**2 * I])
    return np.vstack([top, bot]) / (2 * w)


def reference_exceptional_index(spec):
    """The per-spec exceptional-point rule the stacked one replaced."""
    gaps = np.abs(spec.varpi - np.sqrt(np.asarray(spec.lambdas)))
    j = int(np.argmin(gaps))
    return j if gaps[j] <= EP_MATCH_TOL else None


class TestStackedModel:
    LAMBDAS = [(2.0,), (1.0, 4.0), (0.3, 1.0, 2.5, 9.0)]

    def varpis(self, lambdas):
        # the sweep grid, the exceptional points, points a rounding away
        # from them and a spread of scales, all in one stack
        rng = np.random.default_rng(len(lambdas))
        eps = np.sqrt(lambdas)
        return np.concatenate([np.linspace(0.5, 3.0, 201), eps, np.nextafter(eps, 0.0),
                               eps + 2e-12, 10.0 ** rng.uniform(-3, 3, 40)])

    @pytest.mark.parametrize("lambdas", LAMBDAS)
    def test_stack_is_the_per_sample_builder_bit_for_bit(self, lambdas):
        varpis = self.varpis(lambdas)
        Hs = build_H_stack(lambdas, varpis)
        assert Hs.shape == (len(varpis), 2 * len(lambdas), 2 * len(lambdas))
        for w, H in zip(varpis.tolist(), Hs):
            spec = ModelSpec(lambdas, w)
            assert H.tobytes() == reference_H(spec).tobytes()
            assert build_H(spec).tobytes() == H.tobytes()

    @pytest.mark.parametrize("lambdas", LAMBDAS)
    def test_exceptional_levels_follow_the_per_spec_rule(self, lambdas):
        varpis = self.varpis(lambdas)
        levels = exceptional_levels(lambdas, varpis).tolist()
        assert levels.count(-1) < len(levels) - len(lambdas)  # the points are found
        for w, j in zip(varpis.tolist(), levels):
            spec = ModelSpec(lambdas, w)
            want = reference_exceptional_index(spec)
            assert j == (-1 if want is None else want)
            assert exceptional_index(spec) == want
            assert is_exceptional(spec) == (want is not None)


class TestClosedFormBasis:
    def test_frozen_block_at_single_level(self):
        spec = ModelSpec((1.0,), 2.0)
        e = np.sqrt(3.0)
        want = 0.5 * np.array([[1 - e / 2, 1 + e / 2], [1 + e / 2, 1 - e / 2]])
        assert np.max(np.abs(closed_form_basis(spec)[0] - want)) < 1e-14

    def test_formula_inverse_matches(self):
        for spec in (ModelSpec((1.0, 4.0), 0.5), ModelSpec((1.0, 4.0), 1.5),
                     ModelSpec((2.0, 3.0, 8.0), 2.2)):
            A, Ainv = closed_form_basis(spec)
            assert fro(A @ Ainv - np.eye(2 * spec.L)) < 1e-12

    def test_coalesced_block_and_its_inverse(self):
        spec = ModelSpec((1.0, 4.0), 2.0)
        A, Ainv = closed_form_basis(spec)
        assert fro(A @ Ainv - np.eye(4)) < 1e-12

    def test_basis_block_diagonalizes(self):
        for spec in (ModelSpec((1.0, 4.0), 1.5), ModelSpec((1.0, 4.0), 2.0)):
            H = build_H(spec)
            A = closed_form_basis(spec)[0]
            H0 = closed_form_H0(spec)
            assert fro(H @ A - A @ H0) < 1e-12


class TestClosedFormWitnesses:
    @pytest.mark.parametrize("w", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_tau_intertwines_in_every_regime(self, w):
        spec = ModelSpec((1.0, 4.0), w)
        H = build_H(spec)
        tau = closed_form_tau(spec)
        assert residual_intertwine_antilinear(H, tau) < 1e-10
        assert fro(tau.matrix - tau.matrix.T) <= 1e-10 * fro(tau.matrix)

    def test_tau_frozen_value_at_coalescence(self):
        spec = ModelSpec((1.0,), 1.0)
        want = -2.0 * np.array([[0.0, 1.0], [1.0, -2.0]])
        assert np.max(np.abs(closed_form_tau(spec).matrix - want)) < 1e-14

    def test_X0_piecewise_blocks(self):
        # all levels imaginary: swap everywhere
        K = closed_form_X0(ModelSpec((1.0, 4.0), 0.5)).matrix
        assert np.array_equal(K, np.kron(SIGMA_1, np.eye(2)))
        # mixed regime: identity on the real level, swap on the imaginary one
        K = closed_form_X0(ModelSpec((1.0, 4.0), 1.5)).matrix
        want = np.zeros((4, 4))
        want[0, 0] = want[2, 2] = 1.0  # level 1 fixed
        want[1, 3] = want[3, 1] = 1.0  # level 2 swapped
        assert np.array_equal(K, want)
        # everything real: plain conjugation
        K = closed_form_X0(ModelSpec((1.0, 4.0), 3.0)).matrix
        assert np.array_equal(K, np.eye(4))

    @pytest.mark.parametrize("w", [0.5, 1.5, 2.0, 3.0])
    def test_X0_commutes_with_block_form(self, w):
        spec = ModelSpec((1.0, 4.0), w)
        X0 = closed_form_X0(spec)
        assert residual_commute_antilinear(closed_form_H0(spec), X0) < 1e-12
        assert is_involution(X0)[0] and np.array_equal(X0.matrix, X0.matrix.T)

    @pytest.mark.parametrize("w", [0.5, 1.5, 2.0, 3.0])
    def test_X_lift_commutes_with_H_itself(self, w):
        spec = ModelSpec((1.0, 4.0), w)
        X = closed_form_X(spec)
        assert residual_commute_antilinear(build_H(spec), X) < 1e-12
        assert is_involution(X)[0]

    def test_X_lift_is_the_sandwich_of_X0(self):
        # A X0 conj(inv(A)) collapses to plain conjugation, level by level
        for spec in (ModelSpec((1.0, 4.0), 0.5), ModelSpec((1.0, 4.0), 1.5),
                     ModelSpec((1.0, 4.0), 2.0)):
            A = closed_form_basis(spec)[0]
            lift = A @ closed_form_X0(spec).matrix @ np.conj(np.linalg.inv(A))
            assert np.max(np.abs(lift - closed_form_X(spec).matrix)) < 1e-12

    def test_coalesced_operator_set(self):
        spec = ModelSpec((1.0, 4.0), 2.0)  # coalescence at the top level
        ops = closed_form_operators(spec)
        # S twists only the coalesced level
        S_want = np.zeros((4, 4))
        S_want[0, 0] = S_want[2, 2] = 1.0
        S_want[1, 3] = S_want[3, 1] = 1.0
        assert np.array_equal(ops.S, S_want)
        # eta0 fixes level 1 and swaps level 2; C0 is the identity here
        assert np.array_equal(ops.C0, np.eye(4))
        assert np.array_equal(ops.eta0, S_want)
        H = build_H(spec)
        assert residual_intertwine_antilinear(H, ops.tau) < 1e-10
        assert residual_commute_antilinear(H, ops.X) < 1e-12
        assert fro(ops.eta - ops.eta.conj().T) < 1e-12 * fro(ops.eta)
        assert fro(H.conj().T @ ops.eta - ops.eta @ H) < 1e-10 * fro(H) * fro(ops.eta)

    @pytest.mark.parametrize("w", [0.5, 1.5, 2.0, 3.0])
    def test_full_closed_form_set_passes_all_predicates(self, w):
        spec = ModelSpec((1.0, 4.0, 9.0), w)
        ops = closed_form_operators(spec)
        H = build_H(spec)
        dim = 2 * spec.L
        for M in (ops.S, ops.C0, ops.eta0):
            assert np.array_equal(M, M.conj().T)
            assert np.array_equal(M @ M, np.eye(dim))
        assert np.array_equal(ops.tau0.matrix, ops.tau0.matrix.T) and is_involution(ops.tau0)[0]
        assert is_involution(ops.X0)[0]
        assert residual_intertwine_antilinear(H, ops.tau) < 1e-10
        assert residual_commute_antilinear(H, ops.X) < 1e-12
        assert fro(ops.eta - ops.eta.conj().T) < 1e-12 * fro(ops.eta)
        assert fro(H.conj().T @ ops.eta - ops.eta @ H) < 1e-10 * fro(H) * fro(ops.eta)


class TestPipelineAgreement:
    @pytest.mark.parametrize("w", [0.5, 1.5, 3.0])
    def test_table_and_X_away_from_coalescence(self, w):
        spec = ModelSpec((1.0, 4.0), w)
        cert = decide(build_H(spec))
        assert cert.verdict == PSEUDO_HERMITIAN
        assert all(c.p_list == (1,) for c in cert.table.clusters)
        assert_multiset_close(
            [c.value for c in cert.table.clusters], spectrum(spec), 1e-8
        )
        dev = np.max(np.abs(cert.witnesses.X.matrix - closed_form_X(spec).matrix))
        assert dev < 1e-9

    def test_table_and_X_at_coalescence(self):
        spec = ModelSpec((1.0, 4.0), 2.0)
        cert = decide(build_H(spec))
        assert cert.verdict == PSEUDO_HERMITIAN
        plists = sorted(c.p_list for c in cert.table.clusters)
        assert plists == [(1,), (1,), (2,)]
        zero = [c for c in cert.table.clusters if abs(c.value) < 1e-8]
        assert len(zero) == 1 and zero[0].p_list == (2,)
        dev = np.max(np.abs(cert.witnesses.X.matrix - closed_form_X(spec).matrix))
        assert dev < 1e-9

    def test_jordan_table_flips_across_coalescence(self):
        for offset, want in [(-1e-3, [(1,), (1,)]), (0.0, [(2,)]), (1e-3, [(1,), (1,)])]:
            spec = ModelSpec((1.0, 4.0), 2.0 + offset)
            cert = decide(build_H(spec))
            near_zero = sorted(
                c.p_list for c in cert.table.clusters if abs(c.value) < 0.5
            )
            assert near_zero == want

    def test_census_matches_the_real_pair_count(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            lams = tuple(np.sort(rng.uniform(0.5, 16.0, size=5)) + np.arange(5) * 1e-3)
            w = float(rng.uniform(0.4, 4.3))
            spec = ModelSpec(lams, w)
            if np.min(np.abs(w - exceptional_set(spec))) < 1e-2:
                continue  # stay away from coalescence for the strict census
            cert = decide(build_H(spec))
            assert cert.verdict == PSEUDO_HERMITIAN
            real = sum(
                cert.table.clusters[n].algebraic for n in cert.labeling.real_clusters
            )
            assert real == 2 * real_pair_count(spec)

    def test_pipeline_tau_certificate_matches_closed_form_quality(self):
        for w in (0.5, 1.5, 2.0, 3.0):
            spec = ModelSpec((1.0, 4.0), w)
            H = build_H(spec)
            cert = decide(H)
            assert cert.residuals["anti_ph"] < 1e-10
            assert residual_intertwine_antilinear(H, closed_form_tau(spec)) < 1e-10


def place(spec, blocks):
    """Per-level 2x2 blocks on the (l, L + l) slots of a 2L x 2L matrix."""
    L = spec.L
    M = np.zeros((2 * L, 2 * L), dtype=complex)
    for l, B in enumerate(blocks):
        for i, r in enumerate((l, L + l)):
            for j, c in enumerate((l, L + l)):
                M[r, c] = B[i][j]
    return M


def written_out_basis(spec, star):
    """A and inv(A) from the block formulas, each regime written apart."""
    w = spec.varpi
    A_blocks, inv_blocks = [], []
    for l, E in enumerate(energies(spec)):
        if l == star:
            s = np.sqrt(spec.lambdas[l])
            A_blocks.append(np.array([[0.5, -1.0 / s], [0.5, 0.0]]))
            inv_blocks.append([[0.0, 2.0], [-s, s]])
        else:
            a, b = 1 - E / w, 1 + E / w
            A_blocks.append([[a / 2, b / 2], [b / 2, a / 2]])
            a, b = 1 - w / E, 1 + w / E
            inv_blocks.append([[a / 2, b / 2], [b / 2, a / 2]])
    return place(spec, A_blocks), place(spec, inv_blocks)


def written_out_tau(spec, star):
    w2 = spec.varpi**2
    blocks = []
    for l, lam in enumerate(spec.lambdas):
        if l == star:
            s = np.sqrt(lam)
            blocks.append([[0.0, -2 * s], [-2 * s, 4 * s]])
        else:
            e2 = w2 - lam
            a, b = 1 + w2 / e2, 1 - w2 / e2
            blocks.append([[a / 2, b / 2], [b / 2, a / 2]])
    return place(spec, blocks)


def written_out_S_C0(spec, star):
    """S, which flips the chain of the coalesced level, and C0, which
    swaps the slots of a level with an imaginary pair, from the block
    formulas; C0 is also the piecewise X0 of the paper."""
    real = [lam < spec.varpi**2 or l == star for l, lam in enumerate(spec.lambdas)]
    S = place(spec, [SIGMA_1 if l == star else np.eye(2) for l in range(spec.L)])
    return S, place(spec, [np.eye(2) if r else SIGMA_1 for r in real])


def canonical_columns(spec, A, star):
    """Columns of A reordered into clusters sorted by (Re E, Im E)."""
    E, L = energies(spec), spec.L
    entries = []
    for l in range(L):
        if l == star:
            entries.append((0j, [l, L + l]))
        else:
            entries += [(complex(E[l]), [l]), (complex(-E[l]), [L + l])]
    entries.sort(key=lambda t: (t[0].real, t[0].imag))
    return A[:, [col for _, cols in entries for col in cols]]


#: the exceptional points of (1, 4, 9), a rounding below the middle one,
#: where lambda_2 > varpi^2, and the three regimes
PARITY_VARPIS = [1.0, 2.0, 3.0, float(np.nextafter(2.0, 0.0)), 0.5, 1.5, 2.5, 3.5]


def bits(M):
    """A matrix, or the matrix part of an antilinear map, as its dtype,
    shape and bytes, so that equal bits compare equal and -0.0 differs
    from 0.0."""
    M = getattr(M, "matrix", M)
    return M.dtype, M.shape, M.tobytes()


class TestClosedFormParity:
    @pytest.mark.parametrize("w", PARITY_VARPIS)
    def test_outputs_equal_the_written_out_blocks(self, w):
        spec = ModelSpec((1.0, 4.0, 9.0), w)
        star = exceptional_index(spec)
        A, Ainv = written_out_basis(spec, star)
        basis, inverse = closed_form_basis(spec)
        assert np.array_equal(basis, A)
        assert np.array_equal(inverse, Ainv)
        ops = closed_form_operators(spec)
        eta = Ainv.conj().T @ ops.eta0 @ Ainv
        assert np.array_equal(ops.eta, (eta + eta.conj().T) / 2.0)
        assert np.array_equal(ops.tau.matrix, written_out_tau(spec, star))
        bd = closed_form_block_diagonalization(spec)
        assert np.array_equal(bd.A, canonical_columns(spec, A, star))

    @pytest.mark.parametrize("w", PARITY_VARPIS)
    def test_every_witness_is_the_written_out_product(self, w):
        spec = ModelSpec((1.0, 4.0, 9.0), w)
        star = exceptional_index(spec)
        # S, C0 and eta0 are real, as the pipeline's; the other six complex
        S, C0 = (M.real for M in written_out_S_C0(spec, star))
        Ainv = written_out_basis(spec, star)[1]
        eta0 = S @ C0
        eta = Ainv.conj().T @ eta0 @ Ainv
        identity = np.eye(2 * spec.L, dtype=complex)
        want = {"S": S, "Theta": identity, "tau0": S.astype(complex),
                "tau": written_out_tau(spec, star), "C0": C0, "eta0": eta0,
                "X0": (eta0 @ S).astype(complex), "X": identity, "eta": (eta + eta.conj().T) / 2.0}
        ops = closed_form_operators(spec)
        for name, M in want.items():
            assert bits(getattr(ops, name)) == bits(M), name

    @pytest.mark.parametrize("w", PARITY_VARPIS)
    def test_derived_X0_is_the_piecewise_rule(self, w):
        # S C0 S is the identity on real and coalesced levels and the swap
        # on imaginary ones, bit for bit, which is C0 itself
        spec = ModelSpec((1.0, 4.0, 9.0), w)
        piecewise = written_out_S_C0(spec, exceptional_index(spec))[1]
        X0 = closed_form_operators(spec).X0
        assert bits(X0) == bits(closed_form_X0(spec)) == bits(piecewise)
