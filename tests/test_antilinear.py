import numpy as np
import pytest

from pseudospec.antilinear import (
    AntilinearOp,
    adjoint,
    apply,
    compose_antilinear_antilinear,
    conjugation,
    is_involution,
)

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def rand_op(rng, n):
    return AntilinearOp(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def scatter_basis(x, k):
    D = np.diag([np.exp(-1j * k * x), np.exp(1j * k * x)])
    return D @ np.array([[1.0, 1.0], [-1.0, 0.0]])


def test_apply_conjugation_and_swap():
    assert np.allclose(apply(conjugation(2), [1j, 1.0]), [-1j, 1.0])
    assert np.allclose(apply(AntilinearOp(SIGMA_1), [1.0, 0.0]), [0.0, 1.0])


def test_apply_is_antilinear():
    rng = np.random.default_rng(0)
    for _ in range(30):
        L = rand_op(rng, 4)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        lhs = apply(L, a * u + b * v)
        rhs = np.conj(a) * apply(L, u) + np.conj(b) * apply(L, v)
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * max(1.0, np.max(np.abs(lhs)))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(conjugation(2), [1.0, 2.0, 3.0])


def test_compose_two_antilinears_is_linear():
    assert np.allclose(compose_antilinear_antilinear(conjugation(3), conjugation(3)), np.eye(3))
    swap_conj = AntilinearOp(SIGMA_1)
    assert np.allclose(compose_antilinear_antilinear(swap_conj, swap_conj), np.eye(2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        L1, L2 = rand_op(rng, 3), rand_op(rng, 3)
        M = compose_antilinear_antilinear(L1, L2)
        for col in np.eye(3, dtype=complex):
            assert np.max(np.abs(M @ col - apply(L1, apply(L2, col)))) < 1e-13


def test_compose_with_linear_maps():
    # M . L has matrix M K and L . M has matrix K conj(M)
    rng = np.random.default_rng(2)
    L = rand_op(rng, 3)
    for _ in range(20):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        left = apply(AntilinearOp(M @ L.matrix), v)
        assert np.max(np.abs(left - M @ apply(L, v))) < 1e-12
        right = apply(AntilinearOp(L.matrix @ np.conj(M)), v)
        assert np.max(np.abs(right - apply(L, M @ v))) < 1e-12


def test_sandwich_of_conjugation_by_scatter_basis():
    # A . conj . inv(A) for the two-level chain basis has matrix
    # A conj(inv(A)) = exp(-2ikx sigma3); frozen from the family's closed form
    for k, x in [(1.0, 0.0), (0.7, 0.4), (2.0, 1.1)]:
        A = scatter_basis(x, k)
        L = AntilinearOp(A @ np.conj(np.linalg.inv(A)))
        want = np.diag([np.exp(-2j * k * x), np.exp(2j * k * x)])
        assert np.max(np.abs(L.matrix - want)) < 1e-12


def test_adjoint_matrix_and_pairing_identity():
    assert np.allclose(adjoint(conjugation(2)).matrix, np.eye(2))
    assert np.allclose(adjoint(AntilinearOp(SIGMA_1)).matrix, SIGMA_1)
    rng = np.random.default_rng(3)
    for _ in range(30):
        L = rand_op(rng, 4)
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = np.vdot(xi, apply(adjoint(L), zeta))
        rhs = np.vdot(zeta, apply(L, xi))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_adjoint_is_an_involution_exactly():
    rng = np.random.default_rng(4)
    L = rand_op(rng, 5)
    assert np.array_equal(adjoint(adjoint(L)).matrix, L.matrix)


def test_inverse_antilinear():
    rng = np.random.default_rng(6)
    for _ in range(20):
        L = rand_op(rng, 4)
        comp = compose_antilinear_antilinear(AntilinearOp(np.conj(np.linalg.inv(L.matrix))), L)
        assert np.max(np.abs(comp - np.eye(4))) < 1e-10 * np.linalg.cond(L.matrix)


def test_inverse_of_chain_reversal_sandwich():
    # inv of the antilinear op with matrix A sigma1 A^T, for the two-level
    # chain basis; expected matrix computed independently from the 2x2
    # algebra: [[0, -1], [-1, -2 exp(2ikx)]]
    for k, x in [(1.0, 0.0), (1.0, 0.3), (0.5, np.pi / 4)]:
        A = scatter_basis(x, k)
        L = AntilinearOp(A @ SIGMA_1 @ A.T)
        want = np.array([[0.0, -1.0], [-1.0, -2.0 * np.exp(2j * k * x)]])
        assert np.max(np.abs(np.conj(np.linalg.inv(L.matrix)) - want)) < 1e-12


def test_predicates_on_conjugation():
    assert is_involution(conjugation(3)) == (True, 0.0)


def test_predicates_on_scattering_tau():
    # the closed-form tau at kx = pi/4 is Hermitian but not an involution
    k, x = 1.0, np.pi / 4
    K = np.array([[0.0, -1.0], [-1.0, -2.0 * np.exp(2j * k * x)]])
    inv, res = is_involution(AntilinearOp(K))
    assert np.array_equal(K, K.T)
    assert not inv and res > 0.1


def test_x_witness_is_involution_for_every_phase():
    for kx in np.linspace(0.0, 3.0, 7):
        X = AntilinearOp(np.diag([np.exp(-2j * kx), np.exp(2j * kx)]))
        ok, res = is_involution(X)
        assert ok and res < 1e-14


def test_involution_implies_self_inverse():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    K = q @ np.diag([1.0, 1.0, -1.0, -1.0]) @ q.T  # real symmetric orthogonal
    L = AntilinearOp(K)
    assert is_involution(L)[0]
    assert np.max(np.abs(np.conj(np.linalg.inv(K)) - K)) < 1e-12


def test_antiunitary_involution_is_hermitian():
    rng = np.random.default_rng(9)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        K = q @ np.diag(rng.choice([-1.0, 1.0], size=5)) @ q.T
        assert np.linalg.norm(K.conj().T @ K - np.eye(5)) <= 1e-12
        assert is_involution(AntilinearOp(K))[1] <= 1e-12
        assert np.linalg.norm(K - K.T) <= 1e-12 * np.linalg.norm(K)
