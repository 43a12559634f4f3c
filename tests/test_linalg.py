import numpy as np
import pytest

from pseudospec.certify import INCONCLUSIVE, decide
from pseudospec.linalg import EigensolveError, eigensystem, eigensystem_stack, fro, fro_rows


def random_similarity(rng, n, spread=(0.5, 2.0)):
    """Well-conditioned random change of basis."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    s = rng.uniform(*spread, size=n)
    return q1 @ np.diag(s) @ q2


def test_eigensystem_diagonal():
    values, vectors = eigensystem(np.diag([1.0, 2.0]))
    order = np.argsort(values.real)
    assert abs(values[order[0]] - 1.0) < 1e-14
    assert abs(values[order[1]] - 2.0) < 1e-14
    assert np.allclose(np.abs(vectors[:, order[0]]), [1, 0])
    assert np.allclose(np.abs(vectors[:, order[1]]), [0, 1])


def test_eigensystem_nilpotent_block():
    values, vectors = eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert values.size == 2
    assert np.all(np.abs(values) < 1e-8)
    assert np.all(np.abs(np.linalg.norm(vectors, axis=0) - 1.0) < 1e-12)


def assert_multiset_close(got, want, tol):
    got = list(got)
    for w in want:
        j = int(np.argmin([abs(g - w) for g in got]))
        assert abs(got[j] - w) < tol, f"no eigenvalue near {w}"
        got.pop(j)
    assert not got


def test_eigensystem_construct_then_recover():
    rng = np.random.default_rng(7)
    lam = np.array([1.0, -2.0, 0.5 + 1j, 0.5 - 1j, 3.0, -0.25j])
    A = random_similarity(rng, 6)
    M = A @ np.diag(lam) @ np.linalg.inv(A)
    assert_multiset_close(eigensystem(M)[0], lam, 1e-8)


def test_eigen_pairs_satisfy_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 9)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values, vectors = eigensystem(M)
        for value, vector in zip(values, vectors.T):
            assert np.linalg.norm(M @ vector - value * vector) <= 1e-8 * fro(M)


def test_eigensystem_rejects_non_square():
    with pytest.raises(ValueError):
        eigensystem(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigensystem(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_fro_rows_is_fro_of_each_row_bit_for_bit(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((7, n, n)) * 10.0 ** rng.uniform(-200, 200, (7, 1, 1))
    M = M + 1j * rng.standard_normal((7, n, n))
    M[3] = 0.0
    M[4, 0, 0] = 1e300  # its squares overflow to inf in both
    with np.errstate(over="ignore"):
        assert [float(f) for f in fro_rows(M)] == [fro(row) for row in M]


def test_real_rows_give_exactly_conjugate_pairs():
    # real and complex rows in one stack: a real row takes the real
    # eigensolve, whose non-real values and vectors are exact conjugates,
    # and every row equals its own one-row call bit for bit; the mask of
    # real rows comes out with them
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 8, 8)).astype(complex)
    M[1] += 1j * rng.standard_normal((8, 8))
    values, vectors, real = eigensystem_stack(M)
    assert real.tolist() == [True, False, True, True]
    for r in range(len(M)):
        one = eigensystem_stack(M[r:r + 1])
        assert values[r].tobytes() == one[0][0].tobytes()
        assert vectors[r].tobytes() == one[1][0].tobytes()
    for r in (0, 2, 3):
        nonreal = np.flatnonzero(values[r].imag)
        assert nonreal.size
        for k in nonreal:
            (j,) = np.flatnonzero(values[r] == np.conj(values[r, k]))
            assert np.array_equal(vectors[r][:, j], np.conj(vectors[r][:, k]))


def test_a_zero_eigenvector_is_refused(monkeypatch):
    # stubbed in, since LAPACK returns none for finite input: normalized,
    # it would be a column of NaN
    original = np.linalg.eig

    def zero_column(a):
        values, vectors = original(a)
        vectors[..., 0] = 0.0
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", zero_column)
    with pytest.raises(EigensolveError, match="^eigensolver returned a zero vector$"):
        eigensystem_stack(np.diag([1.0, 2.0 + 1j])[None])
    cert = decide(np.diag([1.0, 2.0]))
    assert cert.verdict == INCONCLUSIVE
    assert cert.diagnostics == "eigensolver returned a zero vector"
