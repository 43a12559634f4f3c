"""decide_many: a stack decided in blocks equals decide row by row, bit for bit."""
import math
import re

import numpy as np
import pytest

from pseudospec import blockdiag, certify, cli
from pseudospec.certify import (
    BLOCK_ROWS,
    INCONCLUSIVE,
    NOT_PSEUDO_HERMITIAN,
    PSEUDO_HERMITIAN,
    decide,
    decide_many,
)
from pseudospec.scattering import PotentialSpec, RectangularBarrier, hamiltonian_at
from pseudospec.truncated import ModelSpec, build_H
from tests.test_blockdiag import count_calls, jordan_matrix, well_conditioned

B = BLOCK_ROWS
SIZES = [1, B - 1, B, B + 1]


def _bits(x) -> bytes:
    a = np.asarray(x)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def certificate_bits(cert) -> list:
    """Everything a certificate holds, floats and arrays as their bytes."""
    out = [cert.verdict, cert.pairing_ok, cert.diagnostics, _bits(cert.cond_A),
           [(k, _bits(v)) for k, v in cert.residuals.items()],
           [(k, _bits(v)) for k, v in cert.tolerances.items()],
           repr(cert.table), repr(cert.labeling)]
    bd = cert.decomposition
    if bd is not None:
        out += [_bits(bd.A), _bits(bd.A_inv), _bits(bd.H0), _bits(bd.recon_residual),
                _bits(bd.cond_A)]
    w = cert.witnesses
    if w is not None:
        out += [_bits(m) for m in (w.S, w.Theta.matrix, w.tau0.matrix, w.tau.matrix, w.C0,
                                   w.eta0, w.X0.matrix, w.X.matrix, w.eta)]
    return out


def assert_rowwise(stack):
    certs = list(decide_many(stack))
    assert len(certs) == len(stack)
    for row, cert in zip(stack, certs):
        assert certificate_bits(cert) == certificate_bits(decide(row))
    return certs


def gaussian(m, kind):
    rng = np.random.default_rng([m, len(kind)])
    n = (2, 5, 8, 16)[m % 4]
    H = rng.standard_normal((m, n, n))
    if kind == "complex":
        H = H + 1j * rng.standard_normal((m, n, n))
    return H


def model(m):
    # varpi = 1 and 2 are the exceptional points of lambda = (1, 4)
    varpis = [1.0, 2.0] + list(np.linspace(0.5, 3.0, 11))
    return np.stack([build_H(ModelSpec((1.0, 4.0), float(varpis[i % len(varpis)])))
                     for i in range(m)])


def scatter(m):
    # rows outside the barrier are zero matrices, the rest nilpotent chains
    spec = PotentialSpec(RectangularBarrier(1.3, 0.2, 0.8), 1.1)
    return hamiltonian_at(np.linspace(0.0, 1.0, m), spec)


def real_basis(rng, n):
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.6, 1.6, size=n)) @ q2


def mixed(m):
    """4x4 rows that take every path: defective census-style chains (real
    and conjugate-paired, and a chain beside two simple eigenvalues),
    simple Gaussians, a zero matrix, an unpaired row, and real matrices
    with chains, at a real eigenvalue and at a conjugate pair.  Real rows,
    with simple clusters or chains, and complex rows share every block."""
    rng = np.random.default_rng(m)
    rows = []
    for i in range(m):
        kind = i % 8
        if kind == 6:
            J = jordan_matrix([(0.4, [2]), (1.1, [1]), (-0.9, [1])])
            W = real_basis(rng, 4)
            H = (W @ J @ np.linalg.inv(W)).real
            rows.append(H / np.linalg.norm(H))
            continue
        if kind == 7:
            J = jordan_matrix([(0.3 + 0.5j, [2]), (0.3 - 0.5j, [2])])
            Z = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            W = np.hstack([Z, Z.conj()])  # conjugate chains: H is real
            H = (W @ J @ np.linalg.inv(W)).real
            rows.append(H / np.linalg.norm(H))
            continue
        if kind == 0:
            J = jordan_matrix([(0.4, [2]), (-0.7, [1, 1])])
        elif kind == 1:
            J = jordan_matrix([(0.3 + 0.5j, [2]), (0.3 - 0.5j, [2])])
        elif kind == 2:
            rows.append(rng.standard_normal((4, 4)))
            continue
        elif kind == 3:
            rows.append(np.zeros((4, 4)))
            continue
        elif kind == 4:
            J = np.diag([0.5j, 1.0, 2.0, -1.0])
        else:
            J = jordan_matrix([(0.4, [2]), (1.1, [1]), (-0.9, [1])])
        W = well_conditioned(rng, 4)
        H = W @ J @ np.linalg.inv(W)
        rows.append(H / np.linalg.norm(H))
    return np.stack(rows)


STACKS = {
    "real-gaussian": lambda m: gaussian(m, "real"),
    "complex-gaussian": lambda m: gaussian(m, "complex"),
    "model-sweep": model,
    "scatter": scatter,
    "mixed": mixed,
}


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("kind", list(STACKS))
def test_stack_equals_rowwise_decide(kind, m):
    assert_rowwise(STACKS[kind](m))


def test_mixed_stack_covers_every_verdict():
    stack = mixed(B + 1)
    certs = assert_rowwise(stack)
    assert {c.verdict for c in certs} == {PSEUDO_HERMITIAN, NOT_PSEUDO_HERMITIAN}
    # the first block holds real rows with simple clusters and with chains,
    # whose X is exactly the conjugation, and complex rows
    real = [not H.imag.any() for H in stack[:B]]
    chains = [max(max(c.p_list) for c in cert.table.clusters) > 1 for cert in certs[:B]]
    assert {(r, ch) for r, ch in zip(real, chains)} == {
        (True, False), (True, True), (False, False), (False, True)}
    for H, cert in zip(stack, certs):
        if not H.imag.any():
            assert np.array_equal(cert.witnesses.X.matrix, np.eye(4))
    zero = decide(np.zeros((4, 4)))
    assert zero.table.clusters[0].p_list == (1, 1, 1, 1)
    assert np.array_equal(zero.decomposition.A, np.eye(4))  # V of the SVD of N = 0


def test_non_finite_entry_names_its_row():
    stack = np.zeros((5, 3, 3))
    stack[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="row 3"):
        decide_many(stack)


def test_empty_stack_yields_nothing():
    assert list(decide_many(np.zeros((0, 3, 3)))) == []


class TestLapackFailureIsolation:
    """A stacked LAPACK failure retries the block row by row, so only the
    failing row ends inconclusive."""

    def stack(self):
        rows = list(gaussian(B + 1, "real"))
        target = np.diag(7.0 + np.arange(len(rows[0])))  # its eigenvector basis is exactly I
        rows[B - 3] = target
        return np.stack(rows), B - 3, target

    def failing(self, monkeypatch, name, bad):
        original = getattr(np.linalg, name)

        def patched(a, *args, **kwargs):
            if bad(np.asarray(a)):
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, patched)

    def expected(self, stack):
        return [certificate_bits(decide(H)) for H in stack]

    @pytest.mark.parametrize("name", ["eig", "svd"])
    def test_failure_on_the_stack_only(self, monkeypatch, name):
        stack, _, _ = self.stack()
        expected = self.expected(stack)
        self.failing(monkeypatch, name, lambda a: a.ndim == 3 and len(a) > 1)
        assert [certificate_bits(c) for c in decide_many(stack)] == expected

    def test_eig_failure_on_one_row(self, monkeypatch):
        stack, bad_row, target = self.stack()
        expected = self.expected(stack)
        self.failing(monkeypatch, "eig", lambda a: any(
            np.array_equal(M, target) for M in a.reshape(-1, *a.shape[-2:])))
        certs = list(decide_many(stack))
        for r, cert in enumerate(certs):
            if r == bad_row:
                assert cert.verdict == INCONCLUSIVE
                assert "did not converge" in cert.diagnostics
            else:
                assert certificate_bits(cert) == expected[r]

    def test_svd_failure_on_one_row(self, monkeypatch):
        stack, bad_row, _ = self.stack()
        expected = self.expected(stack)
        eye = np.eye(len(stack[0]))
        self.failing(monkeypatch, "svd", lambda a: a.ndim == 3 and any(
            np.array_equal(M, eye) for M in a))
        certs = list(decide_many(stack))
        for r, cert in enumerate(certs):
            if r == bad_row:
                assert cert.verdict == INCONCLUSIVE
                assert cert.diagnostics == "svd did not converge"
            else:
                assert certificate_bits(cert) == expected[r]


def overflowing_j2():
    """J2(0.5) at |H|_F = 1e150: the second link of its chain carries a
    factor of about 1/|H|, so its Jordan basis has a condition number near
    1e150, far beyond the limit."""
    J = np.array([[0.5, 1.0], [0.0, 0.5]])
    return J * (1e150 / np.linalg.norm(J))


class TestOneFailureChannel:
    """A numerical breakdown leaves decide and decide_many as an
    inconclusive certificate of its own row, never as an exception."""

    def test_overflowing_cutoff_is_inconclusive(self):
        cert = decide(overflowing_j2())
        assert cert.verdict == INCONCLUSIVE
        assert re.fullmatch(r"Jordan basis condition number \d\.\d{3}e\+149 exceeds limit 1\.0e\+12",
                            cert.diagnostics)

    def test_overflowing_head_norm_is_inconclusive(self):
        # at |H| = 1e300 the chain head's entries are finite but its norm
        # is not; the gauge refuses the head before any NaN reaches A.
        # |H|_F and that norm overflow with a warning
        with np.errstate(over="ignore"):
            cert = decide(np.array([[0.5, 1.0], [0.0, 0.5]]) * 1e300)
        assert cert.verdict == INCONCLUSIVE
        assert cert.diagnostics == "chain head is zero or not finite"

    def test_overflowing_row_beside_finite_rows(self):
        rows = list(np.random.default_rng(5).standard_normal((5, 2, 2)))
        rows.insert(2, overflowing_j2())
        certs = assert_rowwise(np.stack(rows))
        assert [c.verdict == INCONCLUSIVE for c in certs] == [r == 2 for r in range(6)]

    def test_singular_eigenvectors_redo_only_their_inversion(self, monkeypatch):
        # the eigensolve of J3(0) returns three copies of e1, up to a
        # 1e-292 entry, and an exactly zero row: the stacked inversion of
        # the eigenvectors fails, and each row's eigenvectors are inverted
        # alone, while the rest of the block stays stacked.  The real
        # eigensolve gives exactly parallel eigenvectors at every exceptional
        # point of a real two-band model, so this keeps model sweeps stacked
        rows = list(gaussian(B + 1, "real"))
        rows[4] = jordan_matrix([(0.0, [3]), (1.0, [1]), (2.0, [1])])
        stack = np.stack(rows)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.linalg.eig(stack[:B])[1])
        expected = [certificate_bits(decide(H)) for H in stack]
        calls = []
        original = blockdiag.decompose_stack

        def counted(Hs, *args):
            calls.append(len(Hs))
            return original(Hs, *args)

        monkeypatch.setattr(blockdiag, "decompose_stack", counted)
        monkeypatch.setattr(certify, "decompose_stack", counted)
        assert [certificate_bits(c) for c in decide_many(stack)] == expected
        assert calls == [B, 1]


def test_model_sweep_makes_one_eig_call_per_block(tmp_path, monkeypatch):
    # 201 samples of [0.5, 3] include the exceptional points varpi = 1, 2
    rows_per_call = []
    original = np.linalg.eig

    def counted(a):
        rows_per_call.append(len(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    assert cli.main([
        "model-sweep", "--lambdas", "1,4", "--varpi-range", "0.5", "3", "--samples", "201",
        "--csv-out", str(tmp_path / "sweep.csv"),
    ]) == 0
    assert len(rows_per_call) == math.ceil(201 / B)
    assert sum(rows_per_call) == 201  # no row is solved twice


def test_model_sweep_gauges_each_block_once(tmp_path, monkeypatch):
    # the simple heads of a block share one gauge call; each of the two
    # coalesced clusters, at varpi = 1 and 2, runs the staircase and gauges
    # its one chain head there; no head is gauged twice
    heads_per_call = []
    gauge = blockdiag._canonical_gauge
    monkeypatch.setattr(blockdiag, "_canonical_gauge",
                        lambda heads: heads_per_call.append(len(heads)) or gauge(heads))
    staircases = count_calls(monkeypatch, blockdiag, "jordan_chains")
    assert cli.main([
        "model-sweep", "--lambdas", "1,4", "--varpi-range", "0.5", "3", "--samples", "201",
        "--csv-out", str(tmp_path / "sweep.csv"),
    ]) == 0
    assert len(staircases) == 2
    assert len(heads_per_call) == math.ceil(201 / B) + len(staircases)
    assert sum(heads_per_call) == 4 * 201 - 2
