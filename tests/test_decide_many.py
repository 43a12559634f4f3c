"""decide_many: a stack decided in blocks equals decide row by row, bit for bit."""
import math
import re

import numpy as np
import pytest

from pseudospec import blockdiag, certify, cli, symmetry
from pseudospec.certify import (
    INCONCLUSIVE,
    NOT_PSEUDO_HERMITIAN,
    PSEUDO_HERMITIAN,
    block_rows,
    decide,
    decide_many,
)
from pseudospec.blockdiag import BlockSpectra, EigenCluster, SpectralTable, block_diagonalize
from pseudospec.linalg import eigensystem_stack, fro_rows
from pseudospec.scattering import PotentialSpec, RectangularBarrier, hamiltonian_at
from pseudospec.symmetry import classify_spectrum, synthesize_stack
from pseudospec.truncated import ModelSpec, build_H, build_H_stack
from tests.test_blockdiag import count_calls, jordan_matrix, union_find_rows, well_conditioned
from tests.test_symmetry import permutations, reference_layout

#: the block depth of most tests here, whatever n, so that the stacks
#: about a block's edge stay short
B = 16
SIZES = [1, B - 1, B, B + 1]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(certify, "block_rows", lambda n: B)


def _bits(x) -> bytes:
    a = np.asarray(x)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def certificate_bits(cert) -> list:
    """Everything a certificate holds, floats and arrays as their bytes."""
    out = [cert.verdict, cert.pairing_ok, cert.diagnostics, _bits(cert.cond_A),
           [(k, _bits(v)) for k, v in cert.residuals.items()],
           [(k, _bits(v)) for k, v in cert.tolerances.items()],
           repr(cert.table), repr(cert.labeling)]
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
        if cert.table is not None:
            # the row's decomposition alone, as its block decomposed it
            bd = block_diagonalize(row, cert.tolerances["cluster_tol"])
            assert bd.table == cert.table and _bits(bd.cond_A) == _bits(cert.cond_A)
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
def test_stack_equals_rowwise_decide(small_blocks, kind, m):
    assert_rowwise(STACKS[kind](m))


#: rows of n x n matrices per block: 4,096 entries, between 16 and 64 rows
DEFAULT_ROWS = {1: 64, 2: 64, 8: 64, 10: 40, 16: 16, 64: 16}


@pytest.mark.parametrize("n", list(DEFAULT_ROWS))
def test_blocks_hold_block_rows(monkeypatch, n):
    blocks = []
    monkeypatch.setattr(certify, "_decided", lambda Hs, tol: blocks.append(len(Hs)) or [len(Hs)])
    monkeypatch.setattr(certify, "_certificates", lambda rows, tolerances: [None] * rows)
    rows = DEFAULT_ROWS[n]
    assert len(list(decide_many(np.zeros((2 * rows + 1, n, n))))) == 2 * rows + 1
    assert blocks == [rows, rows, 1]


def test_certificates_hold_their_own_tolerances():
    # one as_dict per block, one copy per certificate
    first, second = decide_many(np.stack([np.eye(2), np.zeros((2, 2))]))
    assert first.tolerances == second.tolerances
    first.tolerances["pair_tol"] = 1.0
    assert second.tolerances == certify.ToleranceProfile().as_dict()


def test_mixed_stack_covers_every_verdict(small_blocks):
    stack = mixed(B + 1)
    certs = assert_rowwise(stack)
    assert {c.verdict for c in certs} == {PSEUDO_HERMITIAN, NOT_PSEUDO_HERMITIAN}
    # the first block holds real rows with simple clusters and with chains,
    # whose X is exactly the conjugation, decomposed complex rows with
    # chains, and complex rows refused from the spectrum, which have no table
    real = [not H.imag.any() for H in stack[:B]]
    decomposed = [(r, max(max(c.p_list) for c in cert.table.clusters) > 1)
                  for r, cert in zip(real, certs[:B]) if cert.table is not None]
    assert set(decomposed) == {(True, False), (True, True), (False, True)}
    refused = [(r, cert) for r, cert in zip(real, certs[:B]) if cert.table is None]
    assert refused
    for r, cert in refused:
        assert not r and cert.verdict == NOT_PSEUDO_HERMITIAN
        assert cert.residuals["refusal_sigma_min"] > cert.tolerances["pair_tol"]
    for H, cert in zip(stack, certs):
        if not H.imag.any():
            assert np.array_equal(cert.witnesses.X.matrix, np.eye(4))
    zero = decide(np.zeros((4, 4)))
    assert zero.table.clusters[0].p_list == (1, 1, 1, 1)
    # V of the SVD of N = 0
    assert np.array_equal(block_diagonalize(np.zeros((4, 4))).A, np.eye(4))


#: 12-slot structures in canonical order: chains of length up to 5, real
#: clusters and conjugate pairs, and a row of simple clusters
BLOCK_STRUCTURES = [
    [(0.5 - 1j, [2, 1]), (0.5 + 1j, [2, 1]), (1.0, [5, 1])],
    [(-2.0, [4]), (0.3 - 0.7j, [3, 1]), (0.3 + 0.7j, [3, 1])],
    [(-1j, [2, 1]), (1j, [2, 1]), (0.0, [1]), (1.0, [2]), (2.0, [3])],
    [(3.0, [5, 4, 2, 1])],
    [(-1.0 - 2j, [1]), (-1.0 + 2j, [1]), *((float(k), [1]) for k in range(10))],
]


def test_block_H0_S_and_C0_are_the_per_slot_rule():
    # one block of rows with different chain structures: H0 set from index
    # arrays, S and C0 from the block's chain lengths, each row's bits those
    # of the per-slot rule and of a one-row block
    rng = np.random.default_rng(9)
    Hs, centers_list, chain_sets = [], [], []
    for structure in BLOCK_STRUCTURES:
        W = well_conditioned(rng, 12)
        Hs.append(W @ jordan_matrix(structure) @ np.linalg.inv(W))
        cols = iter(W.T)
        centers_list.append([E for E, _ in structure])
        chain_sets.append([[[next(cols) for _ in range(p)] for p in ps] for _, ps in structure])
    Hs = np.stack(Hs)
    real = np.array([False, True, False, True, False])  # only carried through
    A = np.stack([np.array([v for chains in cs for chain in chains for v in chain]).T
                  for cs in chain_sets])
    spectra = BlockSpectra.of([SpectralTable(tuple(EigenCluster(E, tuple(ps)) for E, ps in st))
                               for st in BLOCK_STRUCTURES])
    block = blockdiag._assemble(Hs, fro_rows(Hs), real, A, spectra)
    labelings, shift = symmetry.label_block(spectra)
    witnesses = synthesize_stack(block.A, block.A_inv, real, spectra, shift)
    for r, (bd, lab) in enumerate(zip(blockdiag._decompositions(block), labelings)):
        w = symmetry._operators(witnesses, r)
        assert lab == classify_spectrum(bd.table)
        assert [c.p_list for c in bd.table.clusters] == [tuple(p) for _, p in BLOCK_STRUCTURES[r]]
        assert bd.real == real[r]
        H0, S, C0 = reference_layout(bd.table, lab.pairs)
        assert bd.H0.tobytes() == H0.tobytes()
        alone = blockdiag.from_chains(Hs[r], centers_list[r], chain_sets[r])
        assert alone.H0.tobytes() == bd.H0.tobytes()
        S_alone, C0_alone = permutations([bd.table])
        assert w.S.tobytes() == S.tobytes() == S_alone[0].tobytes()
        assert w.C0.tobytes() == C0.tobytes() == C0_alone[0].tobytes()
        assert w.Theta.matrix.tobytes() == np.eye(12, dtype=complex).tobytes()


def test_non_finite_entry_names_its_row():
    stack = np.zeros((5, 3, 3))
    stack[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="row 3"):
        decide_many(stack)


@pytest.mark.parametrize("n", [0, 3])
def test_empty_stack_yields_nothing(n):
    assert list(decide_many(np.zeros((0, n, n)))) == []


@pytest.mark.usefixtures("small_blocks")
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

    def test_merge_svd_failure_on_one_row(self, monkeypatch):
        # a merge confirmation that fails is caught where the union-find
        # runs: its row alone ends inconclusive, and the block is not
        # redone row by row.  Row 14 of the mixed stack is a real 4 x 4 with
        # a split J2 beside two simple values; seven other rows run merge
        # confirmations too
        stack, bad_row = mixed(B), 14
        expected = self.expected(stack)
        off = ~np.eye(4, dtype=bool)  # H - zI keeps the off-diagonal of H
        original = np.linalg.svd
        merges = []

        def patched(a, *args, **kwargs):
            if a.ndim == 2 and kwargs.get("compute_uv") is False:
                merges.append(a)
                if np.array_equal(a[off], stack[bad_row][off]):
                    raise np.linalg.LinAlgError("SVD did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", patched)
        blocks = count_calls(monkeypatch, certify, "decompose_stack")
        certs = list(decide_many(stack))
        assert len(blocks) == 1 and len(merges) > 1
        for r, cert in enumerate(certs):
            if r == bad_row:
                assert cert.verdict == INCONCLUSIVE
                assert cert.diagnostics == "SVD did not converge"
            else:
                assert certificate_bits(cert) == expected[r]


class TestSpectralRefusalIsolation:
    """Rows refused from the spectrum share blocks with decomposed rows and
    with rows whose decomposition fails; each keeps its place and the
    certificate that decide gives it alone."""

    @staticmethod
    def unpaired(rng):
        W = well_conditioned(rng, 2)
        return W @ np.diag([0.6 + 0.9j, -0.4]) @ np.linalg.inv(W)

    def stack(self, m):
        rng = np.random.default_rng(m)
        rows, kinds = [], []
        for i in range(m):
            kind = ("refused", "real", "paired", "failed")[i % 4]
            if kind == "refused":
                H = self.unpaired(rng)
            elif kind == "real":
                H = rng.standard_normal((2, 2))
            elif kind == "paired":
                W = well_conditioned(rng, 2)
                H = W @ np.diag([0.3 + 0.8j, 0.3 - 0.8j]) @ np.linalg.inv(W)
            else:
                H = overflowing_j2()
            rows.append(H)
            kinds.append(kind)
        return np.stack(rows), kinds

    @pytest.mark.parametrize("m", SIZES)
    def test_mixed_rows_equal_decide_in_order(self, small_blocks, m):
        stack, kinds = self.stack(m)
        certs = assert_rowwise(stack)
        for kind, cert in zip(kinds, certs):
            refused = "refusal_sigma_min" in cert.residuals
            assert refused == (kind == "refused")
            assert (cert.table is None) == (kind in ("refused", "failed"))
            if kind == "failed":
                assert cert.verdict == INCONCLUSIVE and "condition number" in cert.diagnostics
            elif kind != "refused":
                assert cert.verdict == PSEUDO_HERMITIAN

    def test_svd_failure_of_one_refusal(self, small_blocks, monkeypatch):
        # the row's largest part lies in [0.5, 1), so the prescale keeps its
        # bits and its H - conj(E) I still holds the marker entry
        marker = 0.123456789 + 0.25j
        bad = np.array([[0.9 + 0.3j, marker], [0.2, -0.4]])
        stack, _ = self.stack(B + 1)
        stack[5] = bad
        assert "refusal_sigma_min" in decide(bad).residuals
        expected = [certificate_bits(decide(H)) for H in stack]
        original = np.linalg.svd

        def patched(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim == 3 and not kwargs.get("compute_uv", True) and (a[:, 0, 1] == marker).any():
                raise np.linalg.LinAlgError("svd did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", patched)
        certs = list(decide_many(stack))
        assert len(certs) == len(stack)
        for r, cert in enumerate(certs):
            if r == 5:
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

    def test_non_finite_cluster_center_is_inconclusive(self):
        # the eigenvalues of an all-1e308 matrix overflow, and a cluster is
        # centered at inf+nanj: the staircase's SVD fails on it, and that
        # LinAlgError ends the row, where a ValueError would escape decide
        with np.errstate(over="ignore", invalid="ignore"):
            cert = decide(np.full((4, 4), 1e308))
        assert cert.verdict == INCONCLUSIVE
        assert cert.diagnostics == "SVD did not converge"

    def test_overflowing_row_beside_finite_rows(self):
        rows = list(np.random.default_rng(5).standard_normal((5, 2, 2)))
        rows.insert(2, overflowing_j2())
        certs = assert_rowwise(np.stack(rows))
        assert [c.verdict == INCONCLUSIVE for c in certs] == [r == 2 for r in range(6)]

    def exceptional_model(self):
        # at some exceptional points of the real two-band model, here at
        # varpi = 0.8 and 2.1375, the real eigensolve returns exactly
        # parallel eigenvectors: a 64-row block with two such rows
        roots = (0.75, 0.8, 2.1375, 2.575)  # sample points, as the benchmark draws them
        varpis = np.linspace(0.5, 3.0, 64)
        varpis[[10, 40]] = roots[1], roots[2]
        stack = build_H_stack(tuple(r * r for r in roots), varpis)
        return stack, [("inv", 64), ("slogdet", 64), ("inv", 62)]

    def defective_gaussian(self):
        # the eigensolve of J3(0) returns three copies of e1, up to a
        # 1e-292 entry, and an exactly zero row, in a block of Gaussians
        rows = list(gaussian(B + 1, "real"))
        rows[4] = jordan_matrix([(0.0, [3]), (1.0, [1]), (2.0, [1])])
        return np.stack(rows), [("inv", B + 1), ("slogdet", B + 1), ("inv", B)]

    @pytest.mark.parametrize("case", ["exceptional_model", "defective_gaussian"])
    def test_singular_eigenvectors_redo_only_their_inversion(self, monkeypatch, case):
        # the stacked inversion of the block's eigenvectors fails; one
        # slogdet screens out the singular rows and one inversion serves
        # the rest: the block stays stacked and each row keeps its own bits
        stack, inversions = getattr(self, case)()
        assert len(stack) <= block_rows(stack.shape[1])  # one block
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(eigensystem_stack(stack)[1])
        expected = [certificate_bits(decide(H)) for H in stack]
        blocks = count_calls(monkeypatch, certify, "decompose_stack")
        calls, inside = [], []
        for name in ("inv", "slogdet"):
            def counted(a, name=name, original=getattr(np.linalg, name)):
                if inside:
                    calls.append((name, len(a)))
                return original(a)
            monkeypatch.setattr(np.linalg, name, counted)
        condition_numbers = blockdiag._condition_numbers

        def traced(vectors):
            inside.append(True)
            try:
                return condition_numbers(vectors)
            finally:
                inside.pop()

        monkeypatch.setattr(blockdiag, "_condition_numbers", traced)
        assert [certificate_bits(c) for c in decide_many(stack)] == expected
        assert len(blocks) == 1  # no LAPACK failure sent the block row by row
        assert calls == inversions


#: the 4x4 model of the README, and an 8x8 one as the benchmark sweeps:
#: 201 samples of [0.5, 3] include the exceptional points varpi = 1, 2
MODEL_LAMBDAS = ["1,4", "1,4,16,25"]


def model_sweep_201(tmp_path, lambdas):
    assert cli.main([
        "model-sweep", "--lambdas", lambdas, "--varpi-range", "0.5", "3", "--samples", "201",
        "--csv-out", str(tmp_path / "sweep.csv"),
    ]) == 0
    return 2 * len(lambdas.split(","))  # n


@pytest.mark.parametrize("lambdas", MODEL_LAMBDAS)
def test_model_sweep_makes_one_eig_call_per_block(tmp_path, monkeypatch, lambdas):
    rows_per_call = []
    original = np.linalg.eig

    def counted(a):
        rows_per_call.append(len(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    n = model_sweep_201(tmp_path, lambdas)
    assert len(rows_per_call) == math.ceil(201 / block_rows(n))  # 4 blocks of at most 64
    assert sum(rows_per_call) == 201  # no row is solved twice


@pytest.mark.parametrize("lambdas", MODEL_LAMBDAS)
def test_model_sweep_gauges_each_block_once(tmp_path, monkeypatch, lambdas):
    # the simple heads of a block share one gauge call; each of the two
    # coalesced clusters, at varpi = 1 and 2, runs the staircase and gauges
    # its one chain head there; no head is gauged twice
    heads_per_call = []
    gauge = blockdiag._canonical_gauge
    monkeypatch.setattr(blockdiag, "_canonical_gauge",
                        lambda heads: heads_per_call.append(len(heads)) or gauge(heads))
    staircases = count_calls(monkeypatch, blockdiag, "_chains")
    n = model_sweep_201(tmp_path, lambdas)
    assert len(staircases) == 2
    assert len(heads_per_call) == math.ceil(201 / block_rows(n)) + len(staircases)
    assert sum(heads_per_call) == n * 201 - 2


def test_merge_rows_beside_plain_rows_at_n32():
    # the L = 16 model with lambda_l = (l + 1)^2 / 4 over 201 samples of
    # [0.5, 3]: 16-row blocks of 32 x 32 matrices.  The exceptional points
    # varpi = 1.5 and 2.5 have merge candidates and share their blocks with
    # plain rows; every certificate is the one decide gives its row alone
    lambdas = tuple((l + 1) ** 2 / 4 for l in range(16))
    varpis = np.linspace(0.5, 3.0, 201)
    stack = build_H_stack(lambdas, varpis)
    assert block_rows(32) == 16
    _, candidates = union_find_rows(stack)
    for varpi in (1.5, 2.5):
        (row,) = np.flatnonzero(np.isclose(varpis, varpi))
        block = np.arange(row - row % 16, row - row % 16 + 16)
        assert row in candidates and not np.isin(block, candidates).all()
    certs = assert_rowwise(stack)
    assert NOT_PSEUDO_HERMITIAN not in {c.verdict for c in certs}
