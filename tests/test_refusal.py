"""Spectral refusals: a complex H whose spectrum is not closed under
conjugation is refused from its eigensolve, with a margin and a bound on
every metric, before any Jordan analysis."""
import re
import warnings

import numpy as np
import pytest

from pseudospec import blockdiag
from pseudospec.certify import (
    NOT_PSEUDO_HERMITIAN,
    ToleranceProfile,
    _spectral_refusals,
    decide,
)
from pseudospec.linalg import eigensystem_stack
from tests.test_blockdiag import count_calls, jordan_matrix, well_conditioned

#: norms |H|_F of the exact-truth inputs: powers of two, which scale H
#: exactly, and the decades at both ends of the float range
SCALES = [2.0 ** k for k in (-500, -50, -1, 1, 50, 500)] + [1e-300, 1e-150, 1e150, 1e300]

#: spectra with a cluster whose conjugate is absent, chains up to J5
UNPAIRED = [
    [(0.4 + 0.9j, [1]), (-0.6, [1])],
    [(-0.3 + 0.9j, [4]), (0.3 - 0.6j, [1]), (0.6, [1])],
    [(0.2 - 0.7j, [5]), (1.1, [2])],
    [(-0.4 + 0.6j, [3, 1]), (-0.4 - 0.6j, [3, 1]), (0.9 + 0.5j, [2])],
]

#: spectra closed under conjugation with equal chains, up to a J5 that
#: rounding splits into five values about eps**(1/5) apart
PAIRED = [
    [(0.4 + 0.9j, [1]), (0.4 - 0.9j, [1]), (-0.6, [1])],
    [(0.3 + 0.8j, [5]), (0.3 - 0.8j, [5])],
    [(0.5, [5]), (-0.2, [2])],
    [(-0.4 + 0.6j, [3, 1]), (-0.4 - 0.6j, [3, 1]), (0.9, [2])],
]


def exact_truth(structure, scale, seed):
    """``W J inv(W)`` for the Jordan matrix of ``structure`` and a complex
    well-conditioned W, at ``|H|_F = scale``; the norm is taken at unit
    scale, so no product leaves the float range."""
    J = jordan_matrix(structure)
    W = well_conditioned(np.random.default_rng(seed), J.shape[0])
    H = W @ J @ np.linalg.inv(W)
    return H * (scale / np.linalg.norm(H))


def unit(M):
    """``M`` divided by the power of two of its largest real or imaginary
    part, exactly: the explicit SVDs below run on it, away from overflow."""
    e = np.frexp(np.abs(M.view(np.float64)).max())[1]
    return np.ldexp(M.view(np.float64), -e).view(complex)


def sigma_min(M):
    return np.linalg.svd(M, compute_uv=False)[-1]


def farthest_conjugate(H):
    """The eigenvalue whose conjugate lies farthest from the spectrum, from
    plain numpy."""
    w = np.linalg.eigvals(H)
    return w[np.abs(w.conj()[:, None] - w[None, :]).min(axis=1).argmax()]


def named_E(cert) -> complex:
    """The E that the detail names, to the last bit."""
    match = re.match(r"eigenvalue E=(\S+) has no conjugate partner: ", cert.diagnostics)
    return complex(match.group(1))


def scaled_E(H, E):
    """``E`` divided by the power of two of :func:`unit`."""
    e = np.frexp(np.abs(H.view(np.float64)).max())[1]
    return complex(np.ldexp(E.real, -e), np.ldexp(E.imag, -e))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case", range(len(UNPAIRED)))
def test_unpaired_spectrum_is_refused_at_every_scale(case, scale):
    H = exact_truth(UNPAIRED[case], scale, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the prescale keeps every norm in range
        cert = decide(H)
    assert cert.verdict == NOT_PSEUDO_HERMITIAN and not cert.pairing_ok
    assert cert.table is None and cert.labeling is None
    assert set(cert.residuals) == {"refusal_sigma_min", "metric_cond_bound"}
    ratio, bound = cert.residuals["refusal_sigma_min"], cert.residuals["metric_cond_bound"]
    assert ratio > cert.tolerances["pair_tol"]
    # sigma_min(H - conj(E)) / |H|_F from an explicit SVD at the E that the
    # detail names; the exact power of two divides out.  Rounding can split
    # a J5 differently in another eigensolve, so E is checked only to lie
    # within that split of the value that plain numpy picks
    E = named_E(cert)
    Hu, Eu = unit(H), scaled_E(H, E)
    explicit = sigma_min(Hu - Eu.conjugate() * np.eye(len(H))) / np.linalg.norm(Hu)
    np.testing.assert_allclose(ratio, explicit, rtol=1e-12)
    assert abs(E - farthest_conjugate(H)) <= 1e-2 * scale
    assert bound >= 1.0


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case", range(len(PAIRED)))
def test_paired_spectrum_never_refuses_through_the_spectral_test(monkeypatch, case, scale):
    H = exact_truth(PAIRED[case], scale, 10 + case)
    eigen = eigensystem_stack(H[None])
    assert not eigen[2][0]  # a complex row: the test runs
    svds = count_calls(monkeypatch, np.linalg, "svd")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _spectral_refusals(H[None], *eigen, ToleranceProfile().pair_tol) == {}
    # rounding splits every chain far beyond pair_tol |H|_F, so the
    # sigma_min is taken there; simple values are paired to rounding
    assert len(svds) == (max(p for _, ps in PAIRED[case] for p in ps) > 1)
    monkeypatch.undo()
    with np.errstate(all="ignore"):  # |H|_F of a kept row at 1e300 overflows
        cert = decide(H)
    assert "refusal_sigma_min" not in cert.residuals


@pytest.mark.parametrize("case", range(len(UNPAIRED)))
def test_metric_bound_is_below_the_explicit_ratio(case):
    # cond(eta) >= sigma_min(H - conj(E)) / sigma_min(H - E) for every
    # metric eta; the certificate's bound replaces the denominator by an
    # upper bound from the eigenvector, so it lies below the explicit ratio
    for scale in (1e-300, 1.0, 1e300):
        H = exact_truth(UNPAIRED[case], scale, case)
        cert = decide(H)
        Hu, E = unit(H), scaled_E(H, named_E(cert))
        eye = np.eye(len(H))
        explicit = sigma_min(Hu - E.conjugate() * eye) / sigma_min(Hu - E * eye)
        assert 1.0 <= cert.residuals["metric_cond_bound"] <= explicit


def test_zero_pair_tol_refuses_any_unpaired_spectrum():
    cert = decide(exact_truth(UNPAIRED[0], 1.0, 0), ToleranceProfile(pair_tol=0.0))
    assert cert.verdict == NOT_PSEUDO_HERMITIAN
    assert np.isfinite(cert.residuals["metric_cond_bound"])


def test_paired_values_with_unequal_chains_are_refused_by_the_decomposition():
    # the spectrum is closed under conjugation, so no metric bound exists;
    # the pairing test of the decomposition refuses the row and names the pair
    H = exact_truth([(0.3 + 0.8j, [2]), (0.3 - 0.8j, [1, 1])], 1.0, 3)
    cert = decide(H)
    assert cert.verdict == NOT_PSEUDO_HERMITIAN
    assert "refusal_sigma_min" not in cert.residuals
    assert "mismatched Jordan dimensions" in cert.diagnostics
    assert cert.table is not None


class TestCost:
    """What the spectral test costs: nothing where it cannot fire, and no
    Jordan analysis where it refuses."""

    def svd_calls(self, monkeypatch, run):
        calls = count_calls(monkeypatch, np.linalg, "svd")
        run()
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("kind", ["real", "triangular", "similar"])
    def test_no_extra_svd_where_the_test_cannot_fire(self, monkeypatch, kind):
        rng = np.random.default_rng(5)
        if kind == "real":
            H = rng.standard_normal((6, 6))
        else:
            # a conjugate-paired spectrum: exactly on the diagonal of a
            # triangular H, and to rounding under a complex similarity
            J = np.diag([0.3 + 0.8j, 0.3 - 0.8j, -0.5 + 0j, 1.2 + 0.4j, 1.2 - 0.4j])
            J += np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), 1)
            W = well_conditioned(rng, 5)
            H = J if kind == "triangular" else W @ J @ np.linalg.inv(W)
        alone = self.svd_calls(monkeypatch, lambda: blockdiag.block_diagonalize(H))
        assert self.svd_calls(monkeypatch, lambda: decide(H)) == alone

    def test_unpaired_spiral_refuses_without_jordan_analysis(self, monkeypatch):
        # 32 J2 blocks on a spiral, v_j = exp(2 pi i j / 32) (1 + j / 64),
        # under a unitary similarity: the radii of v_j and v_(32-j) differ,
        # so no value has its conjugate.  The staircase would run 32 times
        # on 64 x 64 matrices
        rng = np.random.default_rng(64)
        v = np.exp(2j * np.pi * np.arange(32) / 32) * (1 + np.arange(32) / 64)
        J = jordan_matrix([(z, [2]) for z in v])
        Q, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))

        def never(*args):
            raise AssertionError("the staircase ran")

        monkeypatch.setattr(blockdiag, "_chains", never)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        cert = decide(Q @ J @ Q.conj().T)
        assert cert.verdict == NOT_PSEUDO_HERMITIAN
        assert cert.residuals["refusal_sigma_min"] > cert.tolerances["pair_tol"]
        assert len(svds) == 1  # the one sigma_min
