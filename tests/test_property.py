"""Fixed-seed property suite: prescribed Jordan structures, chains up to
length 6, at every scale from 1e-300 to 1e300, and spirals of Jordan blocks
near n = 64.  decide may answer ``inconclusive``, but it never raises and
never gives a wrong firm verdict.
"""
import numpy as np
import pytest

from pseudospec.certify import INCONCLUSIVE, NOT_PSEUDO_HERMITIAN, PSEUDO_HERMITIAN, decide
from tests.test_blockdiag import jordan_matrix, well_conditioned

KINDS = ("real", "complex_paired", "complex_unpaired")
SCALES = (1e-300, 1e-150, 1e-50, 1.0, 1e50, 1e150, 1e300)
PER_STRATUM = 8
MAX_DIM = 12
MIN_GAP = 0.3  # between distinct eigenvalues and, for an unpaired one, its conjugate


def chains(rng) -> list[int]:
    p = int(rng.integers(1, 7))
    return [p, int(rng.integers(1, p + 1))] if rng.random() < 0.3 else [p]


def structure(rng, kind):
    """[(eigenvalue, [p, ...]), ...] for ``jordan_matrix``: real clusters and
    conjugate pairs with equal chains, plus for the unpaired kind one
    complex cluster whose conjugate is absent."""
    while True:
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            ps = chains(rng)
            if rng.random() < 0.5:
                groups.append((complex(rng.uniform(-2, 2)), ps))
            else:
                z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
                groups += [(z, ps), (z.conjugate(), ps)]
        if kind == "complex_unpaired":
            groups.append((complex(rng.uniform(-2, 2), rng.uniform(0.5, 2) * rng.choice((-1, 1))),
                           chains(rng)))
        points = [z for z, _ in groups]
        if kind == "complex_unpaired":
            points.append(points[-1].conjugate())
        gaps = [abs(a - b) for i, a in enumerate(points) for b in points[i + 1:]]
        if 2 <= sum(sum(ps) for _, ps in groups) <= MAX_DIM and min(gaps, default=1) >= MIN_GAP:
            return groups


def basis(rng, groups, kind):
    """A well-conditioned basis; for the real kind the columns of a
    conjugate cluster are the conjugates of its partner's, and those of a
    real cluster are real, so that ``W J inv(W)`` is real."""
    n = sum(sum(ps) for _, ps in groups)
    while True:
        W = well_conditioned(rng, n)
        if kind == "real":
            col, spans = 0, {}
            for z, ps in groups:
                spans[z] = slice(col, col + sum(ps))
                col += sum(ps)
            for z, cols in spans.items():
                if z.imag == 0:
                    W[:, cols] = W[:, cols].real
                elif z.imag < 0:
                    W[:, cols] = W[:, spans[z.conjugate()]].conj()
        if np.linalg.cond(W) < 1e3:
            return W


def matrix(rng, kind, scale):
    groups = structure(rng, kind)
    W = basis(rng, groups, kind)
    H = W @ jordan_matrix(groups) @ np.linalg.inv(W)
    if kind == "real":
        H = H.real
    return H * (scale / np.linalg.norm(H))


# numpy warns at the large scales as the squares summed by the norms of chain
# links (np.linalg.norm) and by |H|_F (fro_rows) overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", SCALES, ids=[f"{s:.0e}" for s in SCALES])
@pytest.mark.parametrize("kind", KINDS)
def test_no_exception_and_no_wrong_firm_verdict(kind, scale):
    rng = np.random.default_rng([KINDS.index(kind), SCALES.index(scale)])
    wrong = NOT_PSEUDO_HERMITIAN if kind != "complex_unpaired" else PSEUDO_HERMITIAN
    faults = []
    for i in range(PER_STRATUM):
        H = matrix(rng, kind, scale)
        try:
            verdict = decide(H).verdict
        except Exception as exc:  # noqa: BLE001 - every exception is a fault here
            faults.append(f"matrix {i}: {type(exc).__name__}: {exc}")
            continue
        if verdict == wrong:
            faults.append(f"matrix {i}: wrong firm verdict {verdict}")
    assert faults == []


def spiral(p, clusters, seed, paired=True):
    """``H / |H|_F`` for ``H = W J inv(W)``, J of ``clusters`` J_p blocks on
    a spiral.  Paired: the values ``exp(2 pi i (j + 1/2) / clusters) (1 +
    j / clusters)``, ``j < clusters / 2``, all in the upper half plane, each
    with a complex Gaussian basis Z and its conjugate partner with conj(Z),
    so that H is real up to rounding and is taken real.  Unpaired: every
    ``j < clusters``, whose conjugates the spiral's growing radius leaves
    out, each with its own complex Gaussian basis."""
    rng = np.random.default_rng(seed)
    n = clusters * p
    j = np.arange(clusters)
    values = np.exp(2j * np.pi * (j + 0.5) / clusters) * (1 + j / clusters)
    groups, bases = [], []
    for z in values[:clusters // 2] if paired else values:
        Z = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        groups.append((complex(z), [p]))
        bases.append(Z)
        if paired:
            groups.append((complex(z).conjugate(), [p]))
            bases.append(Z.conj())
    W = np.concatenate(bases, axis=1)
    H = W @ jordan_matrix(groups) @ np.linalg.inv(W)
    if paired:
        H = H.real
    return H / np.linalg.norm(H)


# (p, clusters, paired, seed): J2 and J3 pairs certify with every cluster's
# chain; the unpaired J2 spiral is refused; J4 pairs may end inconclusive,
# as seeds 0 and 1 do through false merges into one 16-member and one
# 64-member cluster (ROADMAP item Q), but never with a wrong firm verdict
@pytest.mark.parametrize("p, clusters, paired, seed", [
    (2, 32, True, 0), (3, 20, True, 0), (2, 32, False, 0),
    (4, 16, True, 0), (4, 16, True, 1), (4, 16, True, 2),
], ids=["J2-pairs-n64", "J3-pairs-n60", "J2-unpaired-n64", "J4-pairs-n64-seed0",
        "J4-pairs-n64-seed1", "J4-pairs-n64-seed2"])
def test_defective_spirals_near_n64(p, clusters, paired, seed):
    cert = decide(spiral(p, clusters, seed, paired))
    truth = PSEUDO_HERMITIAN if paired else NOT_PSEUDO_HERMITIAN
    assert cert.verdict in ((truth, INCONCLUSIVE) if p == 4 else (truth,)), cert.diagnostics
    if cert.verdict == PSEUDO_HERMITIAN:
        assert [c.p_list for c in cert.table.clusters] == [(p,)] * clusters
