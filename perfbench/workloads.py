"""The three benchmark workloads: seeded inputs, one op each, output checks.

A workload builds one *pass*: a fixed, seed-determined list of ops.
``run.py`` repeats whole passes, so every repeat of an op can be compared
byte for byte with its first run, and the mix of op sizes in the latency
sample is the same in every run.  Ground truth never comes from the
library: it comes from how the inputs were constructed, and positive
certificates are rechecked here with plain numpy.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pseudospec import certify, cli
from pseudospec.serialization import dump_matrix

PH = "pseudo_hermitian"
NOT_PH = "not_pseudo_hermitian"
FIRM = (PH, NOT_PH)
EXIT_OF_VERDICT = {PH: 0, NOT_PH: 1, "inconclusive": 2}

#: relative residual above which a witness fails the independent recheck
#: (the library certifies at 1e-8 with its own residual formulas)
RECHECK_TOL = 1e-6
#: |det U - 1| allowed for the transfer integrator (acceptance criterion 7)
DET_DRIFT_TOL = 1e-9
#: entrywise deviation allowed between pipeline X and the closed form
CLOSED_FORM_TOL = 1e-6

#: failure kinds that mean a delivered output is itself wrong or unstable;
#: any of them makes the run's ``correct`` flag false.  The other two kinds,
#: ``exception`` and ``wrong_verdict``, are the verdict-quality defects the
#: workloads measure and only count as failed ops.  Witnesses are rechecked
#: only where the truth is pseudo-Hermitian: for any other input no valid
#: witness exists, and a positive verdict is already a ``wrong_verdict``.
INTEGRITY_FAILURES = ("exit_code", "witness_recheck", "nondeterministic", "sweep_check")


@dataclass
class Op:
    """One library call with everything needed to check its result.

    Each op holds ``slots`` verdicts whose ground truth is ``truth``: one for
    ``analyze`` and ``decide``, one per row for a sweep.
    """

    label: str  # size class, e.g. "n32-real" or "model-sweep"
    args: object
    truth: str
    slots: int = 1
    meta: dict = field(default_factory=dict)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _verdict_failures(verdicts: list[str], truth: str) -> list[str]:
    return ["wrong_verdict"] if any(v in FIRM and v != truth for v in verdicts) else []


# ---------------------------------------------------------------- recheck

def _unit(M: np.ndarray) -> np.ndarray:
    """Scale by the largest entry so products neither overflow nor flush."""
    m = float(np.max(np.abs(M))) if M.size else 0.0
    return M / m if m > 0.0 and np.isfinite(m) else M


def witness_residuals(H, tau, X, eta) -> dict[str, float]:
    """Independent residuals of the four witness relations.

    ``tau`` and ``X`` are antilinear, stored by their matrix part ``K``
    acting as ``v -> K conj(v)``.  The intertwining relations are
    homogeneous in ``H`` and in the witness, so both are scaled to unit
    largest entry first; ``X^2 = 1`` is not homogeneous and is taken as is.
    """
    Hn = _unit(np.asarray(H, dtype=complex))
    Hd = Hn.conj().T
    nH = np.linalg.norm(Hn)

    def rel(R, K):
        d = nH * np.linalg.norm(K)
        return float(np.linalg.norm(R) / d) if d > 0 else float(np.linalg.norm(R))

    T, E = _unit(tau), _unit(eta)
    n = X.shape[0]
    return {
        "eta_intertwine": rel(Hd @ E - E @ Hn, E),
        "tau_intertwine": rel(Hd @ T - T @ Hn.conj(), T),
        "X_involution": float(np.linalg.norm(X @ X.conj() - np.eye(n)) / max(np.linalg.norm(X) ** 2, 1.0)),
        "X_commute": rel(Hn @ X - X @ Hn.conj(), X),
    }


def recheck_failed(H, tau, X, eta) -> bool:
    res = witness_residuals(H, tau, X, eta)
    return not all(np.isfinite(v) and v <= RECHECK_TOL for v in res.values())


def _matrix_from_doc(doc) -> np.ndarray:
    e = np.asarray(doc["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(doc["rows"], doc["cols"])


# ---------------------------------------------------------- analyze-dense

#: (n, pairs per pass); each pair is one real and one complex fixture.
#: Sorted by latency the classes are n8 (60%), n32 (36%), n64, n128, so the
#: median sits inside the n8-real class and p90 inside the n32-real class,
#: away from every class boundary, in every whole number of passes.
DENSE_MIX = ((8, 30), (32, 18), (64, 1), (128, 1))


class AnalyzeDense:
    name = "analyze-dense"
    parallel = False

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 1])
        ops = []
        for n, pairs in DENSE_MIX:
            for j in range(pairs):
                for kind in ("real", "complex"):
                    H = rng.standard_normal((n, n))
                    if kind == "complex":
                        H = H + 1j * rng.standard_normal((n, n))
                    path = workdir / f"H-{n}-{kind}-{j}.json"
                    dump_matrix(H, path)
                    truth = PH if kind == "real" else NOT_PH
                    meta = {"H": H, "out": path.with_suffix(".cert.json")}
                    ops.append(Op(f"n{n}-{kind}", path, truth, meta=meta))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self, ops: list[Op]) -> Op:
        return next(op for op in ops if op.label == "n8-real")

    def call(self, op: Op):
        return cli.main(["analyze", str(op.args), "--json-out", str(op.meta["out"])])

    def collect(self, op: Op, code, first: bool):
        out = op.meta["out"]
        digest = _sha(code, out.read_bytes())
        if not first:
            return digest, None
        kept = out.with_suffix(".first")
        out.replace(kept)  # read back after the timed loop
        return digest, (kept, code)

    def check(self, op: Op, payload) -> tuple[list[str], list[str]]:
        path, code = payload
        doc = json.loads(path.read_bytes())
        verdict = doc["verdict"]
        failures = _verdict_failures([verdict], op.truth)
        if code != EXIT_OF_VERDICT.get(verdict):
            failures.append("exit_code")
        if verdict == PH == op.truth:
            w = doc["witnesses"]
            if recheck_failed(op.meta["H"], *(_matrix_from_doc(w[k]) for k in ("tau", "X", "eta"))):
                failures.append("witness_recheck")
        return [verdict], failures


# --------------------------------------------------------- jordan-census

#: log-uniform over the whole double range, as ROADMAP item C asks
SCALES = (1e-300, 1e-150, 1e-50, 1.0, 1e50, 1e150, 1e300)
KINDS = ("real", "complex_paired", "complex_unpaired")
CENSUS_SIZE = 4200  # 200 per (kind, scale) stratum
MAX_DIM = 16
MIN_GAP = 0.3  # separation of distinct eigenvalues; norm is about 2 before scaling
STRUCTURE_SEED = 20250321  # fixes the census of structures, not the matrices


#: chain length weights: half the chains are plain eigenvectors, as in
#: generic input, and every length up to 5 keeps a tenth or more
CHAIN_WEIGHTS = (0.5, 0.2, 0.1, 0.1, 0.1)


def _chains(rng) -> tuple[int, ...]:
    p = 1 + int(rng.choice(len(CHAIN_WEIGHTS), p=CHAIN_WEIGHTS))
    return (p, int(rng.integers(1, p + 1))) if rng.random() < 0.3 else (p,)


def census_structure(index: int, kind: str) -> list[tuple[tuple[int, ...], str]]:
    """The Jordan structure of census entry ``index``: a list of
    (chain lengths, "real" | "pair" | "unpaired") clusters, n in [2, 16].

    The structures are the same for every seed, so runs with different
    seeds differ in eigenvalues and bases, not in the mix of structures.
    """
    rng = np.random.default_rng([STRUCTURE_SEED, index])
    while True:
        groups, dim = [], 0
        for _ in range(int(rng.integers(1, 4))):
            ch = _chains(rng)
            real = rng.random() < 0.5
            size = sum(ch) * (1 if real else 2)
            if dim + size > MAX_DIM:
                break
            groups.append((ch, "real" if real else "pair"))
            dim += size
        if kind == "complex_unpaired":
            ch = _chains(rng)
            groups.append((ch, "unpaired"))
            dim += sum(ch)
        if 2 <= dim <= MAX_DIM:
            return groups


def _spectrum(rng, structure) -> list[tuple[complex, tuple[int, ...]]]:
    """Eigenvalues for a structure, at least ``MIN_GAP`` apart; conjugate
    partners carry identical chain lengths, and an unpaired cluster stays
    ``MIN_GAP`` away from every conjugate as well."""
    while True:
        groups, pts = [], []
        for ch, role in structure:
            if role == "real":
                z = complex(rng.uniform(-2, 2))
                groups.append((z, ch))
                pts.append(z)
            elif role == "pair":
                z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
                groups += [(z, ch), (z.conjugate(), ch)]
                pts += [z, z.conjugate()]
            else:
                z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2) * rng.choice((-1.0, 1.0)))
                groups.append((z, ch))
                pts += [z, z.conjugate()]
        gaps = [abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]]
        if not gaps or min(gaps) >= MIN_GAP:
            return groups


def jordan_matrix(rng, index: int, kind: str, scale: float) -> np.ndarray:
    """``scale * W J inv(W) / |W J inv(W)|_F`` for a prescribed Jordan form J.

    Real kind: conjugate clusters get conjugate columns of W, so the product
    is real up to rounding and the real part is taken: every real matrix is
    pseudo-Hermitian.  Complex kinds use a complex Gaussian W; the spectrum
    is paired with equal chains (pseudo-Hermitian) or carries one cluster
    whose conjugate is absent (not pseudo-Hermitian, robustly so).
    """
    groups = _spectrum(rng, census_structure(index, kind))
    n = sum(sum(ch) for _, ch in groups)
    J = np.zeros((n, n), dtype=complex)
    spans, col = [], 0
    for z, ch in groups:
        start = col
        for p in ch:
            for i in range(p):
                J[col, col] = z
                if i:
                    J[col - 1, col] = 1.0
                col += 1
        spans.append((start, col, z))
    while True:
        if kind == "real":
            W = np.empty((n, n), dtype=complex)
            k = 0
            while k < len(spans):
                s, e, z = spans[k]
                if z.imag == 0.0:
                    W[:, s:e] = rng.standard_normal((n, e - s))
                    k += 1
                else:
                    Z = rng.standard_normal((n, e - s)) + 1j * rng.standard_normal((n, e - s))
                    s2, e2, _ = spans[k + 1]
                    W[:, s:e], W[:, s2:e2] = Z, Z.conj()
                    k += 2
        else:
            W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(W, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            break
    H = W @ J @ np.linalg.inv(W)
    if kind == "real":
        H = H.real
    return H * (scale / np.linalg.norm(H))


def _cert_digest(cert) -> str:
    parts = [cert.verdict, sorted(cert.residuals.items()), cert.diagnostics]
    if cert.table is not None:
        parts.append([(c.value, c.p_list) for c in cert.table.clusters])
    if cert.witnesses is not None:
        w = cert.witnesses
        parts += [w.tau.matrix.tobytes(), w.X.matrix.tobytes(), w.eta.tobytes()]
    return _sha(*parts)


class JordanCensus:
    name = "jordan-census"
    parallel = False

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for i in range(CENSUS_SIZE):
            kind = KINDS[i % len(KINDS)]
            scale = SCALES[(i // len(KINDS)) % len(SCALES)]
            H = jordan_matrix(rng, i, kind, scale)
            truth = NOT_PH if kind == "complex_unpaired" else PH
            ops.append(Op(f"{kind}@{scale:.0e}", H, truth))
        return ops

    def warmup(self, ops: list[Op]) -> Op:
        return ops[0]

    def call(self, op: Op):
        return certify.decide(op.args)

    def collect(self, op: Op, cert, first: bool):
        payload = None
        if first:
            w = cert.witnesses
            payload = (cert.verdict, (w.tau.matrix, w.X.matrix, w.eta) if w is not None else None)
        return _cert_digest(cert), payload

    def check(self, op: Op, payload) -> tuple[list[str], list[str]]:
        verdict, witnesses = payload
        failures = _verdict_failures([verdict], op.truth)
        if verdict == PH == op.truth and recheck_failed(op.args, *witnesses):
            failures.append("witness_recheck")
        return [verdict], failures


# ---------------------------------------------------------------- sweeps

SCATTER_SAMPLES = 50  # README defaults: 50 samples, 2000 steps over [0, 1]
MODEL_SAMPLES = 201
MODEL_RANGE = (0.5, 3.0)
MODEL_REPEATS = 4


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _scatter_failures(rows) -> list[str]:
    if len(rows) != SCATTER_SAMPLES:
        return ["sweep_check"]
    for r in rows:
        U = np.array([[complex(float(r[f"re_U{i}{j}"]), float(r[f"im_U{i}{j}"])) for j in (1, 2)]
                      for i in (1, 2)])
        drift = float(r["det_drift"])
        if not (drift <= DET_DRIFT_TOL and abs(np.linalg.det(U) - 1.0) <= DET_DRIFT_TOL):
            return ["sweep_check"]
    return []


def _model_failures(rows, lambdas) -> list[str]:
    if len(rows) != MODEL_SAMPLES:
        return ["sweep_check"]
    L = len(lambdas)
    for r in rows:
        if r["verdict"] != PH:
            continue
        if not float(r["X_closed_form_dev"]) <= CLOSED_FORM_TOL:
            return ["sweep_check"]
        # spectrum is {+-sqrt(varpi^2 - lambda_l)}: compare as sorted sets
        w2 = float(r["varpi"]) ** 2
        exact = np.concatenate([np.emath.sqrt(w2 - np.asarray(lambdas)),
                                -np.emath.sqrt(w2 - np.asarray(lambdas))])
        got = np.array([complex(float(r[f"re_E{i + 1}"]), float(r[f"im_E{i + 1}"]))
                        for i in range(2 * L)])
        key = lambda z: (round(z.real, 6), round(z.imag, 6))
        if max(abs(a - b) for a, b in zip(sorted(exact, key=key), sorted(got, key=key))) > 1e-6:
            return ["sweep_check"]
    return []


class Sweeps:
    name = "sweeps"
    parallel = True  # rows run on the CLI's pool, one thread per CPU

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 3])
        k = round(float(rng.uniform(0.5, 2.0)), 6)
        v0 = round(float(rng.uniform(0.5, 2.0)), 6)
        a = round(float(rng.uniform(0.0, 0.3)), 6)
        b = round(float(rng.uniform(0.7, 1.0)), 6)
        scatter = ["scatter-sweep", "--potential", f"rectangular:{v0!r},{a!r},{b!r}",
                   "--k", repr(k), "--x-range", "0", "1",
                   "--samples", str(SCATTER_SAMPLES), "--steps", "2000"]
        # exceptional points sqrt(lambda_l) on grid points of the sweep
        lo, hi = MODEL_RANGE
        h = (hi - lo) / (MODEL_SAMPLES - 1)
        idx = np.sort(rng.choice(np.arange(10, MODEL_SAMPLES - 10), size=4, replace=False))
        lambdas = [(lo + int(i) * h) ** 2 for i in idx]
        model = ["model-sweep", "--lambdas", ",".join(repr(l) for l in lambdas),
                 "--varpi-range", repr(lo), repr(hi), "--samples", str(MODEL_SAMPLES),
                 "--compare-closed-form"]
        ops = []
        # one scatter-sweep per four model-sweeps: the median latency lies
        # well inside the model-sweep class, away from the class boundary
        runs = [("scatter-sweep", scatter, {})]
        runs += [("model-sweep", model, {"lambdas": lambdas})] * MODEL_REPEATS
        for label, argv, meta in runs:
            out = workdir / f"{label}-{len(ops)}.csv"
            samples = SCATTER_SAMPLES if label == "scatter-sweep" else MODEL_SAMPLES
            ops.append(Op(label, argv + ["--csv-out", str(out)], PH, samples, {"out": out, **meta}))
        return ops

    def warmup(self, ops: list[Op]) -> Op:
        return ops[1]

    def call(self, op: Op):
        return cli.main(op.args)

    def collect(self, op: Op, code, first: bool):
        data = op.meta["out"].read_bytes()
        return _sha(code, data), (code, data) if first else None

    def check(self, op: Op, payload) -> tuple[list[str], list[str]]:
        code, data = payload
        rows = _csv_rows(data)
        verdicts = [r["verdict"] for r in rows]
        failures = _verdict_failures(verdicts, op.truth)
        if code != 0:
            failures.append("exit_code")
        if op.label == "scatter-sweep":
            failures += _scatter_failures(rows)
        else:
            failures += _model_failures(rows, op.meta["lambdas"])
        return verdicts, failures


WORKLOADS = {w.name: w for w in (AnalyzeDense(), JordanCensus(), Sweeps())}
