"""pseudospec benchmark: three closed-loop workloads, checked outputs, and a
traced run for per-layer numbers.

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root.  It imports the library from ``src/`` of
the same checkout and fails when those sources are missing.  One caller in
one process calls the library again only after the previous call returns.
The only extra threads are those the CLI sweeps start themselves.  The run
repeats whole passes of the workload's op list until ``--seconds`` have
elapsed.  With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it runs one pass untraced, then the same pass traced, and
reports the per-layer metrics.  The last line of standard output is one JSON
object.  Working files, the full result and the spans go to ``.perfbench/``.
See ``perfbench/README.md`` for every metric.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # pinned before numpy is imported

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("analyze-dense", "jordan-census", "sweeps")
SETUP_SAMPLES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------ environment

def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "PSEUDOSPEC_THREADS": os.environ.get("PSEUDOSPEC_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit() or "unavailable (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------- op records

class Ledger:
    """First-pass payloads, per-op run counts and digests of every run."""

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, ops
        self.runs = [0] * len(ops)
        self.first = [None] * len(ops)  # digest of the first run
        self.payload = [None] * len(ops)
        self.exception = [None] * len(ops)  # exception type of the first run
        self.mismatch = [0] * len(ops)  # runs whose digest differs from the first
        self.latency: list[list[float]] = [[] for _ in ops]  # seconds, per run
        self.starts: list[list[float]] = [[] for _ in ops]

    def run(self, i: int) -> None:
        op = self.ops[i]
        first = self.runs[i] == 0
        t0 = time.perf_counter()
        self.starts[i].append(t0)
        try:
            raw = self.wl.call(op)
        except Exception as exc:  # counted as a failed op; the run goes on
            self.latency[i].append(time.perf_counter() - t0)
            digest, payload = f"exception:{type(exc).__name__}:{exc}", None
            if first:
                self.exception[i] = type(exc).__name__
        else:
            self.latency[i].append(time.perf_counter() - t0)
            digest, payload = self.wl.collect(op, raw, first)
        self.runs[i] += 1
        if first:
            self.first[i], self.payload[i] = digest, payload
        elif digest != self.first[i]:
            self.mismatch[i] += 1

    def tally(self) -> dict:
        """Check every first-pass output; each op of the pass counts once.

        Outcomes are counted per pass, not per run, so that they depend on
        the seed alone and not on how many passes fitted in the time.  An
        op fails when its first run fails a check or any repeat differs
        from the first run.
        """
        from workloads import FIRM

        t = Counter()
        kinds = Counter()
        exceptions = Counter()
        by_label = {}
        for i, op in enumerate(self.ops):
            if self.runs[i] == 0:
                continue
            t["attempted"] += 1
            t["slots"] += op.slots
            if self.exception[i] is not None:
                verdicts, failures = [], ["exception"]
                exceptions[f"{self.exception[i]} in {op.label}"] += 1
            else:
                verdicts, failures = self.wl.check(op, self.payload[i])
            if self.mismatch[i]:
                failures = failures + ["nondeterministic"]
            bad = 1 if failures else 0
            t["failed"] += bad
            for k in failures:
                kinds[k] += 1
            lab = by_label.setdefault(op.label, Counter())
            lab["ops"] += 1
            lab["failed"] += bad
            for v in verdicts:
                key = ("correct" if v == op.truth else "wrong") if v in FIRM else v
                t[key] += 1
                lab[key] += 1
        t["failure_kinds"] = dict(kinds)
        t["exceptions"] = dict(exceptions)
        t["by_label"] = {k: dict(v) for k, v in sorted(by_label.items())}
        return t


def op_latencies(ledger, probe) -> dict:
    """Percentiles over every op run, at reference speed.  Whole passes keep
    the mix of size classes identical from run to run."""
    import numpy as np

    raw = np.array([t for ls in ledger.latency for t in ls])
    mid = np.array([s for ss in ledger.starts for s in ss]) + raw / 2
    norm = 1e3 * raw / probe.slowdown_at(mid)
    ms = sorted(norm.tolist())
    q = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
    by_label = {}
    for op, l in zip(ledger.ops, ledger.latency):
        by_label.setdefault(op.label, []).extend(1e3 * t for t in l)
    return {"runs": len(ms), "sum_s": sum(ms) / 1e3,
            "p50": statistics.median(ms), "p90": q[8],
            "beyond_p90": sum(1 for x in ms if x > q[8]),
            "raw_p50_ms_by_label": {k: statistics.median(v) for k, v in sorted(by_label.items())}}


class Probe:
    """Fixed calibration work, timed between ops to track the host's speed.

    On a shared host the whole CPU speeds up and slows down by tens of
    percent in phases of seconds to minutes.  Such a phase stretches the
    probe and the ops alike.  Timings are therefore reported at the
    reference speed: each op's raw seconds times ``REFERENCE_S`` over the
    smoothed probe time at the middle of the op.
    The probe uses numpy alone and never the library, so a change to
    pseudospec cannot move it.  Raw timings stay in the result file.
    """

    #: probe time on the host the bounds were set on (2 vCPU Xeon, 2.1 GHz)
    REFERENCE_S = 1.4e-3
    PERIOD_S = 0.04
    WINDOW_S = 1.5

    def __init__(self, cpus=None):
        import numpy as np

        self.np = np
        self.cpus = cpus
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.samples: list[float] = []
        self.times: list[float] = []  # middle of each probe
        self.last = time.perf_counter()

    def _once(self) -> float:
        """One round; with ``cpus`` set, one round pinned to each CPU, and
        their mean, for ops whose threads spread over all of them."""
        if not self.cpus:
            return self._round()
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._round())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.mean(times)

    def _round(self) -> float:
        np, M = self.np, self.M
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.svd(M)
            np.linalg.eig(M)
            M @ M
            s = 0
            for i in range(500):
                s += i * i
        return time.perf_counter() - t0

    def run(self) -> None:
        """One sample.  After a long op the first round runs cold, so a gap
        of more than ``5 * PERIOD_S`` gets a burst of rounds and their median."""
        t0 = time.perf_counter()
        rounds = 1 if t0 - self.last <= 5 * self.PERIOD_S else 5
        sample = statistics.median(self._once() for _ in range(rounds))
        self.last = time.perf_counter()
        self.samples.append(sample)
        self.times.append((self.last + t0) / 2)

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.PERIOD_S:
            self.run()

    def slowdown(self) -> float:
        """Host slowness against the reference: > 1 means slower."""
        return statistics.mean(self.samples) / self.REFERENCE_S

    def slowdown_at(self, t):
        """Slowness at times ``t``: the median of the probes within
        ``WINDOW_S`` of each probe, which drops single stalled probes, then
        interpolated between probes."""
        np = self.np
        times, samples = np.asarray(self.times), np.asarray(self.samples)
        lo = np.searchsorted(times, times - self.WINDOW_S)
        hi = np.searchsorted(times, times + self.WINDOW_S, side="right")
        smooth = [np.median(samples[a:b]) for a, b in zip(lo, hi)]
        return np.interp(t, times, smooth) / self.REFERENCE_S


# ----------------------------------------------------------------- set-up

def build(wl, seed, workdir):
    """Set-up proper: build the inputs (writing any fixtures) and run one
    warm-up op."""
    ops = wl.build(seed, workdir)
    warm = wl.warmup(ops)
    try:
        wl.call(warm)
    except Exception:  # the same op fails again, and is counted, in the loop
        pass
    return ops


def timed_build(wl, seed, workdir, probe):
    """``build`` timed at reference speed, with probes on both sides."""
    probe.run()
    t0 = time.perf_counter()
    ops = build(wl, seed, workdir)
    t1 = time.perf_counter()
    probe.run()
    return ops, (t1 - t0) / float(probe.slowdown_at((t0 + t1) / 2))


# ------------------------------------------------------------------ runs

def timed_loop(ledger, seconds, probe) -> tuple[float, int]:
    t0 = time.perf_counter()
    passes = 0
    while True:
        for i in range(len(ledger.ops)):
            ledger.run(i)
            probe.maybe()
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0, passes


def end_to_end(args, wl, ops, probe) -> tuple[dict, dict]:
    ledger = Ledger(wl, ops)
    wall, passes = timed_loop(ledger, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = ledger.tally()
    probe.run()
    lat = op_latencies(ledger, probe)
    metrics = {
        "ops_per_s": (lat["runs"] / lat["sum_s"], "1/s"),
        "latency_p50_ms": (lat["p50"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "correct_firm_rate": (t["correct"] / t["slots"], "ratio"),
    }
    extra = {
        "latency_p90_ms": (lat["p90"], "ms") if lat["beyond_p90"] >= 10 else None,
        "failed_rate": (t["failed"] / t["attempted"], "ratio"),
        "wrong_firm_rate": (t["wrong"] / t["slots"], "ratio"),
        "inconclusive_rate": (t["inconclusive"] / t["slots"], "ratio"),
    }
    detail = {"tally": t, "latency": lat, "passes": passes, "wall_s": wall,
              "host_slowdown": probe.slowdown(), "probes": len(probe.samples),
              "raw_ops_per_s": lat["runs"] / sum(map(sum, ledger.latency)),
              "informational": extra}
    return metrics, detail


def traced(args, wl, ops) -> tuple[dict, dict]:
    from tracing import Tracer

    ledger = Ledger(wl, ops)
    t0 = time.perf_counter()
    for i in range(len(ops)):
        ledger.run(i)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i in range(len(ops)):
            tracer.span("bench.op", "bench", ledger.run, i)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    t = ledger.tally()
    m = layer_metrics(tracer, len(ops), wall)
    m["trace.overhead_ratio"] = (wall / untraced, "ratio")
    m["certify.wrong_firm_rate"] = (t["wrong"] / t["slots"], "ratio")
    counts = tracer.counts()
    selfs = tracer.self_times()
    detail = {"tally": t, "untraced_s": untraced, "traced_s": wall, "ops": len(ops),
              "counts_per_pass": dict(sorted(counts.items())),
              "self_s_per_op": {k: v / len(ops) for k, v in sorted(selfs.items())},
              "pool_threads": tracer.pool_threads,
              "spans": len(tracer.spans)}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return m, detail


def layer_metrics(tracer, ops: int, wall: float) -> dict:
    c = tracer.counts()
    s = tracer.self_times()
    v = tracer.values
    rows = sum(e - b for _, _, name, _, b, e, _ in tracer.spans if name == "cli.row")
    mains = sum(e - b for _, _, name, _, b, e, _ in tracer.spans if name == "cli.main")
    per = lambda x: x / ops
    share = lambda name: s.get(name, 0.0) / wall
    decides = len(v["verdict"])
    return {
        "linalg.svd_calls_per_op": (per(c["lapack.svd"]), "count"),
        "linalg.eig_calls_per_op": (per(c["lapack.eig"]), "count"),
        "linalg.inv_calls_per_op": (per(c["lapack.inv"]), "count"),
        "linalg.qr_calls_per_op": (per(c["lapack.qr"]), "count"),
        "linalg.as_matrix_calls_per_op": (per(c["linalg.as_matrix"]), "count"),
        "linalg.lapack_s": (per(tracer.lapack_seconds()), "s"),
        "blockdiag.eigensolve_s": (per(s["blockdiag.eigensolve"]), "s"),
        "blockdiag.cluster_s": (per(s["blockdiag.cluster"]), "s"),
        "blockdiag.staircase_s": (per(s["blockdiag.staircase"]), "s"),
        "blockdiag.staircase_calls_per_op": (
            per(sum(1 for sp in tracer.spans if sp[2] == "blockdiag.staircase")), "count"),
        "blockdiag.assembly_s": (per(s["blockdiag.block_diagonalize"]), "s"),
        "blockdiag.lapack_calls_per_op": (per(_layer_calls(c, "blockdiag")), "count"),
        "symmetry.pairing_s": (per(s["symmetry.pairing"]), "s"),
        "symmetry.synthesis_s": (per(s["symmetry.synthesis"]), "s"),
        "symmetry.synthesis_wasted_ratio": (_mean(v["synthesis_wasted"]), "ratio"),
        "symmetry.lapack_calls_per_op": (per(_layer_calls(c, "symmetry")), "count"),
        "antilinear.op_builds_per_op": (
            per(sum(1 for sp in tracer.spans if sp[2] == "antilinear.op_build")), "count"),
        "certify.residuals_s": (per(s["certify.residuals"]), "s"),
        "certify.decide_self_s": (per(s["certify.decide"]), "s"),
        "certify.decide_calls_per_op": (
            per(sum(1 for sp in tracer.spans if sp[2] == "certify.decide")), "count"),
        "certify.inconclusive_rate": (
            sum(x == "inconclusive" for x in v["verdict"]) / decides if decides else 0.0, "ratio"),
        "certify.residual_max_log10": (max(v["residual_log10"], default=0.0), "log10"),
        "serialization.bytes_per_op": (per(sum(v["bytes"])), "bytes"),
        "serialization.load_share": (share("serialization.load"), "ratio"),
        "serialization.to_doc_share": (share("serialization.to_doc"), "ratio"),
        "serialization.dumps_share": (share("serialization.dumps"), "ratio"),
        "scattering.rk4_steps_per_op": (per(sum(v["rk4_steps"])), "count"),
        "scattering.hamiltonian_calls_per_op": (per(c["scattering.hamiltonian"]), "count"),
        "scattering.det_drift_max": (max(v["det_drift"], default=0.0), "1"),
        "scattering.evolve_share": (share("scattering.evolve"), "ratio"),
        "truncated.build_share": (share("truncated.build"), "ratio"),
        "truncated.closed_form_share": (share("truncated.closed_form"), "ratio"),
        "cli.csv_share": (share("cli.csv"), "ratio"),
        "cli.pool_threads": (float(tracer.pool_threads), "count"),
        "cli.parallel_busy_ratio": (rows / mains if rows else 0.0, "ratio"),
        "trace.unattributed_s": (per(s["bench.op"]), "s"),
    }


def _layer_calls(c, layer):
    return sum(c[f"{layer}.{k}"] for k in ("svd", "eig", "inv", "qr", "det"))


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# ----------------------------------------------------------------- main

def run_workload(args) -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    t0 = time.perf_counter()
    from workloads import INTEGRITY_FAILURES, WORKLOADS  # imports numpy and pseudospec
    import_s = time.perf_counter() - t0
    wl = WORKLOADS[args.workload]
    probe = Probe(sorted(os.sched_getaffinity(0)) if wl.parallel else None)
    probe.run()
    import_s /= probe.slowdown()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, setup = timed_build(wl, args.seed, workdir, probe)
        if args.trace:
            metrics, detail = traced(args, wl, ops)
        else:
            metrics, detail = end_to_end(args, wl, ops, probe)
            # set up again in fresh directories for the median; imports happen once
            setups = [setup]
            for k in range(1, SETUP_SAMPLES):
                again = workdir / f"setup-{k}"
                again.mkdir()
                setups.append(timed_build(wl, args.seed, again, probe)[1])
            metrics = {"setup_s": (import_s + statistics.median(setups), "s"), **metrics}
            detail.update(import_s=import_s, setup_samples_s=setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t = detail["tally"]
    correct = not any(k in INTEGRITY_FAILURES for k in t["failure_kinds"])
    env = environment(args)
    report = {"correct": correct, "attempted": t["attempted"], "failed": t["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"environment": env, **report, "detail": detail},
                                       indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}  "
          + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("workload", "seed", "trace")))
    print(f"# attempted={t['attempted']} failed={t['failed']} correct={correct} "
          f"failure_kinds={t['failure_kinds']} exceptions={t['exceptions']}")
    rows = dict(metrics)
    for k, v in detail.get("informational", {}).items():
        rows[k] = v if v is not None else ("n/a: fewer than 10 samples beyond p90", "")
    if "latency" in detail:
        rows["latency_samples"] = (detail["latency"]["runs"], "count")
        rows["host_slowdown"] = (detail["host_slowdown"], "ratio")
    for k, (v, u) in rows.items():
        shown = f"{v:.6g}" if isinstance(v, float) else v
        print(f"{args.workload:14s} {k:36s} {shown} {u}")
    print(json.dumps(report))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        r = json.loads(lines[-1])
        merged["correct"] &= r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pseudospec" / "__init__.py").is_file():
        print(f"error: the pseudospec sources are not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
