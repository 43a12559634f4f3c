"""Outside-in tracing of pseudospec for the traced benchmark run.

Nothing inside the library changes.  :func:`Tracer.install` rebinds, in the
namespace of each calling module, the public names that module calls, so
every call into a layer passes through a wrapper here:

* span wrappers record name, layer, start, end, parent span and thread id;
  the self time of a span is its duration minus the same-thread child spans
  it encloses;
* counter wrappers around ``numpy.linalg`` (LAPACK), ``as_matrix`` and
  ``hamiltonian_at`` count calls and, for LAPACK, time them, attributed to
  the innermost layer span; they are transparent, so the self time of the
  layer that issued a LAPACK call still contains it.

Rows that the CLI sweeps run on their own thread pool get a ``cli.row``
span whose parent is the span that submitted them.  Spans stay in memory
until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from pseudospec import antilinear, blockdiag, certify, cli, linalg, scattering

INCONCLUSIVE = "inconclusive"

#: (module, name, span name, layer)
SPANS = (
    (cli, "main", "cli.main", "cli"),
    (cli, "_write_csv", "cli.csv", "cli"),
    (cli, "decide", "certify.decide", "certify"),
    (certify, "decide", "certify.decide", "certify"),
    (certify, "witness_residuals", "certify.residuals", "certify"),
    (certify, "block_diagonalize", "blockdiag.block_diagonalize", "blockdiag"),
    (blockdiag, "eigenvalues", "blockdiag.eigensolve", "blockdiag"),
    (blockdiag, "cluster_eigenvalues", "blockdiag.cluster", "blockdiag"),
    (blockdiag, "jordan_chains", "blockdiag.staircase", "blockdiag"),
    (certify, "classify_spectrum", "symmetry.pairing", "symmetry"),
    (certify, "check_pairing", "symmetry.pairing", "symmetry"),
    (certify, "synthesize_operators", "symmetry.synthesis", "symmetry"),
    (cli, "load_matrix", "serialization.load", "serialization"),
    (cli, "certificate_to_doc", "serialization.to_doc", "serialization"),
    (cli, "dumps_canonical", "serialization.dumps", "serialization"),
    (cli, "evolve_transfer", "scattering.evolve", "scattering"),
    (cli, "build_H", "truncated.build", "truncated"),
    (cli, "closed_form_X", "truncated.closed_form", "truncated"),
)

#: (module, name, counter) for calls too frequent or too small for a span
COUNTERS = (
    (linalg, "as_matrix", "linalg.as_matrix"),
    (blockdiag, "as_matrix", "linalg.as_matrix"),
    (certify, "as_matrix", "linalg.as_matrix"),
    (antilinear, "as_matrix", "linalg.as_matrix"),
    (scattering, "as_matrix", "linalg.as_matrix"),
    (cli, "hamiltonian_at", "scattering.hamiltonian"),
    (scattering, "hamiltonian_at", "scattering.hamiltonian"),
)

#: numpy.linalg entry points and the LAPACK kind they are counted as
LAPACK = {"svd": "svd", "eig": "eig", "eigvals": "eig", "inv": "inv", "qr": "qr", "det": "det"}


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._lapack_s: list[list[float]] = []
        self.spans: list[tuple] = []  # (id, parent, name, layer, start, end, thread)
        # per-call observations, appended from any thread
        self.values = {k: [] for k in ("verdict", "synthesis_wasted", "residual_log10",
                                       "bytes", "rk4_steps", "det_drift")}
        self.pool_threads = 0
        self._saved: list[tuple] = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []  # (span id, layer)
            loc.counts = Counter()
            loc.lapack_s = [0.0]
            loc.synthesized = False
            with self._lock:
                self._counters.append(loc.counts)
                self._lapack_s.append(loc.lapack_s)
        return loc

    def current(self):
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def span(self, name, layer, fn, *args, parent=None, **kwargs):
        loc = self._state()
        sid = next(self._ids)
        if parent is None and loc.stack:
            parent = loc.stack[-1][0]
        loc.stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            loc.stack.pop()
            self.spans.append((sid, parent, name, layer, t0, t1, threading.get_ident()))

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, fn, name, layer):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = self._state()
            if name == "certify.decide":
                loc.synthesized = False
            elif name == "symmetry.synthesis":
                loc.synthesized = True
            out = self.span(name, layer, fn, *args, **kwargs)
            if observe is not None:
                observe(self, loc, out)
            return out

        return wrapper

    def _counter_wrapper(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lapack_wrapper(self, fn, kind):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ not in (2, -2) or np.ndim(args[0]) != 2:
                    return fn(*args, **kwargs)
                counted = "svd"  # the matrix 2-norm is one SVD
            else:
                counted = kind
            loc = self._state()
            layer = loc.stack[-1][1] if loc.stack else "bench"
            loc.counts[f"lapack.{counted}"] += 1
            loc.counts[f"{layer}.{counted}"] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                loc.lapack_s[0] += time.perf_counter() - t0

        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_threads = max(tracer.pool_threads, self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.span, "cli.row", "cli", fn, *args,
                                      parent=parent, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                # the caller blocks here until the rows are done
                return tracer.span("cli.pool_wait", "wait",
                                   lambda: list(super(TracedPool, self).map(fn, *iterables, **kwargs)))

        return TracedPool

    def _bind(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Rebind every traced name; names a later version removed are skipped."""
        for mod, name, span, layer in SPANS:
            if hasattr(mod, name):
                self._bind(mod, name, self._span_wrapper(getattr(mod, name), span, layer))
        for mod, name, counter in COUNTERS:
            if hasattr(mod, name):
                self._bind(mod, name, self._counter_wrapper(getattr(mod, name), counter))
        for name, kind in list(LAPACK.items()) + [("norm", "norm")]:
            self._bind(np.linalg, name, self._lapack_wrapper(getattr(np.linalg, name), kind))
        cls = antilinear.AntilinearOp
        post = cls.__post_init__
        self._bind(cls, "__post_init__", lambda op: self.span("antilinear.op_build", "antilinear", post, op))
        if hasattr(cli, "ThreadPoolExecutor"):
            self._bind(cli, "ThreadPoolExecutor", self._pool_class(cli.ThreadPoolExecutor))

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------
    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def lapack_seconds(self) -> float:
        return sum(v[0] for v in self._lapack_s)

    def self_times(self) -> dict[str, float]:
        """Self seconds by span name, summed over threads."""
        child = defaultdict(float)
        for sid, parent, name, layer, t0, t1, tid in self.spans:
            child[(parent, tid)] += t1 - t0
        out = defaultdict(float)
        for sid, parent, name, layer, t0, t1, tid in self.spans:
            out[name] += (t1 - t0) - child.get((sid, tid), 0.0)
        return out

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "layer", "start", "end", "thread")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))))
                fh.write("\n")


def _observe_decide(tracer, loc, cert):
    v = tracer.values
    v["verdict"].append(cert.verdict)
    if loc.synthesized:
        v["synthesis_wasted"].append(cert.verdict == INCONCLUSIVE)
    finite = [r for r in cert.residuals.values() if r > 0 and math.isfinite(r)]
    if finite:
        v["residual_log10"].append(math.log10(max(finite)))


def _observe_dumps(tracer, loc, text):
    tracer.values["bytes"].append(len(text.encode()))


def _observe_evolve(tracer, loc, res):
    tracer.values["rk4_steps"].append(res.steps)
    tracer.values["det_drift"].append(res.det_drift)


_OBSERVERS = {
    "certify.decide": _observe_decide,
    "serialization.dumps": _observe_dumps,
    "scattering.evolve": _observe_evolve,
}
