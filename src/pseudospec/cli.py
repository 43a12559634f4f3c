"""Command line surface: ``analyze``, ``scatter-sweep``, ``model-sweep``.

Exit codes of ``analyze``: 0 pseudo-Hermitian, 1 not, 2 inconclusive
(every numerical breakdown, an overflow included, with its certificate),
3 input error.  The sweeps exit 0, with an ``inconclusive`` row wherever
the analysis breaks down, or 3 on an input error, which includes an H
beyond the float range.  Every command exits 3 on a malformed command
line and on a file it cannot read or write.  Sweep commands emit CSV with
a fixed column order; float cells use shortest round-trip repr, so
identical inputs give byte-identical output.

The sweeps form their rows from the arrays of each decided block of
samples (:func:`certify._decide_blocks`): verdicts, residuals, spectra and
witness stacks.  No certificate, table or witness set of a row is built;
only ``analyze`` hands out a certificate.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from itertools import chain

import numpy as np

from .certify import (
    INCONCLUSIVE,
    NOT_PSEUDO_HERMITIAN,
    PSEUDO_HERMITIAN,
    WITNESS_RESIDUALS,
    ToleranceProfile,
    _decide_blocks,
    decide,
)
from .scattering import (
    PotentialSpec,
    RectangularBarrier,
    SampledPotential,
    evolve_transfer,
    hamiltonian_at,
)
from .serialization import load_matrix, write_certificate
from .truncated import ModelSpec, build_H_stack, closed_form_X, exceptional_levels

EXIT_PSEUDO_HERMITIAN = 0
EXIT_NOT_PSEUDO_HERMITIAN = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

_VERDICT_EXIT = {
    PSEUDO_HERMITIAN: EXIT_PSEUDO_HERMITIAN,
    NOT_PSEUDO_HERMITIAN: EXIT_NOT_PSEUDO_HERMITIAN,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

RESIDUAL_COLUMNS = (*WITNESS_RESIDUALS, "reconstruction")


def _input_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


@contextmanager
def _output(path):
    """The command's output: stdout, or the file at ``path``, opened now,
    before the work, so that an unwritable path fails at once.  A file that
    this creates and the command leaves empty, after an input error or a
    failure, is removed, so that no partial output is left behind."""
    created = bool(path) and not os.path.lexists(path)
    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        try:
            yield out
        finally:
            if created and not out.tell():
                os.remove(path)


def _write_csv(out, header, rows):
    csv.writer(out, lineterminator="\n").writerows([header, *rows])


def _verdict_cells(block) -> list[list]:
    """The verdict and residual cells of each row of a decided block."""
    return [[v, *r] for v, r in zip(block.verdicts, block.residuals.tolist())]


def cmd_analyze(args) -> int:
    try:
        H = load_matrix(args.input)
        profile = ToleranceProfile(
            cluster_tol=args.tol_cluster, real_tol=args.tol_real, pair_tol=args.tol_pair
        )
    except ValueError as exc:  # a FormatError too
        return _input_error(exc)
    with _output(args.json_out) as out:
        try:
            cert = decide(H, profile)
        except ValueError as exc:
            return _input_error(exc)
        write_certificate(cert, out)
    return _VERDICT_EXIT[cert.verdict]


def _parse_potential(text: str):
    kind, _, rest = text.partition(":")
    if kind == "rectangular":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("rectangular potential needs v0,x_start,x_end")
        v0, a, b = (float(p) for p in parts)
        return RectangularBarrier(v0, a, b)
    if kind == "sampled":
        xs, vs = [], []
        with open(rest, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    x, v = map(float, line.replace(",", " ").split())
                except ValueError:
                    raise ValueError(f'{rest}:{number}: expected two numbers "x v"') from None
                xs.append(x)
                vs.append(v)
        return SampledPotential(tuple(xs), tuple(vs))
    raise ValueError(f"unknown potential kind {kind!r}")


def _scatter_header():
    cols = ["x", "k"]
    for i in (1, 2):
        for j in (1, 2):
            cols += [f"re_U{i}{j}", f"im_U{i}{j}"]
    cols += ["det_drift", "verdict"]
    cols += [f"res_{name}" for name in RESIDUAL_COLUMNS]
    return cols


def cmd_scatter_sweep(args) -> int:
    x_lo, x_hi = args.x_range
    try:
        potential = _parse_potential(args.potential)
        spec = PotentialSpec(potential, args.k)
        if not (np.isfinite(x_lo) and np.isfinite(x_hi) and x_lo < x_hi):
            raise ValueError("x-range must be finite and increasing")
        potential.value(np.array([x_lo, x_hi]))  # a sampled grid must cover the range
        xs = np.linspace(x_lo, x_hi, args.samples)
    except ValueError as exc:
        return _input_error(exc)

    with _output(args.csv_out) as out:
        try:
            blocks = _decide_blocks(hamiltonian_at(xs, spec))  # refuses an H beyond the float range
            res = evolve_transfer(spec, x_lo, x_hi, args.steps, at=xs)  # and a U beyond it
        except ValueError as exc:
            return _input_error(exc)
        # x, k, Re and Im of U11, U12, U21, U22, and the drift of each sample
        head = np.column_stack([xs, np.full_like(xs, spec.k),
                                res.sample_U.reshape(-1, 4).view(float), res.sample_drift]).tolist()
        # map, unlike a loop variable, holds no block while the next one is
        # decided, so one block of arrays is alive at a time
        cells = chain.from_iterable(map(_verdict_cells, blocks))
        _write_csv(out, _scatter_header(), [h + c for h, c in zip(head, cells)])
    return 0


def _model_header(L: int, compare: bool):
    cols = ["varpi", "regime_real_count", "is_exceptional"]
    for i in range(2 * L):
        cols += [f"re_E{i + 1}", f"im_E{i + 1}"]
    cols += ["p_lists", "cond_A", "verdict"]
    cols += [f"res_{name}" for name in RESIDUAL_COLUMNS]
    if compare:
        cols.append("X_closed_form_dev")
    return cols


def cmd_model_sweep(args) -> int:
    lo, hi = args.varpi_range
    try:
        lambdas = tuple(float(p) for p in args.lambdas.split(","))
        spec = ModelSpec(lambdas, 1.0)  # validates the lambda list
        if not (0 < lo < np.inf and 0 < hi < np.inf):  # also refuses a NaN bound
            raise ValueError("varpi-range must have finite, positive bounds")
        samples = np.linspace(lo, hi, args.samples)
        Hs = build_H_stack(lambdas, samples)
    except ValueError as exc:
        return _input_error(exc)
    # each sample's varpi and exceptional-point flag, taken block by block
    heads = zip(samples.tolist(), (exceptional_levels(lambdas, samples) >= 0).astype(int).tolist())
    X = closed_form_X(spec).matrix if args.compare_closed_form else None  # the same for every varpi
    with _output(args.csv_out) as out:
        try:
            blocks = _decide_blocks(Hs)  # refuses an H beyond the float range
        except ValueError as exc:
            return _input_error(exc)
        # one block of arrays is alive at a time; see scatter-sweep
        rows = chain.from_iterable(map(lambda block: _model_cells(block, heads, spec.L, X), blocks))
        _write_csv(out, _model_header(spec.L, args.compare_closed_form), rows)
    return 0


def _model_cells(block, heads, L: int, X) -> list[list]:
    """The rows of a decided block of a model sweep: each row's varpi, the
    number of real eigenvalues, its flag, Re and Im of each cluster value
    as often as its multiplicity, the chain lengths, joined by + within a
    cluster and by ; between clusters, cond(A), the verdict and residuals
    and, when ``X`` is given, the largest entry of ``|X - X_cf|`` for a
    certified row.  A row with no decomposition gets -1, zeros, no chains,
    inf and NaN.  The block takes its rows' varpi and flag from the
    iterator ``heads``."""
    dec, m = block.decomposed, len(block.verdicts)
    real, cond, dev = np.full(m, -1), np.full(m, np.inf), np.full(m, np.nan)
    evs, p_lists = np.zeros((m, 4 * L)), np.full(m, "", dtype=object)
    if dec.rows:
        s, rows = dec.spectra, dec.rows
        evs[rows] = s.centers.repeat(s.sizes).view(float).reshape(len(rows), -1)
        cond[rows] = dec.cond
        # the sizes of the real clusters, summed over each row
        at = [a + n for a, lab in zip((s.counts.cumsum() - s.counts).tolist(), block.labelings)
              for n in lab.real_clusters]
        real[rows] = np.bincount(np.arange(len(rows)).repeat(s.counts)[at], s.sizes[at], len(rows))
        # each chain's length and the separator after it, looked up: + inside
        # a cluster, ; after its last chain, a line break after the row's last
        ends = s.chains.cumsum() - 1  # the last chain of each cluster, and then of each row
        sep = np.bincount(np.r_[ends, ends[s.counts.cumsum() - 1]], minlength=len(s.lengths))
        words = np.array([f"{p}{c}" for p in range(2 * L + 1) for c in "+;\n"], dtype=object)
        p_lists[rows] = "".join(words[3 * s.lengths + sep].tolist()).split("\n")[:-1]
    if X is not None and block.paired:
        dev[block.paired] = np.abs(block.witnesses.X - X).max(axis=(1, 2))
    dev[np.array(block.verdicts) != PSEUDO_HERMITIAN] = np.nan
    extra = [[d] for d in dev.tolist()] if X is not None else [[]] * m
    # heads comes last, so zip takes no more of it than the block has rows
    return [[w, c, f, *e, p, q, *v, *x] for c, e, p, q, v, x, (w, f) in zip(
        real.tolist(), evs.tolist(), p_lists.tolist(), cond.tolist(), _verdict_cells(block), extra,
        heads)]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A sample or step count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


@lru_cache(maxsize=None)  # it costs about a millisecond, a quarter of a small analyze
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process."""
    parser = _Parser(
        prog="pseudospec",
        description="Block-diagonalization and pseudo-Hermiticity certificates "
        "for dense complex operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify a matrix from a JSON file")
    p.add_argument("input", help="path to a matrix JSON document")
    p.add_argument("--tol-cluster", type=float, default=ToleranceProfile.cluster_tol)
    p.add_argument("--tol-pair", type=float, default=ToleranceProfile.pair_tol)
    p.add_argument("--tol-real", type=float, default=ToleranceProfile.real_tol)
    p.add_argument("--json-out", default=None, help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scatter-sweep", help="transfer-matrix sweep of a 1-d potential")
    p.add_argument("--potential", required=True,
                   help="rectangular:v0,x_start,x_end or sampled:path")
    p.add_argument("--k", type=float, required=True, help="wavenumber")
    p.add_argument("--x-range", type=float, nargs=2, required=True, metavar=("XMIN", "XMAX"))
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--steps", type=_count, default=2000, help="integrator steps over the full range")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_scatter_sweep)

    p = sub.add_parser("model-sweep", help="parameter sweep of the two-band lattice model")
    p.add_argument("--lambdas", required=True, help="comma-separated increasing positive list")
    p.add_argument("--varpi-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--compare-closed-form", action="store_true")
    p.set_defaults(func=cmd_model_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an unreadable input or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry_point() -> None:
    sys.exit(main())
