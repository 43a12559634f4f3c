import csv
import io
import json
import re

import numpy as np
import pytest

from pseudospec import blockdiag, certify, cli, scattering, symmetry
from pseudospec.blockdiag import BlockSpectra
from pseudospec.cli import main
from pseudospec.scattering import (
    PotentialSpec,
    RectangularBarrier,
    barrier_transfer,
    evolve_transfer,
    hamiltonian,
)
from pseudospec.serialization import dump_matrix, load_matrix
from pseudospec.certify import decide, decide_many
from pseudospec.truncated import ModelSpec, build_H, closed_form_X, is_exceptional
from tests.test_blockdiag import count_calls


#: the ROADMAP item Q model, lambda_l = (l + 1)^2 / 4 for l = 0..15: over
#: [0.5, 3] the rows at varpi = 1.5 and 2.5 end inconclusive
L16 = ",".join(str((l + 1) ** 2 / 4) for l in range(16))


def write_matrix(tmp_path, M, name="m.json"):
    path = tmp_path / name
    dump_matrix(M, path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def transfer_columns(header, row):
    i11 = header.index("re_U11")
    re_im = np.array([float(c) for c in row[i11:i11 + 8]])
    return (re_im[0::2] + 1j * re_im[1::2]).reshape(2, 2)


class TestAnalyze:
    def test_identity_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.eye(2))
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pseudo_hermitian"
        assert doc["spectral_table"] == [{"E": [1.0, 0.0], "d": 2, "p_list": [1, 1]}]

    def test_defective_scattering_generator(self, tmp_path, capsys):
        # x = 0, k = 1, v = 2; the commuting witness X degenerates to
        # plain conjugation there, so its matrix part is the identity
        path = write_matrix(tmp_path, hamiltonian(0.0, 1.0, 2.0))
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        (row,) = doc["spectral_table"]
        assert row["d"] == 1 and row["p_list"] == [2]
        assert abs(complex(*row["E"])) < 1e-10
        X = doc["witnesses"]["X"]
        got = np.array([complex(re, im) for re, im in X["entries"]]).reshape(2, 2)
        assert np.max(np.abs(got - np.eye(2))) < 1e-10

    def test_unpaired_input_exits_one_and_names_cluster(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.diag([1.0 + 1.0j, 2.0]))
        assert main(["analyze", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_pseudo_hermitian"
        assert "no conjugate partner" in doc["pairing"]["detail"]

    def test_malformed_json_exits_three_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[0, ]]}')
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_json_out_and_determinism(self, tmp_path):
        path = write_matrix(tmp_path, np.diag([2.0, 1.0]))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", path, "--json-out", str(out1)]) == 0
        assert main(["analyze", path, "--json-out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_arithmetic_failure_is_inconclusive_not_a_refusal(self, tmp_path, capsys):
        # a J2(0.5) chain at |H|_F = 1e150: its second link carries a factor
        # of about 1/|H|, so the Jordan basis is far too ill-conditioned to
        # certify, and the certificate says so
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        path = write_matrix(tmp_path, J * (1e150 / np.linalg.norm(J)))
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["verdict"] == "inconclusive"
        assert re.fullmatch(r"Jordan basis condition number \d\.\d{3}e\+149 exceeds limit 1\.0e\+12",
                            doc["pairing"]["detail"])
        assert "error:" not in captured.err


class TestScatterSweep:
    def test_free_potential_rows_are_identity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "scatter-sweep", "--potential", "rectangular:0,0,1", "--k", "1.0",
            "--x-range", "0", "1", "--samples", "3", "--steps", "50",
            "--csv-out", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        i11 = header.index("re_U11")
        for row in rows:
            U = np.array([float(c) for c in row[i11:i11 + 8]])
            assert np.allclose(U, [1, 0, 0, 0, 0, 0, 1, 0])

    def test_step_halving_and_verdicts(self, tmp_path):
        outs = []
        for steps in (2000, 4000):
            out = tmp_path / f"sweep{steps}.csv"
            assert main([
                "scatter-sweep", "--potential", "rectangular:1,0,1", "--k", "1.0",
                "--x-range", "0", "1", "--samples", "3", "--steps", str(steps),
                "--csv-out", str(out),
            ]) == 0
            outs.append(read_csv(str(out)))
        (header, rows_a), (_, rows_b) = outs
        i11 = header.index("re_U11")
        final_a = np.array([float(c) for c in rows_a[-1][i11:i11 + 8]])
        final_b = np.array([float(c) for c in rows_b[-1][i11:i11 + 8]])
        assert np.max(np.abs(final_a - final_b)) < 1e-9
        v = header.index("verdict")
        assert all(row[v] == "pseudo_hermitian" for row in rows_a)

    @pytest.mark.parametrize("args", [
        [
            "scatter-sweep", "--potential", "rectangular:0.5,0,1", "--k", "0.8",
            "--x-range", "0", "1", "--samples", "4", "--steps", "100",
        ],
        ["model-sweep", "--lambdas", "1,4", "--varpi-range", "0.5", "3", "--samples", "6"],
    ], ids=["scatter-sweep", "model-sweep"])
    def test_deterministic_output(self, tmp_path, args):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--csv-out", str(out1)]) == 0
        assert main(args + ["--csv-out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("v0, k", [(1.0, 1.0), (0.8, 1.3), (2.0, 0.7)])
    def test_rows_match_the_closed_form_barrier_transfer(self, tmp_path, v0, k):
        out = tmp_path / "sweep.csv"
        assert main([
            "scatter-sweep", "--potential", f"rectangular:{v0},-1,2", "--k", str(k),
            "--x-range", "0", "1", "--csv-out", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        spec = PotentialSpec(RectangularBarrier(v0, -1.0, 2.0), k)
        for row in rows:
            exact = barrier_transfer(spec, 0.0, float(row[0]))
            assert np.max(np.abs(transfer_columns(header, row) - exact)) <= 1e-12

    def test_one_integration_per_sweep(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            res = scattering.evolve_transfer(*args, **kwargs)
            calls.append(res.steps)
            return res

        monkeypatch.setattr(cli, "evolve_transfer", counted)
        assert main([
            "scatter-sweep", "--potential", "rectangular:1,0,1", "--k", "1.0",
            "--x-range", "0", "1", "--samples", "50", "--steps", "2000",
            "--csv-out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert len(calls) == 1 and calls[0] <= 2000 + 50

    def test_increments_are_formed_in_bounded_blocks(self, tmp_path, monkeypatch):
        sizes = []

        def recorded(spec, x0, h):
            sizes.append(x0.size)
            return increments(spec, x0, h)

        increments = scattering._rk4_increments
        monkeypatch.setattr(scattering, "_rk4_increments", recorded)
        assert main([
            "scatter-sweep", "--potential", "rectangular:1,0,1", "--k", "1.0",
            "--x-range", "0", "1", "--samples", "2", "--steps", "100000",
            "--csv-out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert sum(sizes) == 100000 and max(sizes) <= scattering.BLOCK_STEPS

    def test_more_samples_than_steps(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "scatter-sweep", "--potential", "rectangular:1,0,1", "--k", "1.0",
            "--x-range", "0", "1", "--samples", "50", "--steps", "10",
            "--csv-out", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        drift = header.index("det_drift")
        assert len(rows) == 50
        assert all(float(row[drift]) <= 1e-9 for row in rows)

    def test_sweep_is_the_per_row_reference_byte_for_byte(self, tmp_path):
        # one integration with the samples as nodes and one decide per
        # sample: outside the barrier H is zero, whose cluster has two
        # chains of length 1, and inside it a nilpotent chain of length 2
        argv = ["scatter-sweep", "--potential", "rectangular:1,0.25,0.75", "--k", "1.3",
                "--x-range", "0", "1", "--samples", "50", "--steps", "2000"]
        assert main(argv + ["--csv-out", str(tmp_path / "sweep.csv")]) == 0
        spec = PotentialSpec(RectangularBarrier(1.0, 0.25, 0.75), 1.3)
        xs = np.linspace(0.0, 1.0, 50)
        res = evolve_transfer(spec, 0.0, 1.0, 2000, at=xs)
        rows, p_lists = [], set()
        for x, U, drift in zip(xs, res.sample_U, res.sample_drift):
            cert = decide(hamiltonian(x, spec.k, spec.potential.value(x)))
            p_lists.add(cert.table.clusters[0].p_list)
            row = [float(x), spec.k]
            for u in U.ravel():
                row += [float(u.real), float(u.imag)]
            row += [float(drift), cert.verdict]
            row += [float(cert.residuals.get(name, np.nan)) for name in cli.RESIDUAL_COLUMNS]
            rows.append(row)
        assert p_lists == {(1, 1), (2,)}
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([cli._scatter_header(), *rows])
        assert (tmp_path / "sweep.csv").read_bytes() == want.getvalue().encode()

    def test_sampled_potential_file(self, tmp_path):
        table = tmp_path / "pot.csv"
        table.write_text("0.0 0.0\n0.5 1.0\n1.0 0.0\n")
        out = tmp_path / "sweep.csv"
        assert main([
            "scatter-sweep", "--potential", f"sampled:{table}", "--k", "1.0",
            "--x-range", "0", "1", "--samples", "3", "--steps", "100",
            "--csv-out", str(out),
        ]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 3


class TestModelSweep:
    def test_regime_transitions_and_coalescence_flags(self, tmp_path):
        out = tmp_path / "model.csv"
        assert main([
            "model-sweep", "--lambdas", "1,4", "--varpi-range", "0.5", "3",
            "--samples", "6", "--csv-out", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        real = header.index("regime_real_count")
        flag = header.index("is_exceptional")
        plists = header.index("p_lists")
        assert [row[real] for row in rows] == ["0", "2", "2", "4", "4", "4"]
        assert [row[flag] for row in rows] == ["0", "1", "0", "1", "0", "0"]
        for row in rows:
            if row[flag] == "1":
                assert "2" in row[plists].split(";")

    def test_closed_form_comparison_column(self, tmp_path):
        out = tmp_path / "model.csv"
        assert main([
            "model-sweep", "--lambdas", "1,4", "--varpi-range", "0.6", "1.8",
            "--samples", "5", "--csv-out", str(out), "--compare-closed-form",
        ]) == 0
        header, rows = read_csv(str(out))
        dev = header.index("X_closed_form_dev")
        for row in rows:  # a real H has X = conjugation exactly
            assert row[dev] == "0.0"

    def test_exceptional_flag_is_the_model_rule(self, tmp_path):
        # 1e-9 off the exceptional point varpi = 1 the pair is split: the
        # flag follows truncated.is_exceptional, as p_lists does
        out = tmp_path / "model.csv"
        assert main([
            "model-sweep", "--lambdas", "1,4", "--varpi-range", "1.000000001", "1.5",
            "--samples", "2", "--csv-out", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        row = rows[0]
        assert float(row[header.index("varpi")]) == 1.000000001
        assert row[header.index("is_exceptional")] == "0"
        assert not is_exceptional(ModelSpec((1.0, 4.0), 1.000000001))
        assert row[header.index("p_lists")] == "1;1;1;1"

    @pytest.mark.parametrize("lambdas, hi, verdicts", [
        ("1,4", 4.5, {"pseudo_hermitian": 201}),
        ("1,4,9,16", 4.5, {"pseudo_hermitian": 201}),
        # a false merge leaves the rows at varpi = 1.5 and 2.5 undecomposed
        (L16, 3.0, {"pseudo_hermitian": 199, "inconclusive": 2}),
    ], ids=["1,4", "1,4,9,16", "L16"])
    def test_sweep_is_the_per_row_reference_byte_for_byte(self, tmp_path, lambdas, hi, verdicts):
        # the stacked H, flags and closed-form X against a CSV made row by
        # row from build_H, decide, is_exceptional and closed_form_X; a row
        # without a decomposition or witnesses takes its cells from its
        # certificate as the sweep did when it formed each row from one
        argv = ["model-sweep", "--lambdas", lambdas, "--varpi-range", "0.5", str(hi),
                "--samples", "201", "--compare-closed-form"]
        assert main(argv + ["--csv-out", str(tmp_path / "model.csv")]) == 0
        lams = tuple(float(p) for p in lambdas.split(","))
        rows = []
        for varpi in np.linspace(0.5, hi, 201):
            spec = ModelSpec(lams, float(varpi))
            cert = decide(build_H(spec))
            row = [float(varpi)]
            if cert.table is None:
                row += [-1, int(is_exceptional(spec)), *[0.0] * (4 * len(lams)), ""]
            else:
                clusters = cert.table.clusters
                row += [sum(clusters[n].algebraic for n in cert.labeling.real_clusters),
                        int(is_exceptional(spec))]
                for z in (c.value for c in clusters for _ in range(c.algebraic)):
                    row += [float(z.real), float(z.imag)]
                row.append(";".join("+".join(str(p) for p in c.p_list) for c in clusters))
            row += [float(cert.cond_A) if np.isfinite(cert.cond_A) else float("inf"), cert.verdict]
            row += [float(cert.residuals.get(name, np.nan)) for name in cli.RESIDUAL_COLUMNS]
            w = cert.witnesses
            row.append(np.nan if w is None else
                       float(np.max(np.abs(w.X.matrix - closed_form_X(spec).matrix))))
            rows.append(row)
        # every exceptional point in the range is a sample
        assert sum(row[2] for row in rows) == sum(np.sqrt(lam) <= hi for lam in lams)
        v = len(cli._model_header(len(lams), True)) - len(cli.RESIDUAL_COLUMNS) - 2
        assert {k: [row[v] for row in rows].count(k) for k in verdicts} == verdicts
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([cli._model_header(len(lams), True), *rows])
        assert (tmp_path / "model.csv").read_bytes() == want.getvalue().encode()

    def test_bad_lambdas_exit_code(self, capsys):
        assert main(["model-sweep", "--lambdas", "4,1", "--varpi-range", "1", "2"]) == 3
        assert "increasing" in capsys.readouterr().err


# numpy warns as the squares summed by the norm of a chain head's residual
# (np.linalg.norm) and by |H|_F (fro_rows) overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["scatter-sweep", "--potential", "rectangular:1e150,0,1", "--k", "1",
     "--x-range", "0", "1e-160", "--samples", "3", "--steps", "10"],
    ["model-sweep", "--lambdas", "1e170,4e170", "--varpi-range", "0.5", "3", "--samples", "3"],
], ids=["scatter-sweep", "model-sweep"])
def test_overflowing_rows_are_inconclusive(tmp_path, args):
    out = tmp_path / "sweep.csv"
    assert main(args + ["--csv-out", str(out)]) == 0
    header, rows = read_csv(str(out))
    v = header.index("verdict")
    assert len(rows) == 3 and all(row[v] == "inconclusive" for row in rows)
    # a row with no spectral table has zeros in its eigenvalue cells
    E = [k for k, name in enumerate(header) if name[3:4] == "E"]
    assert all(row[k] == "0.0" for row in rows for k in E)
    assert len(E) == (8 if args[0] == "model-sweep" else 0)


@pytest.mark.parametrize("argv", [
    ["scatter-sweep", "--potential", "rectangular:1,0.25,0.75", "--k", "1.3", "--x-range", "0", "1",
     "--samples", "50", "--steps", "200"],
    # rows whose decomposition fails beside certified rows
    ["model-sweep", "--lambdas", L16, "--varpi-range", "0.5", "3", "--samples", "201",
     "--compare-closed-form"],
    # rows whose basis is too ill-conditioned; numpy warns as |H|_F overflows
    pytest.param(["model-sweep", "--lambdas", "1e170,4e170", "--varpi-range", "0.5", "3",
                  "--samples", "3", "--compare-closed-form"],
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["scatter-sweep", "model-sweep-L16", "model-sweep-overflow"])
def test_sweeps_build_no_per_row_objects(tmp_path, monkeypatch, argv):
    # the rows come from each block's arrays: no certificate, spectral
    # table, decomposition or witness set of a row is built
    built = [count_calls(monkeypatch, owner, name) for owner, name in [
        (certify, "Certificate"), (BlockSpectra, "tables"),
        (blockdiag, "BlockDiagonalization"), (symmetry, "SymmetryOperators")]]
    assert main(argv + ["--csv-out", str(tmp_path / "sweep.csv")]) == 0
    assert built == [[], [], [], []]
    # the counters see what decide_many builds: two rows, both certified
    assert len(list(decide_many(np.stack([np.eye(2), np.zeros((2, 2))])))) == 2
    assert [len(calls) for calls in built] == [2, 1, 2, 2]


SWEEP = ["scatter-sweep", "--k", "1", "--x-range", "0", "1"]
MODEL = ["model-sweep", "--lambdas", "1,4", "--varpi-range", "0.5", "3"]


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        SWEEP + ["--potential", "rectangular:1,2"],
        SWEEP + ["--potential", "triangle:1"],
        ["model-sweep", "--lambdas", "1,4", "--varpi-range", "nan", "3"],
        ["scatter-sweep", "--k", "1", "--x-range", "0", "inf", "--potential", "rectangular:1,0,1"],
        ["scatter-sweep", "--k", "inf", "--x-range", "0", "1", "--potential", "rectangular:1,0,1"],
        SWEEP + ["--potential", "rectangular:inf,0,1"],
        # H beyond the float range, which numpy warns of as it builds H
        pytest.param(["scatter-sweep", "--potential", "rectangular:1e308,0,1", "--k", "1e-10",
                      "--x-range", "0", "1", "--samples", "3", "--steps", "10"],
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        pytest.param(["model-sweep", "--lambdas", "1.7e308", "--varpi-range", "0.4", "0.5",
                      "--samples", "3"],
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        # a varpi whose square overflows as the stack of H is built
        pytest.param(["model-sweep", "--lambdas", "1,4", "--varpi-range", "1", "1e200",
                      "--samples", "3"],
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        # a transfer matrix that overflows over the range, which numpy warns of
        pytest.param(["scatter-sweep", "--potential", "rectangular:1e150,0,1", "--k", "1",
                      "--x-range", "0", "1", "--samples", "3", "--steps", "10"],
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["rectangular-arity", "unknown-kind", "nan-varpi", "infinite-x-range",
            "infinite-k", "infinite-barrier", "scatter-H-overflow", "model-H-overflow",
            "model-varpi-overflow", "transfer-overflow"])
    def test_bad_value_exits_three(self, argv, capsys):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas, bounds, reason", [
        ("1,4", ("0.5", "inf"), "varpi-range must have finite, positive bounds"),
        ("1,4", ("inf", "3"), "varpi-range must have finite, positive bounds"),
        ("1,4", ("0", "3"), "varpi-range must have finite, positive bounds"),
        ("1,nan", ("0.5", "3"), "Lambda eigenvalues must be finite, positive and strictly increasing"),
        ("1,inf", ("0.5", "3"), "Lambda eigenvalues must be finite, positive and strictly increasing"),
    ], ids=["infinite-varpi-bound", "infinite-lower-varpi-bound", "zero-varpi-bound",
            "nan-lambda", "infinite-lambda"])
    def test_non_finite_model_input_exits_three_with_its_reason(self, lambdas, bounds, reason,
                                                                 capsys):
        # an infinite bound used to reach np.linspace, warn, and be refused
        # as a varpi that goes non-positive over the sweep
        argv = ["model-sweep", "--lambdas", lambdas, "--varpi-range", *bounds, "--samples", "3"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("payload", [
        b'{"rows": 1, "cols": 1, "entries": [[1' + b"0" * 400 + b", 0]]}",
        b'{"rows": 1, "cols": 1, "entries": [[' + b"1" * 5000 + b", 0]]}",
        b'{"rows": 1, "cols": 1, "entries": [[1, 0]]} \xff',
        b'{"rows": 1, "cols": 1, "entries": [[true, 0]]}',
        b'{"rows": true, "cols": 1, "entries": [[1, 0]]}',
    ], ids=["beyond-float-range", "too-many-digits", "not-utf8", "boolean-entry", "boolean-rows"])
    def test_malformed_matrix_file_exits_three(self, tmp_path, payload, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(payload)
        assert main(["analyze", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--tol-real", "-1", "real_tol"),
        ("--tol-pair", "nan", "pair_tol"),
        ("--tol-cluster", "inf", "cluster_tol"),
    ], ids=["negative-tol-real", "nan-tol-pair", "infinite-tol-cluster"])
    def test_tolerance_out_of_range_exits_three(self, tmp_path, flag, value, field, capsys):
        # diag(1, 2) is Hermitian: a negative real_tol used to refuse it
        # firmly, and a NaN or infinite tolerance ended in an encoder traceback
        path = write_matrix(tmp_path, np.diag([1.0, 2.0]))
        assert main(["analyze", path, flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite and non-negative")

    @pytest.mark.parametrize("argv", [
        ["analyze", None, "--json-out"],
        SWEEP + ["--potential", "rectangular:1,0,1", "--samples", "3", "--steps", "10",
                 "--csv-out"],
        MODEL + ["--samples", "3", "--csv-out"],
    ], ids=["analyze", "scatter-sweep", "model-sweep"])
    def test_unwritable_output_exits_three(self, tmp_path, argv, capsys, monkeypatch):
        # the output lands in a missing directory; it is opened before the
        # work, so nothing is decided
        def never(*args, **kwargs):
            raise AssertionError("the work started before the output was opened")

        monkeypatch.setattr(cli, "decide", never)
        monkeypatch.setattr(cli, "_decide_blocks", never)
        argv = [write_matrix(tmp_path, np.eye(2)) if a is None else a for a in argv]
        assert main(argv + [str(tmp_path / "missing" / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns as H or U overflows
    @pytest.mark.parametrize("argv", [
        ["analyze", None, "--json-out"],
        ["scatter-sweep", "--potential", "rectangular:1e308,0,1", "--k", "1e-10",
         "--x-range", "0", "1", "--samples", "3", "--steps", "10", "--csv-out"],
        ["model-sweep", "--lambdas", "1.7e308", "--varpi-range", "0.4", "0.5",
         "--samples", "3", "--csv-out"],
        ["scatter-sweep", "--potential", "rectangular:1e150,0,1", "--k", "1",
         "--x-range", "0", "1", "--samples", "3", "--steps", "10", "--csv-out"],
    ], ids=["non-square", "scatter-H-overflow", "model-H-overflow", "transfer-overflow"])
    def test_input_error_after_opening_leaves_no_output(self, tmp_path, argv, capsys):
        # these inputs are refused only once the output is open; the file
        # that opening created is removed again
        argv = [write_matrix(tmp_path, np.ones((2, 3))) if a is None else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + [str(out)]) == 3
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_parser_is_built_once(self, tmp_path):
        path = write_matrix(tmp_path, np.eye(2))
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            assert main(["analyze", path, "--json-out", str(tmp_path / "c.json")]) == 0

    def test_large_integer_entry_loads_as_float(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[100000000000000000000, 0]]}')
        assert load_matrix(path)[0, 0] == 1e20

    def test_sampled_grid_must_cover_the_x_range(self, tmp_path, capsys):
        table = tmp_path / "pot.csv"
        table.write_text("0.0 0.0\n0.5 1.0\n1.0 0.0\n")
        argv = ["scatter-sweep", "--potential", f"sampled:{table}", "--k", "1", "--x-range", "0", "2"]
        assert main(argv) == 3
        assert "outside the sampled grid" in capsys.readouterr().err

    def test_sampled_table_must_be_finite(self, tmp_path, capsys):
        table = tmp_path / "pot.csv"
        table.write_text("0.0 0.0\n0.5 inf\n1.0 0.0\n")
        assert main(SWEEP + ["--potential", f"sampled:{table}"]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["0.5 1.0 2.0", "0.5", "0.5 abc"],
                             ids=["three-fields", "one-field", "not-a-number"])
    def test_malformed_sampled_line_names_the_file_and_line(self, tmp_path, line, capsys):
        table = tmp_path / "pot.csv"
        table.write_text(f"# x v\n0.0 0.0\n\n{line}\n1.0 0.0\n")
        assert main(SWEEP + ["--potential", f"sampled:{table}"]) == 3
        assert capsys.readouterr().err == f'error: {table}:4: expected two numbers "x v"\n'

    @pytest.mark.parametrize("argv", [
        SWEEP + ["--potential", "rectangular:1,0,1", "--samples", "-2"],
        MODEL + ["--samples", "-2"],
        SWEEP + ["--potential", "rectangular:1,0,1", "--steps", "-5"],
        ["analyze", "m.json", "--tol-cluster", "abc"],
        ["model-sweep", "--lambdas", "1,4"],
    ], ids=["scatter-samples", "model-samples", "steps", "tol-cluster", "missing-range"])
    def test_malformed_command_line_exits_three(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 3
        assert "error:" in capsys.readouterr().err
