import dataclasses
import functools
import io
import json

import numpy as np
import pytest

from pseudospec import serialization
from pseudospec.certify import Certificate, ToleranceProfile, decide
from pseudospec.scattering import hamiltonian
from pseudospec.serialization import (
    FormatError,
    certificate_to_doc,
    dump_matrix,
    dumps_canonical,
    dumps_certificate,
    load_matrix,
    matrix_from_doc,
    write_certificate,
)


def matrix_doc(M) -> dict:
    """The wire format of a matrix, entry by entry: its shape and its
    row-major [re, im] pairs as Python floats."""
    A = np.asarray(M, dtype=complex)
    return {"rows": A.shape[0], "cols": A.shape[1],
            "entries": [[z.real, z.imag] for z in A.ravel().tolist()]}


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    out = matrix_from_doc(matrix_doc(M))
    assert np.array_equal(out, M)  # float repr round-trips losslessly


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    M = np.array([[1.0 + 2.0j, 0.5], [-1.0, 3.0 - 0.25j]])
    dump_matrix(M, path)
    assert np.array_equal(load_matrix(path), M)
    # serialization is deterministic
    text1 = path.read_text()
    dump_matrix(M, path)
    assert path.read_text() == text1


def test_matrix_from_doc_validation():
    good = matrix_doc(np.eye(2))
    for mutate in (
        lambda d: d.pop("rows"),
        lambda d: d.update(rows=0),
        lambda d: d.update(entries=[[0.0, 0.0]]),
        lambda d: d.update(entries=[[0.0], [0.0], [0.0], [0.0]]),
        lambda d: d.update(entries=[[0.0, float("nan")]] * 4),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(FormatError):
            matrix_from_doc(doc)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2,\n "cols": }')
    with pytest.raises(FormatError) as err:
        load_matrix(path)
    assert "line 2" in str(err.value)


def test_certificate_document_shape():
    doc = certificate_to_doc(decide(np.eye(2)))
    assert doc["verdict"] == "pseudo_hermitian"
    assert doc["spectral_table"] == [{"E": [1.0, 0.0], "d": 2, "p_list": [1, 1]}]
    assert doc["pairing"]["ok"] is True
    assert set(doc["residuals"]) == {
        "anti_ph",
        "X_involution",
        "X_commute",
        "eta_hermitian",
        "eta_intertwine",
        "gamma_intertwine",
        "reconstruction",
    }
    assert doc["tolerances"] == ToleranceProfile().as_dict()
    assert set(doc["witnesses"]) == {"S", "Theta", "tau0", "tau", "C0", "eta0", "X0", "X", "eta"}
    for w in doc["witnesses"].values():
        assert set(w) == {"rows", "cols", "entries"}


def test_certificate_pins_the_tolerance_record():
    # literal values, not as_dict(): the record is part of the wire format,
    # so a change to the profile or the fixed tolerances must show here
    text = dumps_canonical(certificate_to_doc(decide(np.eye(2))))
    assert list(json.loads(text)["tolerances"].items()) == [
        ("cluster_tol", 1e-8),
        ("real_tol", 1e-8),
        ("pair_tol", 1e-8),
        ("reconstruction_tol", 1e-8),
        ("witness_tol", 1e-8),
        ("cond_limit", 1e12),
    ]
    assert (
        '  "tolerances": {\n'
        '    "cluster_tol": 1e-08,\n'
        '    "real_tol": 1e-08,\n'
        '    "pair_tol": 1e-08,\n'
        '    "reconstruction_tol": 1e-08,\n'
        '    "witness_tol": 1e-08,\n'
        '    "cond_limit": 1000000000000.0\n'
        '  }'
    ) in text


def test_witnesses_absent_unless_pseudo_hermitian():
    doc = certificate_to_doc(decide(np.diag([1.0 + 1j, 2.0])))
    assert doc["verdict"] == "not_pseudo_hermitian"
    assert "witnesses" not in doc
    assert "no conjugate partner" in doc["pairing"]["detail"]


def test_canonical_dump_round_trips_bytewise():
    doc = certificate_to_doc(decide(np.diag([1.0, -2.0, 0.5])))
    text = dumps_canonical(doc)
    again = dumps_canonical(json.loads(text))
    assert again == text


def test_witnesses_follow_the_operator_fields():
    # x = 0, k = 1, v = 2: one length-2 chain at E = 0
    cert = decide(hamiltonian(0.0, 1.0, 2.0))
    assert cert.verdict == "pseudo_hermitian"
    assert cert.table.clusters[0].p_list == (2,)
    w = cert.witnesses
    assert certificate_to_doc(cert)["witnesses"] == {
        "S": matrix_doc(w.S),
        "Theta": matrix_doc(w.Theta.matrix),
        "tau0": matrix_doc(w.tau0.matrix),
        "tau": matrix_doc(w.tau.matrix),
        "C0": matrix_doc(w.C0),
        "eta0": matrix_doc(w.eta0),
        "X0": matrix_doc(w.X0.matrix),
        "X": matrix_doc(w.X.matrix),
        "eta": matrix_doc(w.eta),
    }


def stdlib_dumps(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False)


EDGE_ENTRIES = [
    [-0.0, 0.0],
    [0.0, -0.0],
    [5e-324, -5e-324],
    [2.2250738585072014e-308, -2.2250738585072014e-308],
    [1e300, -1e300],
    [3, -7],
    [0, 2**53 + 1],
    [10**20, 0.1],
]

NOT_PAIR_LISTS = [
    ["a, b], [c", "d"],
    [["x", 1.0], [2.0, 3.0]],
    [["x, y", 1.0]],
    [[[1.0]], 2.0],
    [[1.0, 2.0], [], [3.0, 4.0]],
    [[1.0, [2.0, 3.0]], [4.0, 5.0]],
    [[[1.0], [2.0]], 3.0],
    [1.0, 2.0, 3.0],
    [[1.0, 2.0], 3.0, [4.0, 5.0]],
    [[1.0, 2.0, 3.0], [4.0]],
    [[True, None], [False, 1.0]],
    [[{}, 1.0], [2.0, {}]],
    [{"entries": [[1.0, 2.0]]}, [3.0, 4.0]],
    [(1.0, 2.0), (3.0, 4.0)],
]


@functools.cache
def seeded_certificates() -> tuple[Certificate, ...]:
    certs = []
    for seed in (1, 2):
        for n in (2, 8, 32, 64):
            rng = np.random.default_rng([seed, n])
            real = rng.standard_normal((n, n))
            for H in (real, real + 1j * rng.standard_normal((n, n))):
                certs.append(decide(H))
    return tuple(certs)


class TestCanonicalEncoder:
    def test_number_edge_cases(self):
        doc = {"rows": 4, "cols": 2, "entries": EDGE_ENTRIES}
        assert dumps_canonical(doc) == stdlib_dumps(doc)
        assert dumps_canonical([doc, {"k": doc}]) == stdlib_dumps([doc, {"k": doc}])

    def test_empty_tables(self):
        doc = {"verdict": "inconclusive", "spectral_table": [], "entries": [],
               "m": {"rows": 0, "cols": 0, "entries": []}}
        assert dumps_canonical(doc) == stdlib_dumps(doc)

    def test_entries_at_several_depths(self):
        doc = {
            "entries": [[1.0, 2.0]],
            "a": {
                "entries": [[3, 4], [-0.0, 5e-324]],
                "b": [
                    {"entries": [[5.0, -6.0], [7.0, 8.0]]},
                    {"c": {"d": {"rows": 1, "entries": [[0.5, 0.25]]}}},
                ],
            },
            "z": [[{"entries": [[1e300, -1e300]]}]],
        }
        assert dumps_canonical(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize("value", NOT_PAIR_LISTS + ["text", 3.5, None, {"entries": [[1, 2]]}])
    def test_entries_that_are_not_pair_lists(self, value):
        doc = {"w": {"rows": 1, "entries": value}, "v": {"entries": [[1.0, 2.0]]}}
        assert dumps_canonical(doc) == stdlib_dumps(doc)

    def test_seeded_certificates(self):
        verdicts = set()
        for cert in seeded_certificates():
            doc = certificate_to_doc(cert)
            verdicts.add(doc["verdict"])
            assert dumps_canonical(doc) == stdlib_dumps(doc)
        assert verdicts == {"pseudo_hermitian", "not_pseudo_hermitian"}

    @pytest.mark.parametrize("doc", [
        {"entries": [[1.0, float("nan")]]},
        {"entries": [[1.0, 2.0]], "cond_A": float("nan")},
        {"entries": [[float("inf"), 0.0]]},
    ])
    def test_non_finite_numbers_still_raise(self, doc):
        with pytest.raises(ValueError):
            dumps_canonical(doc)


def written(cert) -> str:
    """What ``write_certificate`` writes to a text file."""
    fh = io.StringIO()
    write_certificate(cert, fh)
    return fh.getvalue()


class TestArrayWriter:
    def test_seeded_certificates(self):
        verdicts = set()
        for cert in seeded_certificates():
            verdicts.add(cert.verdict)
            text = stdlib_dumps(certificate_to_doc(cert))
            assert dumps_certificate(cert) == text
            assert written(cert) == text + "\n"
        assert verdicts == {"pseudo_hermitian", "not_pseudo_hermitian"}

    def test_inconclusive_certificate(self):
        # J2(0.5) at |H|_F = 1e150: its Jordan basis is refused, so the
        # certificate has no cond_A and no witnesses
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        cert = decide(J * (1e150 / np.linalg.norm(J)))
        doc = certificate_to_doc(cert)
        assert doc["verdict"] == "inconclusive" and "detail" in doc["pairing"]
        assert "cond_A" not in doc and "witnesses" not in doc
        assert dumps_certificate(cert) == stdlib_dumps(doc)

    @pytest.mark.parametrize("M", [
        np.array([[complex(*pair) for pair in EDGE_ENTRIES[:4]],
                  [complex(*pair) for pair in EDGE_ENTRIES[4:]]]),
        np.array([[-0.0, 1e16, 1e22], [0.1, -1e300, 5e-324]]),
        np.array([[3, -7], [0, 2**53 + 1]]),
        np.arange(12.0).reshape(3, 4).T + 1j * np.arange(12.0).reshape(4, 3),
        np.array([[complex(0.0, -0.0)]]),
        np.zeros((0, 0)),
    ], ids=["edge-values", "float64", "int", "fortran-order", "1x1", "0x0"])
    def test_matrix_file(self, M, tmp_path):
        path = tmp_path / "m.json"
        dump_matrix(M, path)
        assert path.read_text(encoding="utf-8") == stdlib_dumps(matrix_doc(M)) + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_raises(self, bad, tmp_path):
        M = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError):
            dump_matrix(M, tmp_path / "m.json")
        cert = decide(np.eye(2))
        cert.witnesses.eta[1, 0] = bad
        with pytest.raises(ValueError):
            dumps_certificate(cert)
        fh = io.StringIO()
        with pytest.raises(ValueError):
            write_certificate(cert, fh)
        assert fh.getvalue() == ""  # nothing is written before every piece is rendered

    @pytest.mark.parametrize("detail", [
        serialization._PLACEHOLDER,
        'ends with "' + serialization._PLACEHOLDER,
        "holds " + serialization._PLACEHOLDER + " inside",
    ])
    def test_placeholder_text_in_the_document(self, detail):
        # a whole-string placeholder adds one to the count: the writer must
        # then fall back to the standard library for the whole document
        for cert in (decide(np.eye(2)), decide(np.diag([1.0 + 1j, 2.0]))):
            cert = dataclasses.replace(cert, diagnostics=detail)
            assert dumps_certificate(cert) == stdlib_dumps(certificate_to_doc(cert))
            assert written(cert) == stdlib_dumps(certificate_to_doc(cert)) + "\n"


def per_entry_reference(doc) -> np.ndarray:
    flat = [complex(float(re), float(im)) for re, im in doc["entries"]]
    return np.array(flat, dtype=complex).reshape(doc["rows"], doc["cols"])


class ListSubclass(list):
    """Not a JSON array: ``json.load`` makes plain lists only."""


#: one bad entry per kind, and the message that names it
DEFECTS = {
    "list subclass": (ListSubclass([0.0, 1.0]), "is not a [re, im] pair"),
    "bool": ([0.0, True], "is not a [re, im] pair of numbers"),
    "string": ([0.0, "1.5"], "is not a [re, im] pair of numbers"),
    "short pair": ([1.0], "is not a [re, im] pair"),
    "beyond float range": ([0.0, 10**400], "is not finite"),
    "nan": ([0.0, float("nan")], "is not finite"),
}


class TestMatrixDecoder:
    @pytest.mark.parametrize("entries", [EDGE_ENTRIES, [[1.0, 2.0]], [[0, 0]] * 6])
    def test_matches_the_per_entry_reference(self, entries):
        doc = {"rows": len(entries) // 2 or 1, "cols": 2 if len(entries) > 1 else 1,
               "entries": entries}
        got, want = matrix_from_doc(doc), per_entry_reference(doc)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signs of zero included

    def test_seeded_witnesses_match_the_reference(self):
        for cert in seeded_certificates():
            for w in certificate_to_doc(cert).get("witnesses", {}).values():
                w = json.loads(json.dumps(w))
                assert matrix_from_doc(w).tobytes() == per_entry_reference(w).tobytes()

    @pytest.mark.parametrize("first", sorted(DEFECTS))
    @pytest.mark.parametrize("second", sorted(DEFECTS))
    def test_error_names_the_first_offending_entry(self, first, second):
        entries = [[float(k), 0.0] for k in range(6)]
        entries[1], entries[4] = DEFECTS[first][0], DEFECTS[second][0]
        with pytest.raises(FormatError) as err:
            matrix_from_doc({"rows": 2, "cols": 3, "entries": entries})
        assert str(err.value) == f"entry 1 {DEFECTS[first][1]}"
