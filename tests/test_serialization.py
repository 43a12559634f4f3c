import json

import numpy as np
import pytest

from pseudospec.certify import ToleranceProfile, decide
from pseudospec.scattering import hamiltonian
from pseudospec.serialization import (
    FormatError,
    certificate_to_doc,
    dump_matrix,
    dumps_canonical,
    load_matrix,
    matrix_from_doc,
    matrix_to_doc,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    out = matrix_from_doc(matrix_to_doc(M))
    assert np.array_equal(out, M)  # float repr round-trips losslessly


def test_matrix_to_doc_matches_per_entry_encoding():
    tiny = 5e-324  # smallest subnormal
    M = np.array(
        [
            [-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny)],
            [complex(1e300, -1e300), complex(-1e300, 2.2250738585072014e-308), 1 / 3 + 0.1j],
        ]
    )
    reference = [[float(z.real), float(z.imag)] for z in M.ravel()]
    doc = matrix_to_doc(M)
    assert all(type(x) is float for pair in doc["entries"] for x in pair)
    assert dumps_canonical(doc["entries"]) == dumps_canonical(reference)
    assert "-0.0" in dumps_canonical(doc["entries"])


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
    good = matrix_to_doc(np.eye(2))
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
        "S": matrix_to_doc(w.S),
        "Theta": matrix_to_doc(w.Theta.matrix),
        "tau0": matrix_to_doc(w.tau0.matrix),
        "tau": matrix_to_doc(w.tau.matrix),
        "C0": matrix_to_doc(w.C0),
        "eta0": matrix_to_doc(w.eta0),
        "X0": matrix_to_doc(w.X0.matrix),
        "X": matrix_to_doc(w.X.matrix),
        "eta": matrix_to_doc(w.eta),
    }
