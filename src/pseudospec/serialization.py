"""Stable JSON wire formats.

Matrices travel as ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
in row-major order; complex numbers are always [re, im] pairs, never
strings.  Serialization is deterministic (fixed key order, shortest
round-trip float formatting) so identical inputs produce byte-identical
documents, and parse -> serialize round-trips are lossless.
"""
from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain

import numpy as np

from .antilinear import AntilinearOp
from .certify import Certificate, PSEUDO_HERMITIAN
from .symmetry import SymmetryOperators


class FormatError(ValueError):
    """Malformed document."""


#: stands in for the entries of a matrix in a skeleton document
_PLACEHOLDER = "\x00entries\x00"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def _matrix_stub(M) -> tuple[dict, np.ndarray]:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise FormatError(f"expected a 2-d matrix, got shape {A.shape}")
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "entries": _PLACEHOLDER}, A


def _fill(blocks: list) -> None:
    for stub, A in blocks:
        stub["entries"] = np.column_stack((A.real.ravel(), A.imag.ravel())).tolist()


def _pair_array(entries: list):
    """``entries`` as an (m, 2) float array when every entry is a list of
    two finite JSON numbers, else None.  The type checks are C-level set
    passes, and conversion and finiteness are one numpy call each."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    # type(), not isinstance(): bools are refused
    if not set(map(type, chain.from_iterable(entries))) <= {int, float}:
        return None
    try:
        pairs = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return pairs if np.isfinite(pairs).all() else None


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in doc:
            raise FormatError(f"matrix document is missing the '{key}' field")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    if not (type(rows) is int and type(cols) is int) or rows <= 0 or cols <= 0:
        raise FormatError("'rows' and 'cols' must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise FormatError(
            f"'entries' must hold exactly rows*cols = {rows * cols} pairs, "
            f"got {len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    pairs = _pair_array(entries)
    if pairs is not None:
        return pairs.view(complex).reshape(rows, cols)
    # some entry breaks one of the rules of _pair_array, so this pass
    # raises: it names the first such entry
    for i, pair in enumerate(entries):
        if type(pair) is not list or len(pair) != 2:
            raise FormatError(f"entry {i} is not a [re, im] pair")
        if not all(type(p) in (int, float) for p in pair):
            raise FormatError(f"entry {i} is not a [re, im] pair of numbers")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError as exc:  # an integer beyond the float range
            raise FormatError(f"entry {i} is not finite") from exc
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FormatError(f"entry {i} is not finite")


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise FormatError(f"{path}: {exc}") from exc
    return matrix_from_doc(doc)


def dump_matrix(M, path) -> None:
    stub, A = _matrix_stub(M)
    text = "".join(_render(stub, [(stub, A)])) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _skeleton(cert: Certificate) -> tuple[dict, list]:
    """The certificate document with a placeholder for the entries of each
    witness, and the witnesses' (stub, array) pairs in document order."""
    doc: dict = {"verdict": cert.verdict}
    table = []
    if cert.table is not None:
        for c in cert.table.clusters:
            table.append({"E": _complex_pair(c.value), "d": c.d, "p_list": list(c.p_list)})
    doc["spectral_table"] = table
    pairing: dict = {"ok": bool(cert.pairing_ok)}
    if cert.labeling is not None:
        pairing["real_clusters"] = list(cert.labeling.real_clusters)
        pairing["pairs"] = [list(p) for p in cert.labeling.pairs]
        pairing["unpaired"] = list(cert.labeling.unpaired)
    if cert.diagnostics is not None:
        pairing["detail"] = cert.diagnostics
    doc["pairing"] = pairing
    doc["residuals"] = {k: float(v) for k, v in sorted(cert.residuals.items())}
    doc["tolerances"] = {k: float(v) for k, v in cert.tolerances.items()}
    if np.isfinite(cert.cond_A):
        doc["cond_A"] = float(cert.cond_A)
    blocks = []
    if cert.verdict == PSEUDO_HERMITIAN and cert.witnesses is not None:
        witnesses = {}
        for f in fields(SymmetryOperators):
            value = getattr(cert.witnesses, f.name)
            stub, A = _matrix_stub(value.matrix if isinstance(value, AntilinearOp) else value)
            witnesses[f.name] = stub
            blocks.append((stub, A))
        doc["witnesses"] = witnesses
    return doc, blocks


def certificate_to_doc(cert: Certificate) -> dict:
    doc, blocks = _skeleton(cert)
    _fill(blocks)
    return doc


def dumps_certificate(cert: Certificate) -> str:
    """Byte for byte ``dumps_canonical(certificate_to_doc(cert))``, with
    the witness matrices written straight from their arrays."""
    return "".join(_render(*_skeleton(cert)))


def write_certificate(cert: Certificate, fh) -> None:
    """Write ``dumps_certificate(cert)`` and a newline to the text file
    ``fh`` piece by piece, once every piece is rendered, so that the whole
    text is never held, nor encoded, at once."""
    fh.writelines([*_render(*_skeleton(cert)), "\n"])


def _render(skeleton: dict, blocks: list) -> list[str]:
    """The pieces, in order, of ``dumps_canonical(skeleton)`` once
    ``_fill(blocks)`` has run, with each entries block laid out from its
    array: one ``repr`` per distinct bit pattern (``-0.0`` stays apart
    from ``0.0``), gathered through the inverse index and joined in C.  A
    block with the indent and bits of an earlier one reuses its text: in a
    positive certificate of a real H with a simple spectrum, S, Theta, tau0
    and X are all the identity.  A skeleton whose own text holds the
    placeholder is filled and encoded whole."""
    parts = dumps_canonical(skeleton).split(_PLACEHOLDER_JSON)
    if len(parts) != len(blocks) + 1:
        _fill(blocks)
        return [dumps_canonical(skeleton)]
    out = [parts[0]]
    rendered: dict[tuple[str, bytes], str] = {}  # by indent and bits
    for before, (_, A), after in zip(parts, blocks, parts[1:]):
        line = before[before.rfind("\n") + 1:]  # the key's own line
        pad = " " * (len(line) - len(line.lstrip(" ")))
        flat = np.ascontiguousarray(A).view(np.float64).ravel()
        key = (pad, flat.tobytes())
        if key not in rendered:
            rendered[key] = _entries_text(flat, pad)
        out += [rendered[key], after]
    return out


def _entries_text(flat: np.ndarray, pad: str) -> str:
    """The text of one entries block, the real and imaginary parts in
    ``flat``, each line indented by ``pad``."""
    if not np.isfinite(flat).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if not flat.size:
        return "[]"
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    row, item = "\n" + pad + "  ", "\n" + pad + "    "
    text = np.empty(2 * flat.size + 1, dtype=object)  # separators and numbers
    text[0] = "[" + row + "[" + item
    text[1::2] = reprs[inverse]
    text[2::4] = "," + item
    text[4::4] = row + "]," + row + "[" + item
    text[-1] = row + "]\n" + pad + "]"
    return "".join(text.tolist())


def dumps_canonical(doc) -> str:
    """Deterministic JSON text: insertion-ordered keys, 2-space indent,
    shortest round-trip float repr (at most 17 significant digits)."""
    return json.dumps(doc, indent=2, allow_nan=False)
