"""Stable JSON wire formats.

Matrices travel as ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
in row-major order; complex numbers are always [re, im] pairs, never
strings.  Serialization is deterministic (fixed key order, shortest
round-trip float formatting) so identical inputs produce byte-identical
documents, and parse -> serialize round-trips are lossless.

The key ``"entries"`` is reserved for matrix pair lists: in any document
given to :func:`dumps_canonical`, an ``"entries"`` list of flat rows of
numbers is laid out by the fast path there.  Other values under that key
are still encoded correctly, only at the standard library's speed.
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


def matrix_to_doc(M) -> dict:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise FormatError(f"expected a 2-d matrix, got shape {A.shape}")
    entries = np.column_stack((A.real.ravel(), A.imag.ravel())).tolist()
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "entries": entries}


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
    # some entry breaks a rule: the per-entry pass names the first one
    flat = []
    for i, pair in enumerate(entries):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise FormatError(f"entry {i} is not a [re, im] pair")
        if not all(type(p) in (int, float) for p in pair):
            raise FormatError(f"entry {i} is not a [re, im] pair of numbers")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError as exc:  # an integer beyond the float range
            raise FormatError(f"entry {i} is not finite") from exc
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FormatError(f"entry {i} is not finite")
        flat.append(complex(re, im))
    return np.array(flat, dtype=complex).reshape(rows, cols)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(matrix_to_doc(M)))
        fh.write("\n")


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def certificate_to_doc(cert: Certificate) -> dict:
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
    if cert.verdict == PSEUDO_HERMITIAN and cert.witnesses is not None:
        witnesses = {}
        for f in fields(SymmetryOperators):
            value = getattr(cert.witnesses, f.name)
            witnesses[f.name] = matrix_to_doc(
                value.matrix if isinstance(value, AntilinearOp) else value
            )
        doc["witnesses"] = witnesses
    return doc


#: stands in for an entries block in the skeleton; a document whose own
#: text holds its JSON makes the block count disagree and falls back whole
_BLOCK = "\x00entries\x00"
_BLOCK_JSON = json.dumps(_BLOCK)


def _is_flat_rows(text: str, k: int) -> bool:
    """Whether ``text``, the C encoding of a k-item list, holds k non-empty
    rows of scalars.  Without strings (object keys are strings too, and
    ``{}`` lays out like a number) every ``[`` opens a list; k + 1 lists of
    which k - 1 pairs meet at ``], [`` leave no room for a scalar item or a
    nested list.  Number reprs contain no separator."""
    return (
        '"' not in text
        and "[]" not in text
        and text.count("[") == k + 1
        and text.count("], [") == k - 1
    )


def _stub_entries(value, blocks: list[str]):
    """A copy of ``value`` in which every ``"entries"`` list of flat rows is
    replaced by ``_BLOCK``; the C encodings go to ``blocks`` in document
    order, which is the order ``json.dumps`` writes them in."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key == "entries" and isinstance(item, list) and item:
                text = json.dumps(item, allow_nan=False)
                if _is_flat_rows(text, len(item)):
                    blocks.append(text)
                    out[key] = _BLOCK
                    continue
            out[key] = _stub_entries(item, blocks)
        return out
    if isinstance(value, (list, tuple)):
        return [_stub_entries(item, blocks) for item in value]
    return value


def _indent_block(text: str, pad: int) -> str:
    """The ``indent=2`` layout of a flat-rows block whose key line is
    indented by ``pad`` spaces."""
    outer, row, item = ("\n" + " " * (pad + d) for d in (0, 2, 4))
    body = text[2:-2].replace("], [", row + "]," + row + "[" + item).replace(", ", "," + item)
    return "[" + row + "[" + item + body + row + "]" + outer + "]"


def dumps_canonical(doc) -> str:
    """Deterministic JSON text: insertion-ordered keys, 2-space indent,
    shortest round-trip float repr (at most 17 significant digits).

    Byte for byte ``json.dumps(doc, indent=2, allow_nan=False)``.  With an
    indent the standard library encodes in pure Python, so each
    ``"entries"`` block of flat rows is encoded by the C encoder instead,
    its separators are rewritten into the indented layout, and only the
    small rest of the document takes the indenting encoder.
    """
    blocks: list[str] = []
    try:
        skeleton = json.dumps(_stub_entries(doc, blocks), indent=2, allow_nan=False)
    except RecursionError:  # too deep or circular: the standard library says which
        return json.dumps(doc, indent=2, allow_nan=False)
    parts = skeleton.split(_BLOCK_JSON)
    if len(parts) != len(blocks) + 1:
        return json.dumps(doc, indent=2, allow_nan=False)
    out = [parts[0]]
    for before, block, after in zip(parts, blocks, parts[1:]):
        line = before[before.rfind("\n") + 1:]  # the key's own line
        out.append(_indent_block(block, len(line) - len(line.lstrip(" "))))
        out.append(after)
    return "".join(out)
