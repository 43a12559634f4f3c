"""The package must run on its declared numpy floor, numpy 1.24.

CI runs the suite on that floor too; this test also fails where only a
newer numpy is installed, as soon as the source names a numpy 2 API.
"""
import ast
from pathlib import Path

import pytest

import pseudospec

#: attributes that only numpy 2 has, on arrays or in any numpy namespace
NUMPY2_ATTRIBUTES = {"mT", "vecdot", "matrix_transpose", "permute_dims", "unstack"}
#: functions that numpy 2 added as ``np.<name>``; ``ndarray.astype`` is older
NUMPY2_FUNCTIONS = {"concat", "astype"}


def numpy2_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr in NUMPY2_ATTRIBUTES
            or (node.attr in NUMPY2_FUNCTIONS
                and isinstance(node.value, ast.Name) and node.value.id == "np")
        ):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name in NUMPY2_ATTRIBUTES | NUMPY2_FUNCTIONS]
    return found


@pytest.mark.parametrize("path", sorted(Path(pseudospec.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_source_uses_no_numpy2_only_name(path):
    assert numpy2_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "K.mT", "np.vecdot(a, b)", "np.linalg.matrix_transpose(a)", "np.permute_dims(a, (1, 0))",
    "np.unstack(a)", "np.concat([a, b])", "np.astype(a, complex)",
    "from numpy import vecdot",
])
def test_detector_finds_numpy2_names(snippet):
    assert len(numpy2_uses(snippet)) == 1


@pytest.mark.parametrize("snippet", [
    "np.swapaxes(a, -1, -2)", "np.concatenate([a, b])", "a.astype(complex)", "'''K.mT'''",
])
def test_detector_passes_numpy1_code(snippet):
    assert numpy2_uses(snippet) == []
