"""The documentation's Python compiles, and its repro imports resolve.

Every ```python block in README.md and TUTORIAL.md must compile, and
each ``import`` of a ``repro`` module in it runs, so a renamed or
deleted name fails here rather than in a reader's session.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _repro_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            yield node
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "repro" for a in node.names
        ):
            yield node


@pytest.mark.parametrize("doc", ["README.md", "TUTORIAL.md"])
def test_python_blocks_compile_and_import(doc):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / doc).read_text(), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        where = f"{doc} python block {i + 1}"
        compile(block, where, "exec")
        for node in _repro_imports(ast.parse(block)):
            stmt = ast.Module(body=[node], type_ignores=[])
            exec(compile(stmt, f"{where}, line {node.lineno}", "exec"), {})
