import ast
from pathlib import Path

import pytest

import tfpsolve

SOURCES = sorted(Path(tfpsolve.__file__).parent.glob("*.py"))
# pytest rewrites asserts only in test modules and conftest, so the tests'
# reference modules must raise too
REFERENCES = [Path(__file__).with_name(name) for name in ("arborescence.py", "schedules.py")]


@pytest.mark.parametrize("path", SOURCES + REFERENCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so guards on output must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
