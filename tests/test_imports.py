"""Every module uses every name it imports.

The package `__init__` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in (ROOT / "src" / "sepstat").glob("*.py")
    if path.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nfrom x import y, z as w\nimport q\nw(q.r)\n"
    assert unused_imports(source) == ["os", "y"]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
