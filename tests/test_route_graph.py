"""The package's import graph: which sibling modules each module of
`sepstat` imports.

The distribution is found three ways, and the routes must share no
code, so that their agreement checks something: the exhaustive sweep
(`exhaustive`), the count without enumeration (`transfer`) and the
series (`series`). Only `cli`, and the package `__init__` that
re-exports their names, import more than one route. A module missing
from the table fails, so a new module has to declare what it imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepstat"
SIBLINGS = sorted(path.stem for path in PACKAGE.glob("*.py"))

# every sibling each module imports, and no other
ROUTES = {
    "config": set(),
    "perms": set(),
    "series": set(),
    "separators": {"perms"},
    "transfer": {"config", "separators"},
    # series only for the check suite, which has no module of its own yet
    "exhaustive": {"config", "perms", "separators", "series"},
    "cli": {"config", "exhaustive", "perms", "separators", "series", "transfer"},
    "__init__": {"exhaustive", "perms", "separators", "series", "transfer"},
}


def sibling_imports(source: str) -> set[str]:
    """The siblings a module's source imports, at any depth in it: by
    ``from . import x``, ``from .x import y``, ``import sepstat.x``,
    ``from sepstat.x import y`` or ``from sepstat import x``. A name
    taken from the package itself that is no module counts as
    ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports = [(alias.name, ["__init__"]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            dotted = "sepstat." + module if node.level else module
            imports = [(dotted, [alias.name for alias in node.names])]
        else:
            continue
        for dotted, names in imports:
            top, _, rest = dotted.partition(".")
            if top != "sepstat":
                continue
            if rest:
                found.add(rest.split(".")[0])
            else:  # the package: each name is a sibling or one of its exports
                found.update(name if name in SIBLINGS else "__init__" for name in names)
    return found


@pytest.mark.parametrize(
    "source, siblings",
    [
        ("from . import config, transfer", {"config", "transfer"}),
        ("from . import Permutation", {"__init__"}),
        ("from .perms import bonds", {"perms"}),
        ("import sepstat", {"__init__"}),
        ("import sepstat.separators as s", {"separators"}),
        ("from sepstat import series, coeff", {"series", "__init__"}),
        ("from sepstat.exhaustive import sweep", {"exhaustive"}),
        ("def f():\n    if True:\n        from .transfer import x", {"transfer"}),
        ("import os\nfrom collections import Counter\nimport sepstatx", set()),
    ],
)
def test_sibling_imports_are_read_in_every_form(source, siblings):
    assert sibling_imports(source) == siblings


def test_every_module_is_in_the_table():
    assert sorted(ROUTES) == SIBLINGS


@pytest.mark.parametrize("module", SIBLINGS)
def test_module_imports_only_its_declared_siblings(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert sibling_imports(source) == ROUTES[module]
