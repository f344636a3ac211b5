"""The package's import graph: which sibling modules each module of
`sepstat` imports.

The distribution is found three ways, and the routes must share no
code, so that their agreement checks something: the exhaustive sweep
(`exhaustive`), the count without enumeration (`transfer`) and the
series (`series`). Only `cli`, the package `__init__` that re-exports
their names, and `verify`, the check suite that holds them against each
other, import more than one route. A module missing from the table
fails, so a new module has to declare what it imports.

The process pool belongs to one function, `verify._deal`: no other
code imports or names ``concurrent.futures`` or ``multiprocessing``,
and no module keeps the pool class in a module-level name.

No module reads the environment: every limit is a constant in `config`.
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
    "series": {"config"},
    "separators": {"perms"},
    "transfer": {"config", "separators"},
    "exhaustive": {"config", "perms", "separators"},
    "verify": {"config", "exhaustive", "perms", "separators", "series"},
    "cli": {
        "config", "exhaustive", "perms", "separators", "series", "transfer", "verify"
    },
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


# ---------------------------------------------------------------------------
# The process pool is `verify._deal`'s alone

POOL_MODULES = ("concurrent.futures", "multiprocessing")


def pool_names(node: ast.AST) -> list[str]:
    """The pool modules, or modules inside them, that one node names: as
    an import, or as a string constant such as a ``sys.modules`` key."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    else:
        return []
    return [
        name
        for name in names
        if any(name == pool or name.startswith(pool + ".") for pool in POOL_MODULES)
    ]


def module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at module level: by assignment, import,
    def or class outside any function or class body, or by a ``global``
    statement anywhere."""
    names = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body binds names of its own
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def outside(tree: ast.AST, skip: ast.AST | None) -> list[ast.AST]:
    """Every node of ``tree`` except those of the subtree ``skip``."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            found.append(node)
            stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize(
    "source, names",
    [
        ("import concurrent.futures", ["concurrent.futures"]),
        ("import multiprocessing as mp", ["multiprocessing"]),
        ("from concurrent import futures", ["concurrent.futures"]),
        (
            "from concurrent.futures.process import BrokenProcessPool",
            [
                "concurrent.futures.process",
                "concurrent.futures.process.BrokenProcessPool",
            ],
        ),
        ("x = 'concurrent.futures.process'", ["concurrent.futures.process"]),
        ("import concurrent\nimport multiprocessingx\nfrom . import futures", []),
    ],
)
def test_pool_names_are_read_in_every_form(source, names):
    found = [name for node in ast.walk(ast.parse(source)) for name in pool_names(node)]
    assert sorted(found) == sorted(names)


@pytest.mark.parametrize(
    "source, bound",
    [
        ("ProcessPoolExecutor = None", True),
        ("from concurrent.futures import ProcessPoolExecutor", True),
        ("import x as ProcessPoolExecutor", True),
        ("if True:\n    ProcessPoolExecutor = 1", True),
        ("def f():\n    global ProcessPoolExecutor", True),
        ("def f():\n    from concurrent.futures import ProcessPoolExecutor", False),
        ("class C:\n    ProcessPoolExecutor = None", False),
    ],
)
def test_module_bindings_are_read_in_every_form(source, bound):
    assert ("ProcessPoolExecutor" in module_bindings(ast.parse(source))) == bound


@pytest.mark.parametrize("module", SIBLINGS)
def test_only_deal_names_the_pool(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    deal = None
    if module == "verify":
        [deal] = [n for n in tree.body if getattr(n, "name", None) == "_deal"]
        # the reader does see the pool where it belongs
        assert [name for n in ast.walk(deal) for name in pool_names(n)]
    named = [(n.lineno, name) for n in outside(tree, deal) for name in pool_names(n)]
    assert named == []
    assert "ProcessPoolExecutor" not in module_bindings(tree)


# ---------------------------------------------------------------------------
# No module reads the environment

ENVIRONMENT_NAMES = ("environ", "getenv")


def environment_names(node: ast.AST) -> list[str]:
    """The environment names that one node names: as a name, an
    attribute, an imported name or a string constant such as a
    ``getattr`` argument."""
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif isinstance(node, ast.alias):
        names = [node.name, node.asname]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = [node.value]
    else:
        return []
    return [name for name in names if name in ENVIRONMENT_NAMES]


@pytest.mark.parametrize(
    "source, names",
    [
        ("import os\nos.environ.get('X')", ["environ"]),
        ("from os import getenv", ["getenv"]),
        ("from os import environ as env", ["environ"]),
        ("getattr(os, 'getenv')('X')", ["getenv"]),
        ("environ = {}", ["environ"]),
        ("# os.environ\nx = 'the environment'", []),
    ],
)
def test_environment_names_are_read_in_every_form(source, names):
    found = [name for node in ast.walk(ast.parse(source)) for name in environment_names(node)]
    assert found == names


@pytest.mark.parametrize("module", SIBLINGS)
def test_no_module_reads_the_environment(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    named = [(n.lineno, name) for n in ast.walk(tree) for name in environment_names(n)]
    assert named == []
