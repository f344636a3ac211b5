"""The package's surface: `sepstat.__all__`, and every name in it is the
object its defining module holds, whichever way the package is first
touched."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepstat

SRC = str(Path(__file__).resolve().parent.parent / "src")

# each name re-exported from a module, by that module
HOMES = {
    "perms": (
        "Direction", "Permutation", "Run", "bonds", "children", "comb",
        "comb_split", "delete_and_standardize", "format_permutation", "inflate",
        "inverse", "is_king", "maximal_runs", "parse_permutation", "reverse",
        "standardize",
    ),
    "separators": (
        "ArrowedComposition", "MarkedSepPermutation", "MarkedWord",
        "SeparatorReport", "comb_marked", "decode_marked", "encode_marked",
        "has_knight_pair", "separator_count", "separator_masks",
        "separator_report", "split_marked",
    ),
    "series": (
        "BiSeries", "MarkerPoly", "bond_gf", "bond_marked_gf", "coeff",
        "substitute_marker", "vertical_marked_gf", "vertical_sep_gf",
    ),
    "exhaustive": ("expectation_formula", "max_separator_perms", "sweep"),
    "transfer": ("distribution",),
}
MODULES = ("config", "exhaustive", "perms", "separators", "series", "transfer")

ALL = [
    "ArrowedComposition", "BiSeries", "Direction", "MarkedSepPermutation",
    "MarkedWord", "MarkerPoly", "Permutation", "Run", "SeparatorReport",
    "bond_gf", "bond_marked_gf", "bonds", "children", "coeff", "comb",
    "comb_marked", "comb_split", "config", "decode_marked",
    "delete_and_standardize", "distribution", "encode_marked", "exhaustive",
    "expectation_formula", "format_permutation", "has_knight_pair", "inflate",
    "inverse", "is_king", "max_separator_perms", "maximal_runs",
    "parse_permutation", "perms", "reverse", "separator_count",
    "separator_masks", "separator_report", "separators", "series",
    "split_marked", "standardize", "substitute_marker", "sweep", "transfer",
    "vertical_marked_gf", "vertical_sep_gf",
]


def test_all_is_pinned():
    assert len(ALL) == 46
    assert sepstat.__all__ == ALL
    assert sorted([*MODULES, *(n for names in HOMES.values() for n in names)]) == ALL


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in HOMES.items() for name in names
])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(sepstat, name) is getattr(
        importlib.import_module(f"sepstat.{module}"), name
    )


@pytest.mark.parametrize("module", MODULES)
def test_each_module_name_is_the_module(module):
    assert getattr(sepstat, module) is importlib.import_module(f"sepstat.{module}")


# Run in a fresh interpreter, where nothing but the package is loaded:
# what dir() lists, an unknown name, then a star import
_FIRST_TOUCH = """
import sys
import sepstat

missing_from_dir = sorted(set(sepstat.__all__) - set(dir(sepstat)))
try:
    sepstat.nope
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
names = {}
exec("from sepstat import *", names)
unbound = sorted(set(sepstat.__all__) - set(names))
elsewhere = [
    name for name in sepstat.__all__
    if names[name] is not getattr(sepstat, name)
    or (name in MODULES and names[name] is not sys.modules["sepstat." + name])
]
print(repr((missing_from_dir, unknown, unbound, elsewhere)))
"""


def test_first_touch_of_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_TOUCH.replace("MODULES", repr(MODULES))],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    missing_from_dir, unknown, unbound, elsewhere = ast.literal_eval(proc.stdout)
    assert missing_from_dir == []
    assert unknown == "module 'sepstat' has no attribute 'nope'"
    assert unbound == []
    assert elsewhere == []
