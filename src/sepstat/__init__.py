"""Separator statistics on permutations.

Exact combinatorics of the separator statistic: detection on single
permutations, the marked-permutation series for its distribution,
closed-form expectations, and exhaustive enumeration oracles that
cross-check every closed form at desk scale.

`import sepstat` loads no submodule. The first name asked for from
`__all__` imports the five modules that define them (PEP 562), and
each later lookup reads the name from its module. A submodule's name
(`sepstat.transfer`, ...) is bound once that submodule is imported, as
in any package; `from sepstat import *` imports every one it lists.
"""

__version__ = "0.1.0"

# each name re-exported from a module, by that module
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names, the five modules they come from, and config
__all__ = sorted([*_HOME, *_EXPORTS, "config"])


def __getattr__(name: str):
    # a submodule's name is not served here: `from . import x` asks for
    # it first, and imports it when this raises
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import exhaustive, perms, separators, series, transfer

    # the import binds each module on the package as well
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
