"""Separator statistics on permutations.

Exact combinatorics of the separator statistic: detection on single
permutations, the marked-permutation series for its distribution,
closed-form expectations, and exhaustive enumeration oracles that
cross-check every closed form at desk scale.
"""

from .perms import (
    Direction,
    Permutation,
    Run,
    bonds,
    children,
    comb,
    comb_split,
    delete_and_standardize,
    format_permutation,
    inflate,
    inverse,
    is_king,
    maximal_runs,
    parse_permutation,
    reverse,
    standardize,
)
from .separators import (
    ArrowedComposition,
    MarkedSepPermutation,
    MarkedWord,
    SeparatorReport,
    comb_marked,
    decode_marked,
    encode_marked,
    has_knight_pair,
    separator_count,
    separator_masks,
    separator_report,
    split_marked,
)
from .series import (
    BiSeries,
    MarkerPoly,
    bond_gf,
    bond_marked_gf,
    coeff,
    substitute_marker,
    vertical_marked_gf,
    vertical_sep_gf,
)
from .exhaustive import (
    expectation_formula,
    max_separator_perms,
    sweep,
)
from .transfer import distribution

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
