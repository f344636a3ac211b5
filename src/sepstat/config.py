"""Default limits for the command-line tools, and the one check of a
size against them.

All tunables live here, each a constant: nothing in sepstat reads the
environment, so a limit changes only by an edit to this file. Every
size the library takes, the n of S_n or a series order, goes through
`check_n`, which refuses a bool or any other non-int with ValueError.
"""

from __future__ import annotations


def check_n(n, cap: int | None = None, route: str = "", name: str = "n") -> None:
    """``n`` must be an int that is not a bool, >= 0, and <= ``cap``
    when a cap is given (``route`` names it in the message)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} {n!r} is not an integer")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"{name}={n} exceeds the {route} cap {cap}")


# Largest n accepted by the exhaustive sweeps of `verify` and the
# library's reference `sweep` (10! permutations is the biggest job a
# desk run should take on).
MAX_SWEEP_N = 10

# Largest n accepted by the exact count behind `dist`, `expect` and
# `maxsep --verify` (sepstat.transfer), which does not enumerate S_n;
# for `maxsep --verify`, n = 4k, so k <= 3. Measured per command through
# cli.main with its parser built (best of 20, six times, interpreter
# start excluded) on 2 shared vCPUs with Python 3.11, where speed swings
# by up to 2x: `vertical`, `horizontal` and `bonds` take 1.4-1.5 ms at
# n = 11 and 1.7-1.9 ms at n = 12. Nearly all of that is the window
# check (1.3 ms and 1.6-1.7 ms), which puts every pair and triple of
# 1..n to separator_masks, against the value-distance rule, and to the
# knight oracle, for every kind, and so grows as n^3; the closed-form
# row takes 0.03-0.05 ms. The first command in a process also builds
# the parser (1.3-1.7 ms). `both` and `any`,
# whose states carry the used values and the values waiting for a second
# flag (grouped by the used values and the last entry, each group folded
# with its complement group), take 0.11-0.12 s (`both`) and 0.14-0.24 s
# (`any`) at n = 11 and 0.32-0.39 s and 0.44-0.50 s at n = 12
# (distribution() alone, 5 fresh processes each), with a whole-process
# peak RSS of 18-19 MB at n = 11 and 25-29 MB at n = 12 (14 MB once
# imported), and each n costs them about 3x the one before. The `both`/`any` pass packs each entry into 4 bits of its
# position keys, so for them the cap can never pass 15.
MAX_TRANSFER_N = 12

# Default z-truncation order for the series commands, and the largest
# order the CLI accepts. Building is not what limits it; the checks
# are. At order 64 (best / median of 30 in one process, 2 shared vCPUs,
# Python 3.11) the builders take 1.6-1.7 / 1.7 ms for g, 1.1 / 1.1 ms
# for A, 4.8-5.0 / 5.2-9.0 ms for h and 4.4-4.5 / 4.7 ms for B; h and B
# are g and A plus one marker shift of all 65 rows. Whole rows of h and
# B equal the sweep for n <= 8 (`verify`) and the closed-form rows
# (transfer.event_row, which shares no code with the series) at every n
# up to this cap (the tests, which read it), and the v^1 term of g
# equals n! times the vertical expectation at every n <= 64. The
# closed form builds every B and H row up to 64 in about 0.05 s (1.0 ms
# for H and 1.3 ms for B at n = 64), so raising the cap needs only the
# build cost at the new order measured.
DEFAULT_ORDER = 12
MAX_ORDER = 64

# Largest k accepted by `maxsep`: it lists 2^k * k! permutations, 46080
# at k = 6, and that count grows by a factor of 2(k+1) with each k.
MAX_MAXSEP_K = 6

# Default size ceiling for the `verify` command.
DEFAULT_VERIFY_N = 8
