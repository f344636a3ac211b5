"""Default limits for the command-line tools.

All tunables live here; the one environment override is SEPSTAT_MAX_N
for the enumeration cap of the sweeps. Nothing else reads the
environment.
"""

from __future__ import annotations

import os

# Largest n accepted by the exhaustive sweeps (10! permutations is the
# biggest job a desk run should take on).
DEFAULT_MAX_N = 10

# Environment variable overriding DEFAULT_MAX_N.
ENV_MAX_N = "SEPSTAT_MAX_N"

# Largest n accepted by the transfer count behind `dist` and `expect`
# (sepstat.transfer), which builds permutations left to right instead of
# enumerating them. Measured per command (best of 3, interpreter start
# excluded) on 2 shared vCPUs with Python 3.11: the block pass takes
# 0.05 s at n = 11 and 0.08 s at n = 12 for `vertical`, 0.05 s and
# 0.09 s for `horizontal`, and 0.02 s at both for `bonds`. `both` and
# `any`, whose states carry the used values and the values waiting for a
# second flag (folded by the complement), take 0.6-0.9 s (+8-9 MB) at
# n = 11 and 2.2-3.5 s (+26-31 MB) at n = 12, and each n costs them
# about 3x the one before. No environment override: SEPSTAT_MAX_N
# bounds the sweeps only. The `both`/`any` pass packs each entry into 4
# bits of its state keys, so for them the cap can never pass 15; the
# block pass has no such limit.
MAX_TRANSFER_N = 12

# Default z-truncation order for the series commands, and the largest
# order the CLI accepts. Building is not what limits it (order 64 takes
# well under a second); the checks are. Whole rows of h and B equal the
# sweep for n <= 8 (`verify`) and the transfer count for n <= 11 (the
# tests). Past that, only parts of rows are checked, at every n <= 64:
# row 0 of B against Hertzsprung's recurrence (OEIS A002464) and the
# v^1 term of g against n! times the vertical expectation. A second
# exact count of more of each row at the higher orders, such as closed
# forms for the higher binomial moments, would justify a higher cap;
# the build cost at the new order should be measured first.
DEFAULT_ORDER = 12
MAX_ORDER = 64

# Largest k accepted by `maxsep`: it lists 2^k * k! permutations, 46080
# at k = 6, and that count grows by a factor of 2(k+1) with each k.
MAX_MAXSEP_K = 6

# Default size ceiling for the `verify` command.
DEFAULT_VERIFY_N = 8


def enumeration_cap() -> int:
    """The current cap on exhaustive enumeration size."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
