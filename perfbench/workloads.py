"""The three benchmark workloads: the commands each one cycles through,
the work each command counts for, and the check its output must pass.

No check trusts the route being timed. A `dist` row is compared with
the series row and with the closed-form mean; a `gf` row with n! and
with a mean written out here (for the marked series g and A, only the
v^0 and v^1 terms are checked); the `verify` report with the expected
check names and with row sums and means recomputed here. A check
raises CheckError (or fails to parse) on a wrong output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from sepstat import config
from sepstat.exhaustive import EXPECTATION_KINDS, KINDS, expectation_formula
from sepstat.series import bond_gf, coeff, vertical_sep_gf

# Worker processes for the pooled commands: the CLI's default --threads
# on the 2-core machine the benchmark was sized on.
WORKERS = 2


class CheckError(Exception):
    """An output that is not what the command must print."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def vertical_mean(n: int) -> Fraction:
    """Mean number of vertical separators over S_n: 2(n-2)/n, and 0
    below n = 2 where no digit has two neighbours."""
    return Fraction(2 * (n - 2), n) if n >= 2 else Fraction(0)


def bond_mean(n: int) -> Fraction:
    """Mean number of bonds over S_n: (n-1) adjacent pairs, each a bond
    with probability 2/n."""
    return Fraction(2 * (n - 1), n) if n >= 1 else Fraction(0)


def _row_mean(n: int, row: dict[int, int]) -> Fraction:
    return Fraction(sum(m * c for m, c in row.items()), factorial(n))


def parse_csv_rows(text: str) -> dict[int, dict[int, int]]:
    """`n,m,count` CSV as {n: {m: count}}; rows must come in strictly
    increasing (n, m) order with nonzero counts."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "n,m,count", "missing n,m,count header")
    rows: dict[int, dict[int, int]] = {}
    last = None
    for line in lines[1:]:
        n, m, c = (int(field) for field in line.split(","))
        _require(last is None or (n, m) > last, f"row ({n}, {m}) out of order")
        _require(c != 0, f"zero count at ({n}, {m})")
        rows.setdefault(n, {})[m] = c
        last = (n, m)
    return rows


class Workload:
    """A cycle of CLI commands with per-command work and checks."""

    name = ""
    pooled = False  # whether the commands take --threads
    work_unit = ""  # what one unit of work_per_s is
    perms_covered = 0  # distinct permutations one command accounts for

    def commands(self, threads: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, argv: list[str], out: str) -> None:
        raise NotImplementedError

    def work(self, argv: list[str], out: str) -> int:
        raise NotImplementedError


class Sweep(Workload):
    """`dist 9 --kind K --format csv` over all five kinds."""

    name = "sweep"
    pooled = True
    N = 9
    work_unit = "permutations swept (9! per command)"
    perms_covered = factorial(N)

    def __init__(self) -> None:
        n = self.N
        v_row = {m: c for m, c in enumerate(coeff(vertical_sep_gf(n), n).coeffs) if c}
        b_row = {m: c for m, c in enumerate(coeff(bond_gf(n), n).coeffs) if c}
        # the horizontal row equals the vertical one by inverse symmetry
        self.rows = {"vertical": v_row, "horizontal": v_row, "bonds": b_row}
        self.means = {k: expectation_formula(n, k) for k in EXPECTATION_KINDS}

    def commands(self, threads: int) -> list[list[str]]:
        return [
            ["dist", str(self.N), "--kind", kind, "--format", "csv",
             "--threads", str(threads)]
            for kind in KINDS
        ]

    def check(self, argv: list[str], out: str) -> None:
        kind = argv[argv.index("--kind") + 1]
        rows = parse_csv_rows(out)
        _require(list(rows) == [self.N], f"rows for n={list(rows)}, want [{self.N}]")
        row = rows[self.N]
        _require(sum(row.values()) == factorial(self.N), "counts do not sum to 9!")
        if kind in self.means:
            _require(_row_mean(self.N, row) == self.means[kind],
                     f"{kind} mean differs from the closed form")
        if kind in self.rows:
            _require(row == self.rows[kind], f"{kind} row differs from the series row")

    def work(self, argv: list[str], out: str) -> int:
        return self.perms_covered


class Series(Workload):
    """`gf --which W --order 64 --format csv` over h, g, A and B."""

    name = "series"
    ORDER = config.MAX_ORDER
    work_unit = "nonzero series coefficients emitted"

    def commands(self, threads: int) -> list[list[str]]:
        return [
            ["gf", "--which", which, "--order", str(self.ORDER), "--format", "csv"]
            for which in ("h", "g", "A", "B")
        ]

    def check(self, argv: list[str], out: str) -> None:
        which = argv[argv.index("--which") + 1]
        rows = parse_csv_rows(out)
        _require(list(rows) == list(range(self.ORDER + 1)),
                 f"rows are not exactly n = 0..{self.ORDER}")
        for n, row in rows.items():
            if which in ("h", "B"):  # distributions: sum n!, known mean
                _require(sum(row.values()) == factorial(n), f"row {n} does not sum to n!")
                mean = vertical_mean(n) if which == "h" else bond_mean(n)
                _require(_row_mean(n, row) == mean, f"row {n} mean is wrong")
            else:
                # marked series: no mark leaves all n! permutations, and
                # one mark counts (permutation, marked digit) pairs, n! times the mean
                _require(row.get(0) == factorial(n), f"row {n} constant term is not n!")
                mean = vertical_mean(n) if which == "g" else bond_mean(n)
                _require(row.get(1, 0) == mean * factorial(n), f"row {n} v^1 term is wrong")

    def work(self, argv: list[str], out: str) -> int:
        return len(out.splitlines()) - 1  # nonzero coefficients emitted


class Verify(Workload):
    """`verify --n-max 8 -v --format json`."""

    name = "verify"
    pooled = True
    N_MAX = 8
    work_unit = "permutations of S_0..S_8 covered (46234 per command)"
    perms_covered = sum(factorial(n) for n in range(N_MAX + 1))
    CHECK_NAMES = frozenset({
        "series-vs-enumeration (vertical separators)",
        "series-vs-enumeration (bonds)",
        "vertical/horizontal distributions identical",
        "inverse duality of separator sets",
        "reverse invariance of separator sets",
        "children count is n - bonds",
        "king children count is n - separators",
        "separator-free dual oracle",
        "expectation formulas match averages",
        "all-digits-separate structure",
        "expectation convergence (formula level)",
        "marked encode/decode round-trip",
        "marked comb/split round-trip",
        "mark conservation across comb",
    })

    def commands(self, threads: int) -> list[list[str]]:
        return [["verify", "--n-max", str(self.N_MAX), "--threads", str(threads),
                 "-v", "--format", "json"]]

    def check(self, argv: list[str], out: str) -> None:
        report = json.loads(out)
        _require(report["n_max"] == self.N_MAX, "wrong n_max")
        _require(report["passed"] is True, "suite reports failure")
        names = [c["name"] for c in report["checks"]]
        _require(len(names) == len(set(names)) and set(names) == self.CHECK_NAMES,
                 "unexpected set of check names")
        failed = [c["name"] for c in report["checks"] if c["passed"] is not True]
        _require(not failed, f"checks failed: {failed}")
        for key, mean in (("vertical_rows", vertical_mean), ("bond_rows", bond_mean)):
            table = report[key]
            _require(list(table) == [str(n) for n in range(self.N_MAX + 1)],
                     f"{key} not exactly n = 0..{self.N_MAX}")
            for n_text, row_text in table.items():
                n = int(n_text)
                row = {int(m): int(c) for m, c in row_text.items()}
                _require(sum(row.values()) == factorial(n), f"{key}[{n}] does not sum to n!")
                _require(_row_mean(n, row) == mean(n), f"{key}[{n}] mean is wrong")

    def work(self, argv: list[str], out: str) -> int:
        return self.perms_covered


WORKLOADS = {w.name: w for w in (Sweep, Series, Verify)}
