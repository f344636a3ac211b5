"""Command-line surface: per-permutation reports, distribution tables,
series coefficients, expectations, the all-digits-separate generator,
and the verification harness.

Each command returns its exit code and its text, and `main` writes the
text once, to stdout or to the --out file.
Exit codes: 0 success, 1 verification failure, 2 usage or input error
(a worker process that dies included).
Identical inputs produce byte-identical output regardless of the
worker count and of earlier calls in the process: `main` builds its
parser once and looks up cmd_<command> by name on each call, while
`build_parser()` returns a new parser. Only `verify` sweeps S_n and
deals it over worker processes; `dist` accepts --threads and ignores it.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from . import config, exhaustive, transfer
from .perms import (
    ARROW,
    Permutation,
    bonds,
    format_permutation,
    is_king,
    maximal_runs,
    parse_permutation,
)
from .separators import separator_report
from .series import (
    BiSeries,
    bond_gf,
    bond_marked_gf,
    vertical_marked_gf,
    vertical_sep_gf,
)

_SERIES = {
    "h": ("vertical separator distribution", vertical_sep_gf, "u"),
    "g": ("marked vertical separators", vertical_marked_gf, "v"),
    "A": ("marked bonds", bond_marked_gf, "v"),
    "B": ("bond distribution", bond_gf, "u"),
}
_SERIES_ALIASES = {
    "vertical": "h",
    "marked-vertical": "g",
    "marked-bonds": "A",
    "bonds": "B",
}
_parser: argparse.ArgumentParser | None = None  # main's, built on its first call


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    elif sys.stdout is None:  # fd 1 closed at start-up: print would drop it
        raise ValueError(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
    else:
        # flushed inside the try so that a failed write is caught here
        try:
            print(text, flush=True)
        except OSError as exc:
            # point stdout at the null device so that flushing what is
            # still buffered at exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            reason = exc.strerror or exc
            if isinstance(exc, BrokenPipeError):
                reason = "broken pipe"
            raise ValueError(f"cannot write to stdout: {reason}") from None


def _integer(text: str) -> int:
    """An integer argument: ASCII digits 0-9 with an optional minus sign,
    as a permutation entry is read. int() alone also takes "1_0", "+1",
    " 7" and other scripts' digits."""
    digits = text.removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(text)  # past int()'s digit limit this raises too
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _thread_count(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _json_dumps(obj) -> str:
    import json  # only --format json needs it

    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _csv_text(rows) -> str:
    """The n,m,count table of (n, m, count) integer rows, as csv.writer
    renders it without the final newline: no field needs quoting."""
    return "\n".join(["n,m,count"] + [f"{n},{m},{c}" for n, m, c in rows])


def _approx(x: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _value_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _poly_str(poly, var: str) -> str:
    terms = []
    for m, c in enumerate(poly.coeffs):
        if not c:
            continue
        if m == 0:
            terms.append(str(c))
        elif m == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{m}" if c == 1 else f"{c}*{var}^{m}")
    return " + ".join(terms)


def _run_str(p: Permutation, run) -> str:
    values = p.entries[run.start - 1 : run.start - 1 + run.length]
    joiner = "" if p.n <= 9 else "-"
    return joiner.join(str(v) for v in values) + ARROW[run.direction]


# ---------------------------------------------------------------------------
# Commands


def cmd_report(args: argparse.Namespace) -> tuple[int, str]:
    p = parse_permutation(args.perm)
    rep = separator_report(p)
    runs = maximal_runs(p)
    if args.format == "json":
        return 0, _json_dumps({
            "perm": list(p.entries),
            "vertical": sorted(rep.vertical),
            "horizontal": sorted(rep.horizontal),
            "both": sorted(rep.both),
            "sep_count": rep.sep_count,
            "bonds": sorted(bonds(p)),
            "bond_count": len(bonds(p)),
            "runs": [
                {"start": r.start, "length": r.length, "direction": r.direction.value}
                for r in runs
            ],
            "king": is_king(p),
        })
    return 0, "\n".join([
        f"permutation:  {format_permutation(p)}",
        f"vertical:     {_value_set(rep.vertical)}",
        f"horizontal:   {_value_set(rep.horizontal)}",
        f"both:         {_value_set(rep.both)}",
        f"separators:   {rep.sep_count}",
        f"bonds:        {_value_set(bonds(p))} (count {len(bonds(p))})",
        f"runs:         {' '.join(_run_str(p, r) for r in runs)}",
        f"king:         {'yes' if is_king(p) else 'no'}",
    ])


def cmd_dist(args: argparse.Namespace) -> tuple[int, str]:
    counts = sorted(transfer.distribution(args.n, args.kind).items())
    if args.format == "json":
        by_m = {str(m): c for m, c in counts}
        return 0, _json_dumps({"n": args.n, "kind": args.kind, "counts": by_m})
    if args.format == "csv":
        return 0, _csv_text((args.n, m, c) for m, c in counts)
    lines = [f"distribution of {args.kind} over S_{args.n}", "m  count"]
    lines += [f"{m}  {c}" for m, c in counts]
    return 0, "\n".join(lines)


def cmd_gf(args: argparse.Namespace) -> tuple[int, str]:
    which = _SERIES_ALIASES.get(args.which, args.which)
    if args.order < 0 or args.order > config.MAX_ORDER:
        raise ValueError(
            f"order {args.order} outside 0..{config.MAX_ORDER}"
        )
    label, builder, var = _SERIES[which]
    series: BiSeries = builder(args.order)
    if args.format == "json":
        # big integers as decimal strings
        coeffs = {str(e): [str(c) for c in poly.coeffs] for e, poly in series}
        return 0, _json_dumps({"order": args.order, "coeffs": coeffs, "series": which})
    if args.format == "csv":
        return 0, _csv_text(
            (e, m, c) for e, poly in series for m, c in enumerate(poly.coeffs) if c
        )
    lines = [f"{label} up to z^{args.order}"]
    lines += [f"z^{e}: {_poly_str(poly, var)}" for e, poly in series]
    return 0, "\n".join(lines)


def cmd_expect(args: argparse.Namespace) -> tuple[int, str]:
    payload: dict = {"n": args.n, "kind": args.kind}
    lines = []
    means = {}
    for name, mean in (
        ("formula", exhaustive.expectation_formula),
        # the mean of the counting route's exact distribution
        ("empirical",
         lambda n, kind: exhaustive._mean(n, transfer.distribution(n, kind))),
    ):
        if args.mode in (name, "both"):
            value = means[name] = mean(args.n, args.kind)
            payload[name] = str(value)
            payload[f"{name}_approx"] = _approx(value)
            lines.append(f"{name + ':':<11}{value} (approx. {_approx(value)})")
    code = 0
    if args.mode == "both":
        formula, empirical = means["formula"], means["empirical"]
        match = payload["match"] = formula == empirical
        lines.append(
            f"{formula} = {empirical} MATCH"
            if match
            else f"{formula} != {empirical} MISMATCH"
        )
        code = 0 if match else 1
    if args.format == "json":
        return code, _json_dumps(payload)
    return code, "\n".join(lines)


def cmd_maxsep(args: argparse.Namespace) -> tuple[int, str]:
    if args.k > config.MAX_MAXSEP_K:
        raise ValueError(f"k={args.k} exceeds the cap {config.MAX_MAXSEP_K}")
    n = 4 * args.k
    cap = config.MAX_TRANSFER_N
    if args.verify and n > cap:
        raise ValueError(f"exhaustive cross-check needs n={n} <= cap {cap}")
    perms = exhaustive.max_separator_perms(args.k)
    verified = None
    if args.verify:
        counts = transfer.distribution(n, "any")
        verified = exhaustive.is_all_separating_set(perms, n, counts)
    code = 0 if verified in (None, True) else 1
    if args.format == "json":
        payload = {
            "k": args.k,
            "n": n,
            "count": len(perms),
            "perms": [list(p.entries) for p in perms],
        }
        if verified is not None:
            payload["verified"] = verified
        return code, _json_dumps(payload)
    lines = [f"{len(perms)} permutations of S_{n} in which every digit separates"]
    lines += [format_permutation(p) for p in perms]
    if verified is not None:
        lines.append(
            "exhaustive cross-check: PASS" if verified else
            "exhaustive cross-check: FAIL"
        )
    return code, "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    checks, tables = exhaustive.run_check_suite(args.n_max, threads=args.threads)
    passed = all(c.passed for c in checks)
    code = 0 if passed else 1
    rows = {
        kind: {n: dict(sorted(tables[n][kind].items())) for n in tables}
        for kind in ("vertical", "bonds")
    }
    if args.format == "json":
        payload = {
            "n_max": args.n_max,
            "passed": passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
        }
        if args.verbose:
            for kind, key in (("vertical", "vertical_rows"), ("bonds", "bond_rows")):
                payload[key] = {
                    str(n): {str(m): c for m, c in row.items()}
                    for n, row in rows[kind].items()
                }
        return code, _json_dumps(payload)
    lines = []
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        lines.append(f"{tag}  {c.name} ({c.detail})")
    if args.verbose:
        for n in tables:
            lines.append(f"vertical row n={n}: {rows['vertical'][n]}")
            lines.append(f"bond row n={n}:     {rows['bonds'][n]}")
    lines.append(
        f"{'all checks passed' if passed else 'CHECKS FAILED'} "
        f"(n_max={args.n_max})"
    )
    return code, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepstat",
        description="Separator statistics on permutations: exact counts, "
        "series, and expectations, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default="plain")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    def with_threads(p: argparse.ArgumentParser, help_text: str) -> None:
        p.add_argument(
            "--threads", type=_thread_count, default=None, metavar="T", help=help_text
        )

    p = sub.add_parser("report", help="separator/bond/run report for one permutation")
    p.add_argument("perm", help='e.g. "132465879" or "5,3,2,4,1"')
    common(p, ("plain", "json"))

    p = sub.add_parser("dist", help="exact distribution of a statistic over S_n")
    p.add_argument("n", type=_integer)
    p.add_argument("--kind", choices=exhaustive.KINDS, default="vertical")
    with_threads(p, "accepted and ignored: counted without a sweep")
    common(p, ("plain", "json", "csv"))

    p = sub.add_parser("gf", help="series coefficients up to z^order")
    p.add_argument(
        "--which",
        choices=tuple(_SERIES) + tuple(_SERIES_ALIASES),
        default="h",
        help="h: vertical separators, g: marked vertical separators, "
        "A: marked bonds, B: bonds",
    )
    p.add_argument("--order", type=_integer, default=config.DEFAULT_ORDER)
    common(p, ("plain", "json", "csv"))

    p = sub.add_parser("expect", help="expected number of separators")
    p.add_argument("n", type=_integer)
    p.add_argument("--kind", choices=exhaustive.EXPECTATION_KINDS, default="any")
    p.add_argument("--mode", choices=("formula", "empirical", "both"), default="formula")
    common(p, ("plain", "json"))

    p = sub.add_parser(
        "maxsep", help="permutations of S_{4k} in which every digit separates"
    )
    p.add_argument("k", type=_integer)
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the exact count of S_{4k} in which every "
        f"digit separates, counted without enumerating "
        f"(k <= {config.MAX_TRANSFER_N // 4})",
    )
    common(p, ("plain", "json"))

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--n-max", type=_integer, default=config.DEFAULT_VERIFY_N)
    p.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the per-n distribution rows behind the series checks",
    )
    with_threads(
        p, "worker processes for exhaustive sweeps (default: machine parallelism)"
    )
    common(p, ("plain", "json"))

    return parser


# BrokenProcessPool, the error of a pool whose worker died, exists only
# once a pooled verify has imported the pool, so it is looked up when an
# exception reaches main.
def _pool_errors() -> tuple[type[Exception], ...]:
    pool = sys.modules.get("concurrent.futures.process")
    return (pool.BrokenProcessPool,) if pool else ()


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out == "":  # checked before the command does any work
            raise ValueError("--out needs a file path, got ''")
        if args.out is not None:  # and so is the directory it names
            try:
                os.stat(os.path.join(os.path.dirname(args.out) or ".", ""))
                if os.path.isdir(args.out):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
        code, text = globals()[f"cmd_{args.command}"](args)
        _emit(text, args.out)
        return code
    except exhaustive.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, *_pool_errors()) as exc:
        # a dead pool worker is a failure to run, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C: the shell's code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
