import ast
import contextlib
import csv
import functools
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from sepstat import cli, config, exhaustive, series, transfer, verify
from sepstat.cli import _SERIES, _csv_text, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def cli_output(*argv):
    """Exit code, stdout and stderr of one unpatched `main` call, run once
    per test session: `maxsep 3 --verify` counts `dist 12 --kind any`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# report


def test_report_plain(capsys):
    code, out, _ = run_cli(capsys, "report", "132465879")
    assert code == 0
    assert "vertical:     {2, 3, 6, 7}" in out
    assert "horizontal:   {2, 3, 5, 8}" in out


def test_report_json(capsys):
    code, out, _ = run_cli(capsys, "report", "31524", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertical"] == [2, 5]
    assert data["horizontal"] == [2, 3]
    assert data["both"] == [2]
    assert data["sep_count"] == 3
    assert data["king"] is True  # no adjacent pair differs by 1
    code, out, _ = run_cli(capsys, "report", "132465879", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertical"] == [2, 3, 6, 7]
    assert data["horizontal"] == [2, 3, 5, 8]


def test_report_singleton(capsys):
    code, out, _ = run_cli(capsys, "report", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sep_count"] == 0
    assert data["vertical"] == [] and data["horizontal"] == []


def test_report_invalid_permutation(capsys):
    code, _, err = run_cli(capsys, "report", "1,1,2")
    assert code == 2
    assert "duplicate value 1" in err
    # int("1_0") is 10, but an entry is ASCII decimal digits alone
    code, out, err = run_cli(capsys, "report", "1_0,2,3,4,5,6,7,8,9,1")
    assert code == 2 and out == ""
    assert err == "error: cannot parse permutation from '1_0,2,3,4,5,6,7,8,9,1'\n"
    # an empty field is a typo, not a delimiter
    code, out, err = run_cli(capsys, "report", "3,,1,2")
    assert code == 2 and out == ""
    assert err == "error: cannot parse permutation from '3,,1,2'\n"


# ---------------------------------------------------------------------------
# dist


def test_dist_plain_and_csv(capsys):
    code, out, _ = run_cli(capsys, "dist", "3", "--kind", "vertical")
    assert code == 0 and "0  2" in out and "1  4" in out
    code, out, _ = run_cli(
        capsys, "dist", "3", "--kind", "vertical", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,m,count", "3,0,2", "3,1,4"]


def test_dist_json(capsys):
    code, out, _ = run_cli(capsys, "dist", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "kind": "vertical", "counts": {"0": 2, "1": 4}}
    # the JSON counts are the CSV rows
    _, out, _ = run_cli(capsys, "dist", "9", "--kind", "any", "--format", "json")
    counts = sorted(json.loads(out)["counts"].items(), key=lambda mc: int(mc[0]))
    rows = [f"9,{m},{c}" for m, c in counts]
    _, out, _ = run_cli(capsys, "dist", "9", "--kind", "any", "--format", "csv")
    assert rows and out.splitlines()[1:] == rows


def test_dist_empty_group(capsys):
    code, out, _ = run_cli(capsys, "dist", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,m,count", "0,0,1"]
    # the flag pass starts from the empty prefix, with no case for n < 2
    for n, kind in (("0", "both"), ("1", "any")):
        code, out, _ = run_cli(capsys, "dist", n, "--kind", kind)
        assert code == 0 and out.splitlines()[-1] == "0  1"


def test_dist_over_cap(capsys):
    code, _, err = run_cli(capsys, "dist", "13")
    assert code == 2
    assert "cap" in err


def test_dist_env_cap(capsys, monkeypatch):
    # MAX_SWEEP_N bounds the sweeps; dist counts without one
    monkeypatch.setattr(config, "MAX_SWEEP_N", 5)
    code, _, err = run_cli(capsys, "verify", "--n-max", "6")
    assert code == 2 and "cap 5" in err


def test_dist_rejects_unknown_kind(capsys):
    code, out, err = run_cli(capsys, "dist", "3", "--kind", "sideways")
    assert code == 2 and out == ""
    assert "argument --kind: invalid choice: 'sideways'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# gf


def test_gf_h_rows(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--which", "h", "--order", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert "3,0,2" in lines and "3,1,4" in lines


def test_gf_marked_bond_rows(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--which", "A", "--order", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert "3,0,6" in lines and "3,1,8" in lines and "3,2,2" in lines


def test_gf_order_zero(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--which", "h", "--order", "0", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,m,count", "0,0,1"]


def test_gf_json_uses_decimal_strings(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "--which", "h", "--order", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"]["3"] == ["2", "4"]


def test_gf_long_alias(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "gf", "--which", "bonds", "--order", "4", "--format", "csv"
    )
    code_b, out_b, _ = run_cli(
        capsys, "gf", "--which", "B", "--order", "4", "--format", "csv"
    )
    assert code_a == code_b == 0 and out_a == out_b


def test_gf_order_cap(capsys):
    code, _, err = run_cli(capsys, "gf", "--order", "65")
    assert code == 2 and "outside 0..64" in err


# ---------------------------------------------------------------------------
# expect


def test_expect_formula_plain(capsys):
    code, out, _ = run_cli(capsys, "expect", "4", "--kind", "any")
    assert code == 0
    assert "11/6" in out
    assert "approx" in out  # decimal rendering is labeled


def test_expect_both_match(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "3", "--kind", "both", "--mode", "both"
    )
    assert code == 0
    assert "0 = 0 MATCH" in out


def test_expect_big_n_formula(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "1000000", "--kind", "vertical", "--mode", "formula"
    )
    assert code == 0
    assert "499999/250000" in out


def test_expect_empirical_over_cap(capsys):
    code, _, err = run_cli(
        capsys, "expect", "13", "--kind", "vertical", "--mode", "empirical"
    )
    assert code == 2 and "cap" in err


def test_expect_negative_n_is_input_error(capsys):
    for mode in ("formula", "both"):
        code, out, err = run_cli(capsys, "expect", "-5", "--mode", mode)
        assert code == 2 and out == ""
        assert err == "error: n must be >= 0, got -5\n"


def test_expect_both_mismatch_exits_1(capsys, monkeypatch):
    real = exhaustive.expectation_formula

    def off(n, kind):
        return real(n, kind) + 1 if (n, kind) == (4, "any") else real(n, kind)

    monkeypatch.setattr(exhaustive, "expectation_formula", off)
    code, out, err = run_cli(capsys, "expect", "4", "--kind", "any", "--mode", "both")
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "17/6 != 11/6 MISMATCH"
    code, out, err = run_cli(
        capsys, "expect", "4", "--kind", "any", "--mode", "both", "--format", "json"
    )
    assert code == 1 and err == ""
    assert json.loads(out)["match"] is False
    code, out, _ = run_cli(capsys, "expect", "4", "--kind", "both", "--mode", "both")
    assert code == 0 and out.endswith(" MATCH\n")


def test_expect_json(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "4", "--kind", "any", "--mode", "both", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["formula"] == "11/6"
    assert data["empirical"] == "11/6"
    assert data["match"] is True


# ---------------------------------------------------------------------------
# maxsep


def test_maxsep_plain(capsys):
    code, out, _ = run_cli(capsys, "maxsep", "1", "--verify")
    assert code == 0
    assert "[3142]" in out and "[2413]" in out
    assert "cross-check: PASS" in out


def test_maxsep_json(capsys):
    code, out, _ = run_cli(capsys, "maxsep", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8 and data["n"] == 8
    assert len(data["perms"]) == 8


def test_maxsep_k_capped_before_generating(capsys, monkeypatch):
    def refuse(k):
        raise AssertionError("generator started")

    monkeypatch.setattr("sepstat.exhaustive.max_separator_perms", refuse)
    code, out, err = run_cli(capsys, "maxsep", "7")
    assert code == 2 and out == ""
    assert err == "error: k=7 exceeds the cap 6\n"


@pytest.mark.parametrize(
    "k, message", [("0", "k must be >= 1, got 0"), ("-1", "k must be >= 1, got -1")]
)
def test_maxsep_k_below_1_names_its_rule(capsys, k, message):
    code, out, err = run_cli(capsys, "maxsep", k)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_maxsep_verify_needs_cap(capsys, monkeypatch):
    # the count behind --verify is the transfer pass, capped at n = 12,
    # and the cap is checked before anything is generated
    def refuse(k):
        raise AssertionError("generator started")

    monkeypatch.setattr("sepstat.exhaustive.max_separator_perms", refuse)
    code, out, err = run_cli(capsys, "maxsep", "4", "--verify")
    assert code == 2 and out == ""
    assert err == "error: exhaustive cross-check needs n=16 <= cap 12\n"


def test_maxsep_verify_ignores_the_sweep_cap(capsys, monkeypatch):
    monkeypatch.setattr(config, "MAX_SWEEP_N", 7)
    code, out, _ = run_cli(capsys, "maxsep", "2", "--verify")
    assert code == 0 and out.endswith("exhaustive cross-check: PASS\n")


def test_maxsep_construction_failure_exits_1(capsys, monkeypatch):
    # the check inside the generator itself, behind its structural guarantee
    monkeypatch.setattr(exhaustive, "separator_count", lambda p: 0)
    code, out, err = run_cli(capsys, "maxsep", "1")
    assert code == 1 and out == ""
    assert err == "error: constructed [3142] has a non-separating digit\n"


def test_maxsep_verify_k3():
    code, out, _ = cli_output("maxsep", "3", "--verify")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 48 + 1
    assert lines[0] == "48 permutations of S_12 in which every digit separates"
    assert lines[-1] == "exhaustive cross-check: PASS"


def test_maxsep_verify_fails_on_a_wrong_count(capsys, monkeypatch):
    real = transfer.distribution

    def seven(n, kind):
        counts = real(n, kind)
        if kind == "any":
            counts[n] = 7  # 2^2 * 2! = 8 at n = 8
        return counts

    monkeypatch.setattr(transfer, "distribution", seven)
    code, out, err = run_cli(capsys, "maxsep", "2", "--verify")
    assert code == 1 and err == ""
    assert out.endswith("exhaustive cross-check: FAIL\n")
    code, out, _ = run_cli(capsys, "maxsep", "2", "--verify", "--format", "json")
    assert code == 1 and json.loads(out)["verified"] is False


def test_maxsep_verify_checks_every_window(capsys, monkeypatch):
    real = transfer.has_knight_pair
    monkeypatch.setattr(
        transfer,
        "has_knight_pair",
        lambda window: real(window) != (tuple(window) == (2, 4, 1)),
    )
    code, out, err = run_cli(capsys, "maxsep", "1", "--verify")
    assert code == 1 and out == ""
    assert err == "error: separator-free oracles disagree on window (2, 4, 1)\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(check["passed"] for check in data["checks"])


def test_verify_over_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "11")
    assert code == 2 and "cap" in err


def test_verify_cap_ignores_the_environment(capsys, monkeypatch):
    # the cap is config.MAX_SWEEP_N alone; no variable raises it or breaks it
    monkeypatch.setenv("SEPSTAT_MAX_N", "1_0")
    assert run_cli(capsys, "verify", "--n-max", "3")[0] == 0

    def refuse(*args):
        raise AssertionError("sweep started")

    monkeypatch.setenv("SEPSTAT_MAX_N", "11")
    monkeypatch.setattr(exhaustive, "_part_words", refuse)
    code, out, err = run_cli(capsys, "verify", "--n-max", "11", "--threads", "1")
    assert code == 2 and out == ""
    assert err == "error: n=11 exceeds the enumeration cap 10\n"


# ---------------------------------------------------------------------------
# Cross-cutting behaviour


def test_csv_rejected_outside_tabular_commands(capsys):
    code, _, _ = run_cli(capsys, "report", "123", "--format", "csv")
    assert code == 2
    code, _, _ = run_cli(capsys, "expect", "4", "--format", "csv")
    assert code == 2


@pytest.mark.parametrize(
    "argv", [("dist", "3"), ("verify", "--n-max", "3")], ids=lambda argv: argv[0]
)
@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_rejected(capsys, argv, threads):
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2 and out == ""
    assert f"argument --threads: must be at least 1, got {threads}" in err


@pytest.mark.parametrize(
    "argv",
    [("expect", "4"), ("maxsep", "1", "--verify")],
    ids=lambda argv: argv[0],
)
def test_threads_rejected_where_nothing_is_dealt(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "N"),
        ("expect", "N"),
        ("maxsep", "N"),
        ("gf", "--order", "N"),
        ("verify", "--n-max", "N"),
        ("dist", "3", "--threads", "N"),
        ("verify", "--n-max", "3", "--threads", "N"),
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("value", ["1_0", "\u0663", "+1", " 7"])
def test_integer_arguments_are_ascii_digits(capsys, argv, value):
    at = argv.index("N")
    name = argv[at - 1] if at > 1 else "k" if argv[0] == "maxsep" else "n"
    argv = [value if a == "N" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"argument {name}: invalid int value: {value!r}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "132465879", "--format", "json"),
        ("dist", "6", "--kind", "both", "--format", "csv"),
        ("gf", "--which", "g", "--order", "8", "--format", "json"),
        ("expect", "9", "--mode", "both"),
        ("maxsep", "2", "--verify"),
        ("verify", "--n-max", "5", "-v", "--threads", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_holds_what_stdout_would(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "dist", "3", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == "n,m,count"


def test_empty_out_path_is_input_error(capsys, monkeypatch):
    def refuse(n, kind):
        raise AssertionError("counting started")

    monkeypatch.setattr(transfer, "distribution", refuse)
    code, out, err = run_cli(capsys, "dist", "3", "--out", "")
    assert code == 2 and out == ""
    assert err == "error: --out needs a file path, got ''\n"


def test_out_write_error_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "report", "123", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("file_parent", [False, True])
def test_out_to_a_missing_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, file_parent
):
    def refuse(n, kind):
        raise AssertionError("counting started")

    monkeypatch.setattr(transfer, "distribution", refuse)
    parent = tmp_path / "missing"
    if file_parent:
        parent.write_text("")
    target = parent / "x.csv"
    code, out, err = run_cli(capsys, "dist", "11", "--kind", "any", "--out", str(target))
    reason = "Not a directory" if file_parent else "No such file or directory"
    assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")
    assert not target.exists()
    assert parent.exists() == file_parent
    # and so is a path that names a directory, with or without a slash
    for path in (str(tmp_path), f"{tmp_path}/"):
        code, out, err = run_cli(capsys, "dist", "11", "--kind", "any", "--out", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: Is a directory\n"


# SHA-256 of stdout. The verify and maxsep digests were recorded before
# the verification pass was merged into one sweep (the maxsep one also
# before its count moved from a sweep to the transfer pass), the gf
# digests before the vertical series was rebuilt from the bond series'
# run factor; the output must not change.
GOLDEN_STDOUT = {
    ("verify", "--n-max", "7", "-v", "--threads", "1"):
        "cb1a725b06c73f41f99581c46c2facbbca75d314374847fdea91ddcf40478b51",
    ("verify", "--n-max", "7", "-v", "--threads", "1", "--format", "json"):
        "7c285dd3a2a250cae65793a6b6e73a4ff6895cea7dcd1bf21976af6c751d53ac",
    # the same suite dealt over a pool of two and of three workers
    ("verify", "--n-max", "7", "-v", "--threads", "2"):
        "cb1a725b06c73f41f99581c46c2facbbca75d314374847fdea91ddcf40478b51",
    ("verify", "--n-max", "7", "-v", "--threads", "2", "--format", "json"):
        "7c285dd3a2a250cae65793a6b6e73a4ff6895cea7dcd1bf21976af6c751d53ac",
    ("verify", "--n-max", "7", "-v", "--threads", "3"):
        "cb1a725b06c73f41f99581c46c2facbbca75d314374847fdea91ddcf40478b51",
    ("verify", "--n-max", "7", "-v", "--threads", "3", "--format", "json"):
        "7c285dd3a2a250cae65793a6b6e73a4ff6895cea7dcd1bf21976af6c751d53ac",
    ("maxsep", "2", "--verify"):
        "d545af9c46ac5df420733392fc5b380ac4b296687e023fe918d86c38e6c2b5c6",
    ("gf", "--which", "h", "--order", "64", "--format", "csv"):
        "1cb274abc4910fac3f590a15f97fe2057f7f3f6ddf23fdfd9e4e864d305ac711",
    ("gf", "--which", "g", "--order", "64", "--format", "csv"):
        "0b648658239ef95903d1cbab8ee8ec55f0a8bf8804292d7b96a21cd470decb82",
    ("gf", "--which", "A", "--order", "64", "--format", "csv"):
        "4aac3c072f37a85718ceee7fe076dda41e449547a94e2cf61b9b39767c4ad61f",
    ("gf", "--which", "B", "--order", "64", "--format", "csv"):
        "d9287ae93b87d10a8bbbc4fef5067b384219bdb9ee70d69dfbf08b07ffd572b8",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[argv]


def csv_writer_text(rows):
    """What csv.writer renders for the table, without the final newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "m", "count"))
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def test_csv_text_matches_csv_writer():
    tables = [[]]
    tables += [
        [(n, m, c) for m, c in sorted(transfer.distribution(n, kind).items())]
        for n in range(10)
        for kind in exhaustive.KINDS
    ]
    tables += [
        [(n, m, c) for n, poly in getattr(series, builder)(64)
         for m, c in enumerate(poly.coeffs) if c]
        for _, builder, _ in _SERIES.values()
    ]
    for rows in tables:
        assert _csv_text(rows) == csv_writer_text(rows)


# SHA-256 over exit code, stdout and stderr of `gf` for every series,
# format and order below, recorded before the vertical pairing and the
# marker shift were computed by packed integer arithmetic.
GF_DIGEST = "8e06e6a22bc37666a152c098d0288b3fee142fac963dda7a6919b7b8cfaa793e"


def test_gf_output_digest(capsys):
    digest = hashlib.sha256()
    for which in "hgAB":
        for fmt in ("plain", "json", "csv"):
            for order in (0, 1, 2, 3, 8, 31, 32, 63, 64):
                code, out, err = run_cli(
                    capsys, "gf", "--which", which, "--order", str(order),
                    "--format", fmt,
                )
                digest.update(f"{which} {fmt} {order}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GF_DIGEST


# SHA-256 over exit code, stdout and stderr of `dist`, `expect` and
# `maxsep --verify` below, recorded before `dist` formatted the transfer
# counts itself and the expectations shared one mean, and re-recorded
# when `maxsep 0` came to name its k (`error: k must be >= 1, got 0`),
# the one output that changed.
COUNTS_DIGEST = "6efc2eb5b88315315401f35eebe772d1be7c207aee3f38d5e6df2d0cf1d38361"


def test_counts_output_digest():
    argvs = [
        ("dist", str(n), "--kind", kind, "--format", fmt)
        for n in range(-1, 10)
        for kind in exhaustive.KINDS
        for fmt in ("plain", "json", "csv")
    ]
    argvs += [
        ("dist", "12", "--kind", kind, "--format", fmt)
        for kind in ("vertical", "horizontal", "bonds")
        for fmt in ("plain", "json", "csv")
    ]
    argvs += [
        ("expect", str(n), "--kind", kind, "--mode", mode, "--format", fmt)
        for n in range(-1, 10)
        for kind in exhaustive.EXPECTATION_KINDS
        for mode in ("formula", "empirical", "both")
        for fmt in ("plain", "json")
    ]
    argvs += [("maxsep", str(k), "--verify") for k in range(4)]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = cli_output(*argv)
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == COUNTS_DIGEST


# SHA-256 over exit code, stdout and stderr of `dist N --kind K --format
# csv` for `both` and `any` past the sweep's default cap, recorded before
# the flag pass grouped its states by position.
FLAG_PASS_DIGEST = "1430f85b0aed68f6a82bdddd752606cc8e96f84648e1d952a98083289aaa3f74"


def test_flag_pass_output_digest(capsys):
    digest = hashlib.sha256()
    for n in (10, 11, 12):
        for kind in ("both", "any"):
            argv = ("dist", str(n), "--kind", kind, "--format", "csv")
            code, out, err = run_cli(capsys, *argv)
            digest.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == FLAG_PASS_DIGEST


# SHA-256 over exit code and stdout of `verify -v` for every n_max up to
# 8 and both formats in one process, recorded before the walk of S_<=7
# shared the sweep's separator scan and ran on words.
VERIFY_DIGEST = "08bfe6419ab889ad224ed69945d2f3722b55763653b4d3c969c01f72403a9b23"


def test_verify_output_digest(capsys):
    digest = hashlib.sha256()
    for n_max in range(9):
        for fmt in ("plain", "json"):
            argv = ("verify", "--n-max", str(n_max), "--format", fmt, "-v",
                    "--threads", "1")
            code, out, _ = run_cli(capsys, *argv)
            digest.update(f"{' '.join(argv)}\0{code}\0{out}\0".encode())
    assert digest.hexdigest() == VERIFY_DIGEST


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "dist", "5", "--format", "json", "--threads", "2")
    second = run_cli(capsys, "dist", "5", "--format", "json", "--threads", "3")
    assert first == second


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sepstat.cli", "expect", "4", "--kind", "any"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "11/6" in proc.stdout


def test_broken_stdout_pipe_is_input_error():
    # maxsep 5 prints about 190 kB, more than a pipe holds, so the write
    # fails whether or not it starts before the read end is closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepstat.cli", "maxsep", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write to stdout: broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_device_is_input_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sepstat.cli", "report", "31524"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
@pytest.mark.parametrize("argv", [("dist", "5"), ("verify", "--n-max", "3")])
def test_closed_stdout_is_input_error(argv):
    # with fd 1 closed at start-up sys.stdout is None, and print to None
    # would drop the text and exit 0
    proc = subprocess.run(
        [sys.executable, "-m", "sepstat.cli", *argv],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=functools.partial(os.close, 1),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: Bad file descriptor\n"


def test_no_arguments_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: sepstat ")
    assert "Traceback" not in err


def test_verify_verbose_shows_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--verbose")
    assert code == 0
    assert "vertical row n=3: {0: 2, 1: 4}" in out


# ---------------------------------------------------------------------------
# One parser per process


def test_parser_built_once_over_many_calls(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)  # as if no command had run yet
    for argv in [("dist", "5"), ("gf", "--order", "3"), ("report", "1"),
                 ("nope",), ("--help",), ()] * 3:
        run_cli(capsys, *argv)
    assert len(calls) == 1


def test_mixed_sequence_equals_fresh_parsers(capsys, monkeypatch, tmp_path):
    target = tmp_path / "out.txt"
    sequence = [
        ("report", "31524", "--format", "json"),
        ("dist", "6", "--kind", "bonds", "--format", "csv"),
        ("gf", "--which", "A", "--order", "5"),
        ("expect", "5", "--kind", "both", "--mode", "both"),
        ("maxsep", "1", "--verify"),
        ("verify", "--n-max", "4", "--threads", "1"),
        ("--help",),
        (),
        ("nope",),
        ("dist", "9", "--kind", "nope"),
        ("verify", "--threads", "0"),
        ("dist", "4", "--kind", "any", "--out", str(target)),
        ("gf", "--help"),
    ]

    def run(argv):
        result = run_cli(capsys, *argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        return result + (written,)

    monkeypatch.setattr(cli, "_parser", None)
    kept = [run(argv) for argv in sequence * 2]
    fresh = []
    for argv in sequence * 2:
        cli._parser = None
        fresh.append(run(argv))
    assert kept == fresh
    codes = [code for code, *_ in kept[:len(sequence)]]
    assert codes == [0] * 7 + [2] * 4 + [0, 0]
    assert kept[11][1] == "" and kept[11][3].startswith("distribution of any over S_4\n")


def test_handler_rebound_after_a_call_is_used(capsys, monkeypatch):
    assert run_cli(capsys, "dist", "3")[0] == 0
    seen = []

    def fake(args):
        seen.append(args.n)
        return 0, f"faked n={args.n}"

    monkeypatch.setattr(cli, "cmd_dist", fake)
    assert run_cli(capsys, "dist", "4") == (0, "faked n=4\n", "")
    assert seen == [4]


# ---------------------------------------------------------------------------
# Bounded work and the separator-free cross-check


# Runs the CLI with the pool recording how many workers it is asked for.
_RECORD_WORKERS = """
import concurrent.futures, sys
from concurrent.futures import ProcessPoolExecutor
from sepstat import cli

class Recording(ProcessPoolExecutor):
    def __init__(self, max_workers=None, **kwargs):
        print("workers", max_workers, file=sys.stderr)
        super().__init__(max_workers, **kwargs)

concurrent.futures.ProcessPoolExecutor = Recording
sys.exit(cli.main(sys.argv[1:]))
"""


def test_threads_far_above_n_is_bounded():
    def run(threads):
        return subprocess.run(
            [sys.executable, "-c", _RECORD_WORKERS, "verify", "--n-max", "7",
             "--threads", threads],
            capture_output=True,
            text=True,
            timeout=60,
        )

    huge = run("100000000000000000000")
    one = run("1")
    assert huge.returncode == 0 and one.returncode == 0
    assert huge.stdout == one.stdout
    # only the n = 7 sweep is pooled: at most n = 7 workers, no more
    assert huge.stderr == "workers 7\n"
    assert one.stderr == ""


@pytest.fixture
def knight_flipped_on_2413(monkeypatch):
    """Make the knight-move oracle give the wrong answer on [2413]."""
    from sepstat import exhaustive

    real = exhaustive.has_knight_pair
    monkeypatch.setattr(
        exhaustive,
        "has_knight_pair",
        lambda word: real(word) != (tuple(word) == (2, 4, 1, 3)),
    )


@pytest.mark.usefixtures("knight_flipped_on_2413")
@pytest.mark.parametrize("extra", [(), ("--format", "json"), ("-v",)])
def test_verify_reports_oracle_disagreement(capsys, extra):
    code, out, err = run_cli(capsys, "verify", "--n-max", "4", *extra)
    assert code == 1
    assert "Traceback" not in out + err
    if extra == ("--format", "json"):
        data = json.loads(out)
        assert data["passed"] is False
        [check] = data["checks"]
        assert check["name"] == "separator-free dual oracle"
        assert not check["passed"] and "[2413]" in check["detail"]
    else:
        first = out.splitlines()[0]
        assert first.startswith("FAIL  separator-free dual oracle")
        assert "[2413]" in first
        assert out.endswith("CHECKS FAILED (n_max=4)\n")
    if extra == ("-v",):
        # rows only for the n swept before the failure
        assert "vertical row n=3: {0: 2, 1: 4}" in out
        assert "row n=4" not in out


def test_dist_reports_oracle_disagreement(capsys, monkeypatch):
    real = transfer.has_knight_pair
    monkeypatch.setattr(
        transfer,
        "has_knight_pair",
        lambda window: real(window) != (tuple(window) == (2, 4, 1)),
    )
    code, out, err = run_cli(capsys, "dist", "4")
    assert code == 1 and out == ""
    assert err == "error: separator-free oracles disagree on window (2, 4, 1)\n"


def test_interrupt_is_one_error_line(capsys, monkeypatch):
    # Ctrl-C while a handler runs: no traceback, the shell's code for SIGINT
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_verify", interrupted)
    code, out, err = run_cli(capsys, "verify", "--n-max", "3")
    assert code == 130 and out == ""
    assert err == "error: interrupted\n"


def test_dead_pool_worker_is_an_error_not_a_failed_check(capsys, monkeypatch):
    # the real _deal, with a pool whose every submit finds it broken
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    message = "A process in the process pool was terminated"

    class DeadPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            raise BrokenProcessPool(message)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadPool)
    code, out, err = run_cli(capsys, "verify", "--n-max", "7", "--threads", "2")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(ChildProcessError) as info:
        verify.run_check_suite(7, threads=2)
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, BrokenProcessPool)


# ---------------------------------------------------------------------------
# Start-up without the process pool


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints, as one Python literal, the pool, json, dataclasses and inspect
# modules loaded after each import and each command, and each command's
# code and output.
_LOADED_AFTER_EACH_STEP = """
import contextlib, io, sys

def loaded():
    return [m for m in ("concurrent.futures", "multiprocessing", "json",
                        "dataclasses", "inspect")
            if m in sys.modules]

steps = []
import sepstat
steps.append(("import sepstat", loaded(), None))
import sepstat.cli
steps.append(("import sepstat.cli", loaded(), None))
for argv in COMMANDS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sepstat.cli.main(argv.split())
    steps.append((argv, loaded(), (code, out.getvalue(), err.getvalue())))
print(repr(steps))
"""

_UNPOOLED = [
    "dist 9 --kind any",
    "gf --which h --order 64 --format csv",
    "expect 6 --mode both",
    "maxsep 1 --verify",
    "report 2413",
    "verify --n-max 6",
    "verify --n-max 7 --threads 1",
]


def _fresh_interpreter(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_only_a_pooled_verify_loads_the_pool():
    commands = _UNPOOLED + ["verify --n-max 7 --threads 2"]
    proc = _fresh_interpreter(
        _LOADED_AFTER_EACH_STEP.replace("COMMANDS", repr(commands))
    )
    assert proc.returncode == 0, proc.stderr
    steps = ast.literal_eval(proc.stdout)
    assert [(step, modules) for step, modules, _ in steps[:2]] == [
        ("import sepstat", []),
        ("import sepstat.cli", []),
    ]
    pool = {"concurrent.futures", "multiprocessing"}
    for argv, modules, (code, _, err) in steps[2:-1]:
        assert (code, err) == (0, ""), argv
        assert not pool & set(modules), argv
    (_, _, one_thread), (_, modules, pooled) = steps[-2:]
    assert pool <= set(modules)
    assert pooled == one_thread
    # the records are built without dataclasses, which would load inspect
    for step, modules, _ in steps:
        assert not {"dataclasses", "inspect"} & set(modules), step


# Runs the command given as argv in a fresh interpreter and prints its
# exit code and the sepstat modules, fractions and decimal loaded after
# each step: the package, the parser, the command.
_ROUTES_LOADED_AFTER_EACH_STEP = """
import contextlib, io, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("sepstat") or m in ("fractions", "decimal"))

steps = []
import sepstat
steps.append(loaded())
import sepstat.cli
sepstat.cli.build_parser()
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = sepstat.cli.main(sys.argv[1:])
steps.append(loaded())
print(repr((code, steps)))
"""

_EXACT = {"sepstat.exhaustive", "fractions", "decimal"}  # fractions imports decimal

# what each command loads besides the parser's modules; the suite holds
# the sweep against the series and needs no transfer count
_LOADS = {
    "report 2413": set(),
    "gf --which h --order 64 --format csv": {"sepstat.series"},
    "dist 9 --kind any": {"sepstat.transfer"},
    "expect 6 --mode both": _EXACT | {"sepstat.transfer"},
    "maxsep 1 --verify": _EXACT | {"sepstat.transfer"},
    "verify --n-max 6": _EXACT | {"sepstat.series", "sepstat.verify"},
}


@pytest.mark.parametrize("argv", _LOADS)
def test_each_command_loads_only_its_route(argv):
    proc = _fresh_interpreter(_ROUTES_LOADED_AFTER_EACH_STEP, *argv.split())
    assert proc.returncode == 0, proc.stderr
    code, (package, parser, command) = ast.literal_eval(proc.stdout)
    assert code == 0
    assert package == ["sepstat"]
    assert parser == [
        "sepstat", "sepstat.cli", "sepstat.config", "sepstat.perms",
        "sepstat.separators",
    ]
    assert set(command) - set(parser) == _LOADS[argv]


# Makes the window check of `dist` fail through `separators`, before any
# route is imported, then runs `dist 5` and `gf --order 65` as the first
# calls: each imports its route and must still end in one error line.
_FIRST_CALL_ERRORS = """
import contextlib, io
from sepstat import cli, separators

real = separators.separator_masks

def one_bond_too_many(word):
    vm, hm, bonds = real(word)
    return vm, hm, bonds + (tuple(word) == (1, 2))

separators.separator_masks = one_bond_too_many
results = []
for argv in (["dist", "5"], ["gf", "--order", "65"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append((code, out.getvalue(), err.getvalue()))
print(repr(results))
"""


def test_errors_of_a_route_the_first_call_imports():
    proc = _fresh_interpreter(_FIRST_CALL_ERRORS)
    assert proc.returncode == 0, proc.stderr
    (dist_code, dist_out, dist_err), gf = ast.literal_eval(proc.stdout)
    assert (dist_code, dist_out) == (1, "")
    assert dist_err.startswith("error: ") and dist_err.count("\n") == 1
    assert "window (1, 2)" in dist_err
    assert gf == (2, "", "error: order 65 outside 0..64\n")


# Runs a pooled verify in which the worker of part 0 dies once the worker
# of part 1 has written its process id to the path given as argv[1].
_DEAD_WORKER = """
import os, sys, time
from sepstat import cli, verify

pid_file = sys.argv[1]

def dying_part(n_max, part, parts):
    if part == 0:
        while not os.path.exists(pid_file):
            time.sleep(0.01)
        os._exit(1)
    with open(pid_file + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.rename(pid_file + ".tmp", pid_file)
    time.sleep(60)

verify._suite_chunk = dying_part
sys.exit(cli.main(["verify", "--n-max", "7", "--threads", "2"]))
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched part reaches pool workers only through fork",
)
def test_dead_pool_worker_after_the_pool_is_loaded(tmp_path):
    pid_file = tmp_path / "worker.pid"
    start = time.monotonic()
    proc = _fresh_interpreter(_DEAD_WORKER, str(pid_file))
    assert time.monotonic() - start < 30  # the sleeping worker was stopped
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    worker = int(pid_file.read_text())
    try:
        os.kill(worker, 0)
    except ProcessLookupError:
        return
    os.kill(worker, signal.SIGKILL)
    pytest.fail(f"pool worker {worker} left running")
