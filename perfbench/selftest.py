#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every command of every workload it runs the real command once and
confirms that the output passes its check. It then hands the checker
corrupted copies of that output and confirms that each one fails:

* one count changed by 1;
* one unit moved from one count to the next, which keeps the row sum;
* for `verify`, one check reported as failed.

Then, per workload, it runs a command through the benchmark's runner
with a corruption applied to the captured output and confirms that
the failure is counted (error_rate above zero), and it confirms that a
command that exits non-zero with stderr output is counted as failed.
Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def _csv_lines(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _csv_text(lines: list[list[str]]) -> str:
    return "\n".join(",".join(fields) for fields in lines) + "\n"


def csv_bump(text: str) -> str:
    """Add 1 to the first count (m = 0) of the largest n."""
    lines = _csv_lines(text)
    last_n = lines[-1][0]
    i = next(i for i in range(1, len(lines)) if lines[i][0] == last_n)
    lines[i][2] = str(int(lines[i][2]) + 1)
    return _csv_text(lines)


def csv_move(text: str) -> str:
    """Move one unit from the first count of the first row with two
    or more terms to the next count; the row sum is unchanged."""
    lines = _csv_lines(text)
    i = next(i for i in range(1, len(lines) - 1) if lines[i][0] == lines[i + 1][0])
    lines[i][2] = str(int(lines[i][2]) - 1)
    lines[i + 1][2] = str(int(lines[i + 1][2]) + 1)
    return _csv_text(lines)


def _json_edit(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2, sort_keys=True)


def verify_bump(text: str) -> str:
    def edit(report):
        report["vertical_rows"]["8"]["0"] += 1
    return _json_edit(text, edit)


def verify_move(text: str) -> str:
    def edit(report):
        row = report["bond_rows"]["8"]
        row["0"] -= 1
        row["1"] += 1
    return _json_edit(text, edit)


def verify_flip(text: str) -> str:
    def edit(report):
        report["checks"][-1]["passed"] = False
    return _json_edit(text, edit)


CORRUPTIONS = {
    "sweep": {"count +1": csv_bump, "unit moved": csv_move},
    "series": {"count +1": csv_bump, "unit moved": csv_move},
    "verify": {"count +1": verify_bump, "unit moved": verify_move,
               "check failed": verify_flip},
}


def main() -> int:
    if not (run.SRC / "sepstat" / "cli.py").is_file():
        print(f"error: no sepstat sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKERS, WORKLOADS

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name, cls in WORKLOADS.items():
        workload = cls()
        corruptions = CORRUPTIONS[name]
        for argv in workload.commands(WORKERS):
            outputs: list[str] = []
            runner = run.Runner(workload, mutate=lambda a, text: outputs.append(text) or text)
            sample = runner.run(argv)
            command = " ".join(argv)
            expect(sample.error is None, f"{command}: real output passes")
            for label, corrupt in corruptions.items():
                error = runner.verdict(argv, 0, corrupt(outputs[0]), "")
                expect(error is not None, f"{command}: {label} is caught ({error})")

        corrupt = next(iter(corruptions.values()))
        runner = run.Runner(workload, mutate=lambda a, text: corrupt(text))
        runner.run(workload.commands(WORKERS)[0])
        rate = runner.failed / runner.attempted
        expect(rate > 0, f"{name}: corrupted output counts as failed (error_rate {rate})")

    runner = run.Runner(WORKLOADS["sweep"]())
    sample = runner.run(["dist", "99", "--threads", str(WORKERS)])
    expect(runner.failed == 1, f"usage error counts as failed ({sample.error})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
