#!/usr/bin/env python3
"""Benchmark of the sepstat command line.

    python3 perfbench/run.py --workload {sweep,series,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from
./src. Commands go through `sepstat.cli.main(argv)` in this process
with stdout and stderr captured, one after another (a closed loop with
one client). Pooled commands use 2 worker processes. The seed shuffles
the order of the commands within each cycle. Every output is checked
outside the timed region; a command fails on a non-zero exit, an
exception, any stderr output or a failed check.

--trace 0 measures the end-to-end metrics; --trace 1 is the separate
traced run that gives the per-layer metrics (see README.md). A human
report goes to stdout, the full record to perfbench/results/, and the
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 12  # fresh-interpreter set-up timings per run, spread over it
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import sepstat.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "work_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    seconds: float
    error: str | None
    work: int
    bytes_out: int
    ref: float = 0.0  # reference-kernel time around the command, in s


class Runner:
    """Runs CLI commands in this process and checks every output.

    `mutate`, when set, rewrites each captured stdout before it is
    checked; only the self-test uses it, to show that checks fail.
    `tracer`, when set, records the calls each command makes.
    """

    def __init__(self, workload, mutate=None) -> None:
        from sepstat import cli

        self.cli = cli  # `cli.main` is looked up per call: tracing rebinds it
        self.workload = workload
        self.tracer = None
        self.mutate = mutate
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, argv: list[str]) -> Sample:
        out, err = io.StringIO(), io.StringIO()
        error = None
        tracer = self.tracer
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.command = self.attempted
                    tracer.enabled = True
                try:
                    code = self.cli.main(argv)
                finally:
                    if tracer is not None:
                        tracer.enabled = False
        except Exception as exc:  # a crash fails the command, not the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        text = out.getvalue()
        if self.mutate is not None:
            text = self.mutate(argv, text)
        if error is None:
            error = self.verdict(argv, code, text, err.getvalue())
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {error}")
        work = 0 if error else self.workload.work(argv, text)
        return Sample(seconds, error, work, len(text.encode()))

    def verdict(self, argv, code, out: str, err: str) -> str | None:
        from workloads import CheckError

        if code != 0:
            return f"exit code {code}"
        if err:
            return f"stderr: {err.strip()[:200]}"
        try:
            self.workload.check(argv, out)
        except CheckError as exc:
            return f"check failed: {exc}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output: {exc!r}"
        return None


def _reference_kernel() -> int:
    """Fixed pure-Python work that stands for the interpreter speed the
    program gets: small-integer loops over permutation words, as in a
    sweep, and products of ~300-bit integers, as in the series."""
    total = 0
    for _ in range(15):
        for word in itertools.permutations(range(7)):
            for i in range(6):
                if abs(word[i] - word[i + 1]) == 1:
                    total += 1
    x = 3 ** 190
    for k in range(30000):
        total += (x * (x + k)) & 0xFF
    return total


def reference_seconds() -> float:
    """One timing of the reference kernel, 45 to 90 ms on a shared
    2-vCPU host depending on its load: the machine's current speed,
    measured between commands. One long timing tracks the host's slow
    and fast spells better than the best of several short ones."""
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def cycle(workload, rng: random.Random, threads: int) -> list[list[str]]:
    commands = workload.commands(threads)
    rng.shuffle(commands)
    return commands


def closed_loop(runner: Runner, rng: random.Random, seconds: float,
                threads: int, between=None) -> list[Sample]:
    """Run shuffled cycles until `seconds` have passed; the next
    command starts when the previous one has finished. Each sample
    carries the mean of the reference timings just before and just
    after its command. `between`, if given, is called after each
    command and its reference timing."""
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    while True:
        for argv in cycle(runner.workload, rng, threads):
            if time.perf_counter() >= deadline:
                return samples
            sample = runner.run(argv)
            after = reference_seconds()
            sample.ref = (before + after) / 2
            before = after
            samples.append(sample)
            if between is not None:
                between()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited
    for (a pool worker or a set-up probe), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def setup_probe() -> tuple[float, float]:
    """(wall time, import time) of a fresh interpreter that imports
    sepstat.cli and builds its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return time.perf_counter() - start, float(proc.stdout)


# ---------------------------------------------------------------------------
# Run facts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sepstat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_facts(args, workers: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(workload, rng: random.Random, seconds: float) -> tuple[Runner, dict, dict]:
    from workloads import WORKERS

    runner = Runner(workload)
    runner.run(workload.commands(WORKERS)[0])  # warm-up: checked, not timed
    setup_probe()  # writes the bytecode caches; not counted
    # probes spread over the run see its slow and fast spells alike
    probes: list[tuple[float, float]] = []
    interval = seconds / SETUP_PROBES
    due = time.perf_counter() + interval / 2

    def probe_when_due() -> None:
        nonlocal due
        if time.perf_counter() >= due and len(probes) < SETUP_PROBES:
            probes.append(setup_probe())
            due += interval

    samples = closed_loop(runner, rng, seconds, WORKERS, between=probe_when_due)
    while len(probes) < SETUP_PROBES:  # commands longer than the interval
        probes.append(setup_probe())
    if not samples:
        raise SystemExit("error: no command finished; raise --seconds")
    loop = loop_metrics(samples)
    metrics = {
        "setup_s": statistics.median(wall for wall, _ in probes),
        "op_p50_ref": loop.pop("op_p50_ref"),
        "work_per_ref": loop.pop("work_per_ref"),
        "peak_rss_mb": peak_rss_mb(),
    }
    n = len(samples)
    # the six figures as first specified, wall clock; printed, not gated
    wall = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(probes)} probes"),
        "op_p50_s": (loop["wall.op_p50_s"], "s", f"median of {n} commands"),
        "op_tail_s": (loop["wall.op_tail_s"], "s",
                      f"p{tail([s.seconds for s in samples])[1]:.0f} of {n} commands"),
        "work_per_s": (loop["wall.work_per_s"], "1/s", workload.work_unit),
        "error_rate": (runner.failed / runner.attempted, "ratio",
                       f"{runner.failed} of {runner.attempted} commands failed"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "this process + largest child"),
    }
    info = {
        "workers": WORKERS,
        "wall": wall,
        **loop,
        "setup_import_s": statistics.median(imp for _, imp in probes),
        "samples_s": [s.seconds for s in samples],
        "samples_ref_s": [s.ref for s in samples],
    }
    return runner, metrics, info


def loop_metrics(samples: list[Sample]) -> dict:
    """Command times divided by the reference timing around each
    command (unit: ref), and as the wall clock gives them."""
    ratios = [s.seconds / s.ref for s in samples]
    times = [s.seconds for s in samples]
    work = sum(s.work for s in samples)
    return {
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": tail(ratios)[0],
        "work_per_ref": work / sum(ratios),
        "wall.op_p50_s": statistics.median(times),
        "wall.op_tail_s": tail(times)[0],
        "wall.work_per_s": work / sum(times),
        "wall.reference_s": statistics.median(s.ref for s in samples),
    }


def traced(workload, rng: random.Random, seconds: float) -> tuple[Runner, dict, dict]:
    """The traced run. Half of `seconds` untraced and a quarter traced,
    both with the workload's workers, give the wall-clock metrics, the
    tracing overhead and the pool split; one traced 1-worker cycle gives the
    layer times and counts per command; then the pooled command runs
    untraced at 1 and at 2 workers for the pool speed-up."""
    from tracing import Tracer
    from workloads import WORKERS

    runner = Runner(workload)
    runner.run(workload.commands(WORKERS)[0])  # warm-up
    untraced = closed_loop(runner, rng, seconds / 2, WORKERS)
    tracer = Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        pooled = closed_loop(runner, rng, seconds / 4, WORKERS)
        pool_counts = tracer.counts.copy()
        tracer.reset()
        layer_pass = [runner.run(argv) for argv in cycle(workload, rng, 1)]
    finally:
        runner.tracer = None
        tracer.uninstall()

    speedup = 1.0  # no pool, one worker
    if workload.pooled:
        pick = rng.randrange(len(workload.commands(1)))
        one, two = [], []
        for order in ((1, WORKERS), (WORKERS, 1)):
            for threads in order:
                sample = runner.run(workload.commands(threads)[pick])
                (one if threads == 1 else two).append(sample.seconds)
        speedup = statistics.median(one) / statistics.median(two)
    import_s = statistics.median(setup_probe()[1] for _ in range(SETUP_PROBES))

    ncmd = len(layer_pass)
    calls, group_s, counts = tracer.calls, tracer.group_s, tracer.counts
    sweep_perms = counts["exhaustive.sweep_perms"]
    perms_enumerated = counts["exhaustive.perms_enumerated"] / ncmd
    pool_perms = pool_counts["exhaustive.pool_perms"]
    loop = loop_metrics(untraced)
    traced_loop = loop_metrics(pooled)

    def per(x: float) -> float:
        return x / ncmd

    metrics = {
        "exhaustive.self_s": per(tracer.layer_self_s("exhaustive")),
        "exhaustive.ns_per_perm": 1e9 * group_s["exhaustive.sweep"] / sweep_perms
        if sweep_perms else 0.0,
        "exhaustive.sweep_s": per(group_s["exhaustive.sweep"]),
        "exhaustive.sweep_calls": per(calls["exhaustive.sweep"]),
        "exhaustive.pool_speedup": speedup,
        # largest chunk over mean chunk, weighted by the work of each pooled call
        "exhaustive.pool_imbalance": pool_counts["exhaustive.pool_max_chunk"]
        / pool_counts["exhaustive.pool_mean_chunk"] if pool_perms else 1.0,
        "exhaustive.perms_enumerated": perms_enumerated,
        "exhaustive.enum_redundancy": perms_enumerated / workload.perms_covered
        if workload.perms_covered else 0.0,
        "exhaustive.suite_s": per(group_s["exhaustive.run_check_suite"]),
        "exhaustive.sepfree_s": per(group_s["exhaustive.separator_free_count"]),
        "exhaustive.verify_gf_s": per(group_s["exhaustive.verify_gf_vs_brute"]),
        "perms.self_s": per(tracer.layer_self_s("perms")),
        "perms.constructed": per(calls["perms.Permutation"]),
        "perms.construct_s": per(group_s["perms.Permutation"]),
        "perms.children_s": per(group_s["perms.children"]),
        "perms.inverse_reverse_s": per(group_s["perms.inverse_reverse"]),
        "perms.inflate_s": per(group_s["perms.inflate"]),
        "separators.self_s": per(tracer.layer_self_s("separators")),
        "separators.sets_calls": per(tracer.group_calls("separators.sets")),
        "separators.sets_s": per(group_s["separators.sets"]),
        "separators.knight_s": per(group_s["separators.has_knight_pair"]),
        "separators.marked_calls": per(tracer.group_calls("separators.marked")),
        "separators.marked_s": per(group_s["separators.marked"]),
        "series.self_s": per(tracer.layer_self_s("series")),
        "series.markerpoly_mul_calls": per(calls["series.MarkerPoly.__mul__"]),
        "series.markerpoly_add_calls": per(calls["series.MarkerPoly.__add__"]),
        "series.series_mul_calls": per(calls["series.series_mul"]),
        "series.series_mul_s": per(group_s["series.series_mul"]),
        "series.hadamard_calls": per(calls["series.hadamard"]),
        "series.hadamard_s": per(group_s["series.hadamard"]),
        "series.series_add_s": per(group_s["series.series_add"]),
        "series.substitute_s": per(group_s["series.substitute_marker"]),
        "series.build_s.vertical_marked_gf": per(group_s["series.vertical_marked_gf"]),
        "series.build_s.bond_marked_gf": per(group_s["series.bond_marked_gf"]),
        "series.coeffs_out": per(counts["series.coeffs_out"]),
        "series.max_coeff_bits": counts["series.max_coeff_bits"],
        "cli.self_s": per(tracer.layer_self_s("cli")),
        "cli.bytes_out": per(sum(s.bytes_out for s in layer_pass)),
        "cli.import_s": import_s,
        "op_tail_ref": loop["op_tail_ref"],
        **{k: v for k, v in loop.items() if k.startswith("wall.")},
        "trace.op_p50_untraced_ref": loop["op_p50_ref"],
        "trace.op_p50_traced_ref": traced_loop["op_p50_ref"],
        "trace.overhead_share": traced_loop["op_p50_ref"] / loop["op_p50_ref"] - 1,
        "trace.overhead_s": traced_loop["wall.op_p50_s"] - loop["wall.op_p50_s"],
    }
    info = {
        "workers": WORKERS,
        "untraced_commands": len(untraced),
        "traced_commands": len(pooled),
        "layer_pass_commands": ncmd,
        "error_rate": runner.failed / runner.attempted,
        "trace": tracer.dump(),
    }
    return runner, metrics, info


# ---------------------------------------------------------------------------
# Report


def print_report(facts: dict, metrics: dict, units: dict, info: dict,
                 runner: Runner) -> None:
    print(f"sepstat benchmark: workload={facts['workload']} seed={facts['seed']} "
          f"trace={facts['trace']} workers={facts['workers']}")
    print(f"machine: {facts['nproc']} cpus, {facts['cpu_model']}, {facts['python']}, "
          f"commit {facts['git_commit']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6f} {units[name]}")
    if "wall" in info:
        print("wall clock:")
        for name, (value, unit, note) in info["wall"].items():
            print(f"  {name:36s} {value:>16.6f} {unit:5s} {note}")
    print(f"  {'commands':36s} {runner.attempted} attempted, {runner.failed} failed")
    for line in runner.errors[:10]:
        print(f"  FAILED {line}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "series", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepstat" / "cli.py").is_file():
        print(f"error: no sepstat sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKERS, WORKLOADS

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    facts = run_facts(args, WORKERS)
    if args.trace:
        runner, metrics, info = traced(workload, rng, args.seconds)
        units = {name: unit_of(name) for name in metrics}
    else:
        runner, metrics, info = end_to_end(workload, rng, args.seconds)
        units = END_TO_END_UNITS

    print_report(facts, metrics, units, info, runner)
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "facts": facts,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "info": info,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
    }, indent=1) + "\n")
    print(f"  record written to {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("per_s"):
        return "1/s"
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    if name.endswith("ns_per_perm"):
        return "ns"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith(("speedup", "imbalance", "redundancy", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
