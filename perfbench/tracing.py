"""Spans and counts recorded from outside the program.

`Tracer.install()` wraps the public functions of the five sepstat
layers (perms, separators, series, exhaustive, cli) and rebinds every
reference to them that other modules hold: names imported with
`from .x import f` (for example `exhaustive.bond_gf` and
`cli.vertical_sep_gf`) and functions stored in module-level tables
(`cli._SERIES`). `uninstall()` puts the originals back.

Every wrapped call is timed. Calls to the coordinating functions are
kept as spans (name, start, end, parent span, command id); the many
small calls per permutation or per polynomial only add to per-function
totals, so memory stays small. A function's self time is its duration
minus the time of the wrapped calls it made. `MarkerPoly` arithmetic is
only counted, so its time stays in the series function that called it.

Spans live in this process. Forked pool workers inherit the wrappers
but keep what they record to themselves, so layer times come from a
1-worker pass.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter, defaultdict
from math import factorial
from time import perf_counter

from sepstat import cli, exhaustive, perms, separators, series

LAYERS = (perms, separators, series, exhaustive, cli)

# Coordinating functions whose calls are kept as spans.
SPANS = frozenset({
    "cli.main",
    "exhaustive.distribution",
    "exhaustive.sweep",
    "exhaustive.separator_free_count",
    "exhaustive.max_separator_perms",
    "exhaustive.expectation_empirical",
    "exhaustive.verify_gf_vs_brute",
    "exhaustive.run_check_suite",
    "series.vertical_sep_gf",
    "series.vertical_marked_gf",
    "series.bond_gf",
    "series.bond_marked_gf",
    "series.substitute_marker",
})

# Functions timed together: a call nested inside another call of the
# same group is counted once, in the outer call.
GROUPS = {
    "perms.inverse": "perms.inverse_reverse",
    "perms.reverse": "perms.inverse_reverse",
    "separators.vertical_separators": "separators.sets",
    "separators.vertical_separator_positions": "separators.sets",
    "separators.horizontal_separators": "separators.sets",
    "separators.horizontal_separator_positions": "separators.sets",
    "separators.encode_marked": "separators.marked",
    "separators.decode_marked": "separators.marked",
    "separators.enumerate_markings": "separators.marked",
    "separators.comb_marked": "separators.marked",
    "separators.split_marked": "separators.marked",
}

# Export helpers only format a result for printing; their time counts
# as the CLI's formatting work.
UNWRAPPED = frozenset({"series.series_to_json", "series.series_csv_rows"})

# Methods wrapped besides module-level functions: (class, method, timed).
METHODS = (
    (perms.Permutation, "__init__", True),
    (series.MarkerPoly, "__mul__", False),
    (series.MarkerPoly, "__rmul__", False),
    (series.MarkerPoly, "__add__", False),
)

BUILDERS = frozenset({
    "series.vertical_sep_gf",
    "series.vertical_marked_gf",
    "series.bond_gf",
    "series.bond_marked_gf",
})


def _layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_enumeration(tracer: "Tracer", name, fn, args, kwargs, result) -> None:
    """Permutations a sweep, separator-free count or S_n iterator walks
    through, and how the first-entry split would share them among the
    workers a pooled call asks for."""
    arguments = _bound(fn, args, kwargs)
    n = arguments["n"]
    total = factorial(n)
    tracer.counts["exhaustive.perms_enumerated"] += total
    if name == "exhaustive.sweep":
        tracer.counts["exhaustive.sweep_perms"] += total
    threads = arguments.get("threads", 1)
    if threads is None:
        threads = os.cpu_count() or 1
    # mirrors the split in exhaustive.sweep / separator_free_count:
    # first entries dealt round-robin, pool only from 7! up
    if threads > 1 and total >= 5040:
        sizes = [len(range(i, n, threads)) for i in range(threads)]
        sizes = [s for s in sizes if s]
        tracer.counts["exhaustive.pool_max_chunk"] += max(sizes) * factorial(n - 1)
        tracer.counts["exhaustive.pool_mean_chunk"] += total / len(sizes)
        tracer.counts["exhaustive.pool_perms"] += total


def _count_coefficients(tracer: "Tracer", name, fn, args, kwargs, result) -> None:
    """Nonzero coefficients and their largest bit length, for series
    handed out by an outermost builder call."""
    if any(frame[3] in BUILDERS for frame in tracer.stack):
        return
    for _, poly in result:
        for c in poly.coeffs:
            if c:
                tracer.counts["series.coeffs_out"] += 1
                bits = abs(c).bit_length()
                if bits > tracer.counts["series.max_coeff_bits"]:
                    tracer.counts["series.max_coeff_bits"] = bits


HOOKS = {
    "exhaustive.sweep": _count_enumeration,
    "exhaustive.separator_free_count": _count_enumeration,
    "exhaustive.iterate_sn": _count_enumeration,
    **{name: _count_coefficients for name in BUILDERS},
}


class Tracer:
    """Wraps the layers' functions and records what their calls cost.

    Recording happens only while `enabled` is true; `command` is the
    id stamped on the spans of the command being run.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.command: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # frames: [start, child_s, span id, name]
        self._depth: Counter = Counter()

    # -- wrappers -----------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        group = GROUPS.get(name, name)
        is_span = name in SPANS
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent_span = stack[-1][2] if stack else None
            span_id = parent_span
            if is_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # filled in when the call ends
            depth = tracer._depth
            depth[group] += 1
            frame = [0.0, 0.0, span_id, name]
            stack.append(frame)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                depth[group] -= 1
                if not depth[group]:
                    tracer.group_s[group] += duration
                if is_span:
                    tracer.spans[span_id] = (
                        span_id, name, start, end, parent_span, tracer.command
                    )
            if hook is not None:
                hook(tracer, name, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(*args):
            if tracer.enabled:
                tracer.calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the layers and rebind all
        references to them."""
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for module in LAYERS:
            layer = _layer_name(module)
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or name in UNWRAPPED):
                    continue
                wrapped[id(obj)] = self._timed(name, obj)
        for cls, attr, timed in METHODS:
            fn = vars(cls)[attr]
            if id(fn) not in wrapped:  # __rmul__ is __mul__: one wrapper, one name
                name = f"{_layer_name(inspect.getmodule(cls))}.{cls.__name__}"
                if timed:
                    wrapped[id(fn)] = self._timed(name, fn)
                else:
                    wrapped[id(fn)] = self._counted(f"{name}.{attr}", fn)
            self._set(cls, attr, wrapped[id(fn)])

        import sepstat
        for module in (sepstat, *LAYERS):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                            obj[key] = tuple(wrapped.get(id(v), v) for v in value)
                            self._restore.append((obj, key, value))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries ----------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def group_calls(self, group: str) -> int:
        return sum(c for name, c in self.calls.items() if GROUPS.get(name, name) == group)

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "command"), s))
                for s in self.spans if s is not None
            ],
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "group_s": dict(sorted(self.group_s.items())),
            "counts": dict(sorted(self.counts.items())),
        }
