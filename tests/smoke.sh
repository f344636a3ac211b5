# The CLI smoke that tier-1 does not make: README's examples as written,
# a real Ctrl-C and a killed pool worker, the rows past the sweep's cap,
# the pool's output at n = 8 and 9 and the marked bijections of S_7. It
# runs `python -m sepstat.cli` and `python -c`, so it tests the sepstat
# that python imports from the caller's directory:
#
#   PYTHONPATH=src bash tests/smoke.sh    # a checkout, from its root
#   bash path/to/tests/smoke.sh           # an installed package, run from
#                                         # a directory without ./sepstat
#
# It takes no argument, keeps its files in its own temporary directory and
# exits non-zero at the first check that fails.
#
# Each check is its own command, since `set -e` skips all but the last of
# an && list and every command negated with `!`; `false` marks a failure
# found by an `if`, so that the trap names its line too.
set -eo pipefail
trap 'echo "smoke.sh: the check on line $LINENO failed" >&2' ERR
readme="$(dirname "$0")/../README.md"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# start-up loads neither the process pool, which only a pooled
# verify imports, nor json, which only --format json imports,
# nor dataclasses and inspect, which no module imports, nor any
# route, nor fractions and decimal: each command imports its own
python -c 'import sys, sepstat.cli
loaded = {"concurrent.futures", "multiprocessing", "json",
          "dataclasses", "inspect", "sepstat.transfer",
          "sepstat.series", "sepstat.exhaustive", "sepstat.verify",
          "fractions", "decimal"} & set(sys.modules)
sys.exit(sorted(loaded) or 0)'
# README's CLI examples as written, each comment cut off: every one
# exits 0 with output and no traceback, and expect ends in the
# MATCH its comment shows
examples=$(sed -n '/^## CLI$/,/^## /p' "$readme" \
  | sed -n '/^```sh$/,/^```$/p' | grep '^sepstat ' | sed 's/ *#.*//')
grep -qx 'sepstat expect 4 --kind any --mode both' <<< "$examples"
while IFS= read -r example; do
  python -m sepstat.cli ${example#sepstat } < /dev/null > "$tmp/example.txt" 2> "$tmp/example.err"
  test -s "$tmp/example.txt"
  if grep -q Traceback "$tmp/example.err"; then false; fi
  if test "$example" = 'sepstat expect 4 --kind any --mode both'; then
    test "$(tail -n 1 "$tmp/example.txt")" = '11/6 = 11/6 MATCH'
  fi
done <<< "$examples"
# Ctrl-C sent from outside to a pooled verify: one error line, the
# shell's code for SIGINT, no traceback and no worker left running.
# Job control starts the job in its own process group without the
# SIGINT that a script's background jobs otherwise ignore.
set -m
python -m sepstat.cli verify --n-max 9 --threads 2 > /dev/null 2> "$tmp/int.txt" &
pid=$!
until test "$(pgrep -c -P "$pid")" -ge 2 || ! kill -0 "$pid"; do
  sleep 0.05
done
workers=$(pgrep -P "$pid")
kill -INT "$pid"
code=0; wait "$pid" || code=$?
set +m
test "$code" = 130
test "$(cat "$tmp/int.txt")" = "error: interrupted"
if grep -q Traceback "$tmp/int.txt"; then false; fi
for worker in $workers; do
  if kill -0 "$worker" 2> /dev/null; then false; fi
done
# a pool worker killed from outside breaks the pool: exit 2 with
# one error line, no traceback and no worker left running
python -m sepstat.cli verify --n-max 9 --threads 2 > /dev/null 2> "$tmp/kill.txt" &
pid=$!
until test "$(pgrep -c -P "$pid")" -ge 2 || ! kill -0 "$pid"; do
  sleep 0.05
done
workers=$(pgrep -P "$pid")
kill -KILL "$(head -n 1 <<< "$workers")"
code=0; wait "$pid" || code=$?
test "$code" = 2
test "$(wc -l < "$tmp/kill.txt")" = 1
grep -q '^error: ' "$tmp/kill.txt"
if grep -q Traceback "$tmp/kill.txt"; then false; fi
for worker in $workers; do
  if kill -0 "$worker" 2> /dev/null; then false; fi
done
dist=$(python -m sepstat.cli dist 11 --kind vertical --format csv | tail -n +2)
series=$(python -m sepstat.cli gf --which h --order 11 --format csv | grep '^11,')
test -n "$dist"
test "$dist" = "$series"
bonds=$(python -m sepstat.cli dist 11 --kind bonds --format csv | tail -n +2)
bseries=$(python -m sepstat.cli gf --which B --order 11 --format csv | grep '^11,')
test -n "$bonds"
test "$bonds" = "$bseries"
# by the inverse symmetry, h also counts horizontal separators
horizontal=$(python -m sepstat.cli dist 11 --kind horizontal --format csv | tail -n +2)
test -n "$horizontal"
test "$horizontal" = "$series"
# the order-64 builds (packed pairing and packed marker shift)
# against dist's closed-form rows: the same inclusion-exclusion
# formula as the series' run table, written separately in
# sepstat.transfer, which imports nothing from sepstat.series
# (tests/test_route_graph.py pins each module's imports)
h64=$(python -m sepstat.cli gf --which h --order 64 --format csv | grep '^12,')
b64=$(python -m sepstat.cli gf --which B --order 64 --format csv | grep '^12,')
test -n "$h64"
test -n "$b64"
for kind in vertical horizontal; do
  test "$(python -m sepstat.cli dist 12 --kind "$kind" --format csv | tail -n +2)" = "$h64"
done
test "$(python -m sepstat.cli dist 12 --kind bonds --format csv | tail -n +2)" = "$b64"
# dist's closed-form vertical rows and the complement-folded
# both/any pass against expectation_formula, past the sweep
for n in 11 12; do
  for kind in vertical both any; do
    out=$(python -m sepstat.cli expect "$n" --kind "$kind" --mode both)
    grep -q ' MATCH$' <<< "$out"  # not MISMATCH
  done
done
# and its counts of S_12 add up to 12!, for both and any
any=$(python -m sepstat.cli dist 12 --kind any --format csv | tail -n +2)
both=$(python -m sepstat.cli dist 12 --kind both --format csv | tail -n +2)
for rows in "$any" "$both"; do
  total=$(python -c 'import sys; print(sum(int(r.split(",")[2]) for r in sys.stdin))' <<< "$rows")
  test "$total" = 479001600
done
# the top of each row: any holds 896 at m = 11 and 48 at m = 12,
# and both peaks at m = 6 with 276
test "$(tail -n 2 <<< "$any" | paste -sd ' ')" = "12,11,896 12,12,48"
test "$(tail -n 1 <<< "$both")" = "12,6,276"
# one and two n past the cap, which stays 12: the both/any rows
# of S_13 and S_14 sum to n!, their means are the formulas, and
# their tops are both 8 -> 2 and any 12 -> 2024 at n = 13 (about
# 1.4 s each), both 8 -> 32 and any 13 -> 1616 at n = 14 (about
# 4 s each, 122 MB peak)
python -c 'from math import factorial
from sepstat import config, transfer
from sepstat.exhaustive import _mean, expectation_formula
config.MAX_TRANSFER_N = 14
for n, kind, top in ((13, "both", (8, 2)), (13, "any", (12, 2024)),
                     (14, "both", (8, 32)), (14, "any", (13, 1616))):
    row = transfer.distribution(n, kind)
    assert sum(row.values()) == factorial(n), (n, kind)
    assert _mean(n, row) == expectation_formula(n, kind), (n, kind)
    assert max(row.items()) == top, (n, kind, max(row.items()))'
# the whole verify suite dealt over a pool gives the one-process
# output, for an even and an odd worker count: at n_max 7, the
# largest that is pooled with every table read off the walk's own
# scan, and at 8, past it
one=$(python -m sepstat.cli verify --n-max 7 -v --format json --threads 1)
two=$(python -m sepstat.cli verify --n-max 7 -v --format json --threads 2)
three=$(python -m sepstat.cli verify --n-max 7 -v --format json --threads 3)
test -n "$one"
test "$one" = "$two"
test "$one" = "$three"
one=$(python -m sepstat.cli verify --n-max 8 -v --format json --threads 1)
two=$(python -m sepstat.cli verify --n-max 8 -v --format json --threads 2)
three=$(python -m sepstat.cli verify --n-max 8 -v --format json --threads 3)
test -n "$one"
test "$one" = "$two"
test "$one" = "$three"
# past the n_max 8 of tier-1: the counted (masks, knight) pairs
# of S_9, in one process and over the pool
one=$(python -m sepstat.cli verify --n-max 9 -v --format json --threads 1)
two=$(python -m sepstat.cli verify --n-max 9 -v --format json --threads 2)
test -n "$one"
test "$one" = "$two"
# one size past the walk's marked bound of S_6, where verify checks
# the word kernels: every marking of the bonds of S_7 (22,230) round
# trips through the public encode_marked and decode_marked, and every
# marking of its vertical separators (17,576) through split_marked
# and comb_marked, with the marks conserved (about 0.6 s)
python -c 'from itertools import permutations
from sepstat.perms import Permutation, bonds
from sepstat.separators import (MarkedSepPermutation, MarkedWord,
    comb_marked, decode_marked, encode_marked, position_mask,
    separator_masks, split_marked, subsets)
markings = separator_markings = 0
for word in permutations(range(1, 8)):
    p = Permutation(word)
    for marks in subsets(sum(1 << i for i in bonds(p))):
        mw = MarkedWord(word, marks)
        assert decode_marked(*encode_marked(mw)) == mw, mw
        markings += 1
    for marks in subsets(position_mask(word, separator_masks(word)[0])):
        msp = MarkedSepPermutation(p, marks)
        odd, even = split_marked(msp)
        assert len(marks) == len(odd.marked) + len(even.marked), msp
        assert comb_marked(odd, even) == msp, msp
        separator_markings += 1
assert (markings, separator_markings) == (22230, 17576), (markings, separator_markings)'
