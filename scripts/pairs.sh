#!/usr/bin/env bash
# Paired end-to-end benchmark runs: revision REV (the parent) against the
# working tree (the change), alternating which side runs first.
#
# Usage: scripts/pairs.sh REV [--pairs N] [--workload W ...] [--seed S]
#
#   REV          any commit-ish; extracted with `git archive`, so only
#                committed files of REV are measured
#   --pairs N    pairs per workload (default 10)
#   --workload W repeatable (default: every workload of BENCHMARK.json)
#   --seed S     the seed both sides of every pair run (default 1)
#
# Each side is built in a target directory of its own, under $PAIRS_DIR
# (default target/pairs), where REV's tree is also extracted, keyed by its
# commit id so a rerun reuses the build. Every run is
#   bash benchmark/run.sh --workload W --seed S
# in that side's tree, at the run length the benchmark declares; its last
# stdout line (the workload's JSON report) is kept as
# $PAIRS_DIR/runs-<id>-seed<S>/<workload>/<side>-<k>.json.
#
# Per workload and end-to-end metric it prints the parent and change
# medians, the change in % (positive = better), the pairs the change won,
# the parent's interquartile range in % of its median, and two verdicts:
#   bound  WORSE when the change's median is worse than the parent's by
#          more than the metric's BENCHMARK.json bound; else >bound when it
#          is better by more than the bound; else unresolved when the
#          parent's IQR is wider than the bound (its runs cannot show a
#          move of the bound's size) and not every change run beats every
#          parent run; else ok
#   claim  yes when the change won at least 9 pairs in 10, its median
#          beats the parent's by more than the parent's IQR, and the bound
#          verdict is >bound
# A metric whose parent runs do not all read the same value while it is a
# count (cr_per_kev: cluster receives depend on the arrival interleaving
# of several connections) is flagged "varies": compare it only in the
# median. Per workload it also sums each side's `attempted` and `failed`
# operations over its runs and prints failed/attempted with the failed
# share, marked WORSE when the change's share is larger than the parent's.
# Exit status is non-zero when a run fails, reports incorrect answers, or
# the change fails a larger share of operations than the parent.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '2,41p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

[ $# -ge 1 ] || usage
REV="$1"
shift
PAIRS=10
SEED=1
WORKLOADS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) PAIRS="$2"; shift 2 ;;
        --workload) WORKLOADS+=("$2"); shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        *) usage ;;
    esac
done
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    mapfile -t WORKLOADS < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$ROOT/BENCHMARK.json")
fi

SHA="$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")"
WORK="${PAIRS_DIR:-$ROOT/target/pairs}"
case "$WORK" in /*) ;; *) WORK="$PWD/$WORK" ;; esac
BASE="$WORK/tree-${SHA:0:12}"
RUNS="$WORK/runs-${SHA:0:12}-seed$SEED"
mkdir -p "$WORK" "$RUNS"
if [ ! -f "$BASE/BENCHMARK.json" ]; then
    rm -rf "$BASE.part"
    mkdir -p "$BASE.part"
    git -C "$ROOT" archive "$SHA" | tar -x -C "$BASE.part"
    mv "$BASE.part" "$BASE"
fi

# side name -> (tree, target directory)
tree_of() { if [ "$1" = parent ]; then echo "$BASE"; else echo "$ROOT"; fi; }
target_of() { echo "$WORK/target-$1-$([ "$1" = parent ] && echo "${SHA:0:12}" || echo head)"; }

for side in parent change; do
    tree="$(tree_of $side)"
    echo "[pairs] building $side ($tree)" >&2
    CARGO_TARGET_DIR="$(target_of $side)" cargo build --release --offline --quiet \
        --manifest-path "$tree/Cargo.toml" -p cts-daemon --bin cts-daemon >&2
    CARGO_TARGET_DIR="$(target_of $side)" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" >&2
done

run_one() { # side workload k
    local side="$1" w="$2" k="$3" out log
    out="$RUNS/$w/$side-$k.json"
    log="$RUNS/$w/$side-$k.stderr.log"
    echo "[pairs] $w pair $k: $side" >&2
    if ! (cd "$(tree_of "$side")" && CARGO_TARGET_DIR="$(target_of "$side")" \
        bash benchmark/run.sh --workload "$w" --seed "$SEED" \
        2>"$log" | tail -n 1 >"$out"); then
        echo "[pairs] $w pair $k: $side run failed, see $log" >&2
        return 1
    fi
}

status=0
for w in "${WORKLOADS[@]}"; do
    mkdir -p "$RUNS/$w"
    for k in $(seq 1 "$PAIRS"); do
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_one "$side" "$w" "$k" || status=1
        done
    done
done

python3 - "$ROOT/BENCHMARK.json" "$RUNS" "$PAIRS" "${WORKLOADS[@]}" <<'EOF' || status=1
import json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
runs_dir, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = spec["end_to_end"]
bad = False

def load(w, side, k):
    path = os.path.join(runs_dir, w, f"{side}-{k}.json")
    try:
        with open(path) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

for w in workloads:
    got = [(load(w, "parent", k), load(w, "change", k)) for k in range(1, pairs + 1)]
    got = [(a, b) for a, b in got if a is not None and b is not None]
    ops = {}
    for side, i in (("parent", 0), ("change", 1)):
        runs = [g[i] for g in got]
        wrong = sum(1 for r in runs if not r.get("correct", False))
        if wrong:
            print(f"{w}: {wrong} {side} run(s) reported incorrect answers")
            bad = True
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        ops[side] = (failed, attempted, failed / attempted if attempted else 0.0)
    print(f"\n{w}: {len(got)} pairs")
    more_failed = ops["change"][2] > ops["parent"][2]
    bad = bad or more_failed
    print("  operations failed: " + ", ".join(
        f"{side} {f}/{a} ({100.0 * share:.3g}%)" for side, (f, a, share) in ops.items())
        + ("  WORSE" if more_failed else ""))
    print(f"  {'metric':<22} {'parent':>12} {'change':>12} {'change%':>8} {'won':>6} "
          f"{'IQR%':>6}  {'bound':<10} claim")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [g[0]["metrics"][name]["value"] for g in got if name in g[0]["metrics"]]
        cv = [g[1]["metrics"][name]["value"] for g in got if name in g[1]["metrics"]]
        if not pv or len(pv) != len(cv):
            print(f"  {name:<22} (missing)")
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        gain = (pm - cm) if lower else (cm - pm)
        pct = 100.0 * gain / pm if pm else 0.0
        won = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
        q1, q3 = quartiles(pv)
        iqr = q3 - q1
        iqr_pct = 100.0 * iqr / pm if pm else 0.0
        bound = m["bound"] * abs(pm)
        all_beat = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
        if -gain > bound:
            verdict = "WORSE"
        elif gain > bound:
            verdict = ">bound"
        elif iqr > bound and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "ok"
        claim = won * 10 >= 9 * len(pv) and gain > iqr and verdict == ">bound"
        note = ""
        if m["unit"] == "count" and len(set(pv)) > 1:
            note = "  varies"
        print(f"  {name:<22} {pm:>12.4g} {cm:>12.4g} {pct:>+7.1f}% {won:>3}/{len(pv):<2} "
              f"{iqr_pct:>5.1f}%  {verdict:<10} {'yes' if claim else 'no'}{note}")
sys.exit(1 if bad else 0)
EOF
exit $status
