#!/usr/bin/env bash
# The CI pipeline, runnable locally and in .github/workflows/ci.yml.
#
# Stages (in order):
#   fmt       rustfmt in check mode
#   clippy    cargo clippy --all-targets with warnings denied
#   build     offline release build of the whole workspace
#   test      full offline test suite, then cts-experiments regenerates
#             results/full_report.txt and every results/*.csv into the
#             workdir, which must match the committed files byte for byte
#   smoke     daemon loopback smoke over TCP + in-process mini-suite
#             differential + sharded (--shards 4) full-suite
#             differential soak
#   recovery  crash-stop the daemon mid-suite, restart, verify zero
#             differential mismatches after WAL/checkpoint recovery
#   query     focused query_path bench run holding the read-path claims:
#             the cluster-timestamp precedence test >= 2x cheaper than
#             reconstructing the vector, the daemon's greatest-concurrent
#             <= 2x the bare binary search, batched wire round trips >= 5x
#             single RTTs (host-independent ratios)
#   net       C10K soak against an external daemon process: 10,000 idle
#             connections held while the differential smoke suite runs
#             clean; thread-backend differential; idle-cost ratio gates
#             (epoll <= 1/10 the thread backend's idle CPU and RSS/conn)
#   repl      replication fleet: one durable leader + two --follow daemon
#             processes, the full 54-computation suite soaked with the
#             differential checks fanned across the fleet (0 mismatches),
#             and the read scale-out claim gated: 2 followers >= 1.8x the
#             leader's warm batched-query throughput (on >= 4 cpus; smaller
#             hosts print the two timings and skip the claim)
#   replay    time-travel read path: a durable daemon retaining 8 epochs,
#             three historical epochs per computation checked
#             differentially against the offline engine (0 mismatches),
#             the newest epoch re-clustered offline under a different
#             strategy (--replay-as), a SIGKILL crash + restart proving
#             retained history survives recovery, and the warm as-of
#             claim gated: as-of queries <= 2x the head-epoch path
#   place     shard autoscaling: the planted-imbalance soak through a
#             --shards auto daemon (in-process and over the wire), gated
#             on zero differential mismatches AND >= 1 live autoscale
#             action, plus — on >= 4-core hosts — the placement claim:
#             auto + --pin-cores >= 1.3x the worst static shard layout
#             on the planted hot-group trace
#   bench     two cts-bench --quick runs gated against the committed
#             baseline by scripts/bench_gate.py
#   benchmark the pinned end-to-end benchmark (benchmark/, its own package
#             outside the workspace, the command BENCHMARK.json declares)
#             built and run at 1/20 length: all four workloads must come
#             back correct with no failed operation, so a daemon API or
#             flag change cannot break the instrument unnoticed
#
# Usage: ci.sh [stage ...]     (no arguments = all stages)
#        ci.sh --list          (print the stage names, one per line)
#        ci.sh --loc [dir ...] (print scripts/loc.sh's line counts: all and
#                              non-test lines per file and in total — the
#                              figure ROADMAP Aim 2 tracks; not a gate)
#
# A per-stage wall-clock summary is printed on exit — including on
# failure, so a hung CI run's log shows where the time went.
#
# The workspace has zero external dependencies — if any step here needs
# the network (beyond 127.0.0.1), that is itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

# All scratch state (port files, crash-recovery data dirs, bench reports)
# lives in one private directory created by mktemp -d: nothing is ever
# placed at a predictable path an attacker or a parallel CI job could
# pre-create, and one rm -rf cleans up every failure path. Setting
# CTS_CI_WORKDIR overrides that with a caller-owned directory that is
# *kept* on exit — the GitHub workflow uses it to upload the scratch
# logs and bench reports as an artifact when a stage fails.
if [[ -n "${CTS_CI_WORKDIR:-}" ]]; then
  workdir="$CTS_CI_WORKDIR"
  mkdir -p "$workdir"
  keep_workdir=1
else
  workdir=$(mktemp -d "${TMPDIR:-/tmp}/cts-ci.XXXXXX")
  keep_workdir=0
fi
pids=()

# Per-stage wall-clock bookkeeping for the summary table printed on exit.
stage_names=()
stage_secs=()
current_stage=""
current_start=0
print_summary() {
  [[ ${#stage_names[@]} -gt 0 || -n "$current_stage" ]] || return 0
  echo
  echo "ci.sh: stage timings"
  printf '  %-10s %9s\n' stage seconds
  local i
  for i in "${!stage_names[@]}"; do
    printf '  %-10s %9s\n' "${stage_names[$i]}" "${stage_secs[$i]}"
  done
  if [[ -n "$current_stage" ]]; then
    printf '  %-10s %9s  (did not finish)\n' "$current_stage" \
      "$((SECONDS - current_start))"
  fi
}

cleanup() {
  for pid in "${pids[@]:-}"; do
    [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
  done
  [[ "$keep_workdir" == 1 ]] || rm -rf "$workdir"
  print_summary
}
trap cleanup EXIT

# Wait (up to 10 s) for a daemon started with --port-file to come up, then
# print the port it bound.
wait_port_file() {
  local port_file="$1"
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
  done
  [[ -s "$port_file" ]] || {
    echo "ci.sh: daemon never wrote its port file $port_file" >&2
    exit 1
  }
  cat "$port_file"
}

stage_fmt() {
  echo "==> fmt"
  cargo fmt --check
}

stage_clippy() {
  echo "==> clippy (-D warnings)"
  cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_build() {
  echo "==> build (release, offline)"
  cargo build --release --offline --workspace
}

stage_test() {
  echo "==> test (offline)"
  cargo test -q --offline --workspace

  # The committed report and CSVs are what today's code prints: regenerate
  # all of them into the workdir and require them byte-identical.
  echo "==> test: results/ regenerates byte-identically"
  local out="$workdir/experiments"
  mkdir -p "$out"
  cargo run -q --release --offline -p cts-analysis --bin cts-experiments -- \
    --out "$out" all >"$out/full_report.txt" 2>/dev/null
  diff -u results/full_report.txt "$out/full_report.txt"
  local csv
  for csv in "$out"/*.csv; do
    diff -u "results/$(basename "$csv")" "$csv"
  done
}

stage_smoke() {
  echo "==> smoke: daemon loopback"
  local port_file="$workdir/daemon.port"
  target/release/cts-daemon --port 0 --port-file "$port_file" &
  local daemon_pid=$!
  pids+=("$daemon_pid")
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
  done
  [[ -s "$port_file" ]] || {
    echo "ci.sh: daemon never wrote its port file" >&2
    exit 1
  }
  local port
  port=$(cat "$port_file")
  target/release/cts-loadgen --addr "127.0.0.1:$port" --smoke --shutdown
  wait "$daemon_pid"
  echo "ci.sh: daemon smoke ok (port $port)"

  # In-process daemon, mini suite, differential checks included (the
  # recorded throughput numbers live in benchmark/results/).
  target/release/cts-loadgen --quick

  # Sharded full-suite soak: all 54 computations through a 4-shard ingest
  # path, every answer differentially checked (exit non-zero on mismatch).
  target/release/cts-loadgen --shards 4
}

stage_recovery() {
  echo "==> recovery: crash-stop mid-suite, restart, verify"
  # Kill the daemon after ~half the mini suite (~2000 events), restart it
  # against the same data dir, and require zero differential mismatches
  # after WAL + checkpoint recovery. --checkpoint-every 200 forces several
  # checkpoint/rotation cycles before the crash.
  target/release/cts-loadgen --quick --data-dir "$workdir/crash" \
    --checkpoint-every 200 --kill-after 1000 --restart

  # Same cycle with a 4-shard ingest path: per-shard WAL segments plus the
  # global checkpoint must recover to the same zero-mismatch state.
  target/release/cts-loadgen --quick --shards 4 --data-dir "$workdir/crash4" \
    --checkpoint-every 200 --kill-after 1000 --restart
}

stage_query() {
  echo "==> query: read-path ratio gates (query_path group)"
  # One filtered run is enough: the claims are *within-run* ratios, so
  # host speed cancels out. --claims-only because a filtered run lacks the
  # calibration kernel (absolute comparisons happen in the bench stage);
  # --require-ratio (not --require-speedup) because none of these needs a
  # second core. In order: the paper's precedence test (what the daemon
  # runs) beats reconstructing f's vector on both widest computations; the
  # daemon's greatest-concurrent (memo miss + insert included) costs at most
  # 2x the bare search; one batch beats 256 round trips; the binary search
  # is no slower than the linear oracle.
  target/release/cts-bench --quick query_path >"$workdir/bench-query.json"
  python3 scripts/bench_gate.py results/BENCH_baseline.json \
    "$workdir/bench-query.json" --claims-only \
    --require-ratio \
    query_path/precedes_materialized_sharded_web_288:query_path/precedes_cluster_sharded_web_288:2.0 \
    --require-ratio \
    query_path/precedes_materialized_blocked_stencil1d_128:query_path/precedes_cluster_blocked_stencil1d_128:2.0 \
    --require-ratio \
    query_path/gc_binary_sharded_web_288:query_path/gc_daemon_sharded_web_288:0.5 \
    --require-ratio \
    query_path/gc_binary_blocked_stencil1d_128:query_path/gc_daemon_blocked_stencil1d_128:0.5 \
    --require-ratio \
    query_path/rtt_single_256:query_path/rtt_batch_256:5.0 \
    --require-ratio \
    query_path/gc_linear_blocked_stencil1d_128:query_path/gc_binary_blocked_stencil1d_128:1.0
}

stage_net() {
  echo "==> net: C10K soak + backend idle-cost ratio gates"
  # A real daemon process (epoll front end by default), a real loadgen
  # process: 10,000 idle connections held open — two processes, so the
  # per-process fd budget covers one end each — while the differential
  # full 54-computation suite runs through the same listener with zero
  # mismatches.
  local port_file="$workdir/net-daemon.port"
  target/release/cts-daemon --port 0 --port-file "$port_file" &
  local daemon_pid=$!
  pids+=("$daemon_pid")
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
  done
  [[ -s "$port_file" ]] || {
    echo "ci.sh: daemon never wrote its port file" >&2
    exit 1
  }
  local port
  port=$(cat "$port_file")
  target/release/cts-loadgen --addr "127.0.0.1:$port" --c10k 10000 \
    --shutdown
  wait "$daemon_pid"
  echo "ci.sh: c10k soak ok (port $port)"

  # The thread-per-connection backend stays differentially correct (it is
  # the oracle the epoll front end is checked against).
  target/release/cts-loadgen --quick --net-threads

  # Idle-cost claims, host-independent within-run ratios: the epoll
  # backend must burn <= 1/10 the CPU of the thread backend's polling
  # wakeups while idle, and hold a connection in <= 1/10 the resident
  # memory of a parked connection thread. --claims-only: these entries
  # have no committed baseline (absolute idle cost is host-dependent).
  target/release/cts-loadgen --c10k-bench --json "$workdir/bench-net.json"
  python3 scripts/bench_gate.py results/BENCH_baseline.json \
    "$workdir/bench-net.json" --claims-only \
    --require-ratio \
    daemon_ingest/c10k_idle_cpu_threads:daemon_ingest/c10k_idle_cpu_epoll:10.0 \
    --require-ratio \
    daemon_ingest/c10k_rss_per_conn_threads:daemon_ingest/c10k_rss_per_conn_epoll:10.0
}

stage_repl() {
  echo "==> repl: leader + 2-follower fleet, full-suite soak + scale-out gate"
  # One durable leader (the WAL doubles as the replication stream) and two
  # follower daemon processes replicating it over Subscribe. On hosts with
  # >= 3 cpus each daemon is pinned to its own core, so the leader-vs-fleet
  # comparison measures serving capacity rather than scheduler luck.
  local pin_leader=() pin_f1=() pin_f2=()
  if [[ "$(nproc)" -ge 3 ]]; then
    pin_leader=(taskset -c 0)
    pin_f1=(taskset -c 1)
    pin_f2=(taskset -c 2)
  fi
  local lport f1port f2port
  "${pin_leader[@]}" target/release/cts-daemon --port 0     --port-file "$workdir/repl-leader.port"     --data-dir "$workdir/repl-leader" &
  pids+=("$!")
  lport=$(wait_port_file "$workdir/repl-leader.port")

  "${pin_f1[@]}" target/release/cts-daemon --port 0     --port-file "$workdir/repl-f1.port"     --data-dir "$workdir/repl-f1" --follow "127.0.0.1:$lport" &
  local f1_pid=$!
  pids+=("$f1_pid")
  "${pin_f2[@]}" target/release/cts-daemon --port 0     --port-file "$workdir/repl-f2.port"     --data-dir "$workdir/repl-f2" --follow "127.0.0.1:$lport" &
  local f2_pid=$!
  pids+=("$f2_pid")
  f1port=$(wait_port_file "$workdir/repl-f1.port")
  f2port=$(wait_port_file "$workdir/repl-f2.port")

  # Full 54-computation suite into the leader; after the followers
  # converge (published snapshots covering every computation), the
  # differential checks are fanned across the fleet — zero mismatches
  # required — and the warm batched-query workload is timed against the
  # leader alone vs. the two followers (repl/warm_batch_* entries).
  target/release/cts-loadgen --addr "127.0.0.1:$lport"     --follower-addr "127.0.0.1:$f1port" --follower-addr "127.0.0.1:$f2port"     --json "$workdir/bench-repl.json" --shutdown
  kill "$f1_pid" "$f2_pid" 2>/dev/null || true
  wait "$f1_pid" "$f2_pid" 2>/dev/null || true
  echo "ci.sh: replication fleet soak ok (leader $lport, followers $f1port/$f2port)"

  # The read scale-out claim. --claims-only: repl/* entries have no
  # committed baseline (absolute throughput is host-dependent); the
  # within-run leader/fleet ratio is the claim. Three daemons and the
  # client need their own cores for it to mean anything: below 4 cpus the
  # ratio is scheduler luck, so print the two timings and skip the claim
  # (the soak's zero-mismatch gate above still ran).
  local cpus
  cpus=$(nproc)
  if ((cpus >= 4)); then
    python3 scripts/bench_gate.py results/BENCH_baseline.json \
      "$workdir/bench-repl.json" --claims-only \
      --require-speedup \
      repl/warm_batch_leader:repl/warm_batch_fleet:1.8
  else
    local timings
    timings=$(python3 -c '
import json, sys
ms = {b["name"]: b["min_ns"] / 1e6 for b in json.load(open(sys.argv[1]))["benches"]
      if b["group"] == "repl"}
print("leader %.1f ms, fleet %.1f ms" % (ms["warm_batch_leader"], ms["warm_batch_fleet"]))
' "$workdir/bench-repl.json")
    echo "repl: host has $cpus cpu(s) < 4; skipping the speedup claim ($timings)"
  fi
}

stage_replay() {
  echo "==> replay: time-travel reads at retained epochs, across a crash"
  # A durable daemon publishing every 64 deliveries and retaining 8
  # epochs. The loadgen streams the mini suite in 32-event wire batches
  # (small frames, so the publish cadence actually fires mid-stream and
  # leaves a ladder of historical epochs), then time-travel-checks three
  # historical epochs per computation differentially against the offline
  # engine — precedence, greatest-concurrent, and window answers at each
  # retained epoch, zero mismatches required — and finally replays the
  # newest epoch offline under a *different* clustering strategy
  # (merge-nth, max cluster size 8) to report the stamp-size delta.
  local port_file="$workdir/replay-daemon.port" port
  target/release/cts-daemon --port 0 --port-file "$port_file" \
    --data-dir "$workdir/replay" --epoch-every 64 --retain-epochs 8 &
  local daemon_pid=$!
  pids+=("$daemon_pid")
  port=$(wait_port_file "$port_file")
  target/release/cts-loadgen --addr "127.0.0.1:$port" --quick --batch 32 \
    --asof-epochs 3 --replay-as mergeNth:8@2

  # Crash-stop (SIGKILL — no graceful checkpoint) and restart on the same
  # data dir: recovery republishes the checkpointed epoch marks, so the
  # retained history must still answer the same as-of checks afterwards.
  kill -9 "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  rm -f "$port_file"
  target/release/cts-daemon --port 0 --port-file "$port_file" \
    --data-dir "$workdir/replay" --epoch-every 64 --retain-epochs 8 &
  daemon_pid=$!
  pids+=("$daemon_pid")
  port=$(wait_port_file "$port_file")
  target/release/cts-loadgen --addr "127.0.0.1:$port" --wait-ready 60 \
    --quick --batch 32 --asof-epochs 3 --shutdown
  wait "$daemon_pid" 2>/dev/null || true
  echo "ci.sh: replay soak ok (history survived the crash, port $port)"

  # The warm as-of claim: answering at a retained historical epoch costs
  # <= 2x the same queries at the head (head/asof >= 0.5 within-run).
  # --claims-only: the filtered run lacks the calibration kernel; the
  # absolute numbers are gated by the bench stage.
  target/release/cts-bench --quick timetravel >"$workdir/bench-replay.json"
  python3 scripts/bench_gate.py results/BENCH_baseline.json \
    "$workdir/bench-replay.json" --claims-only \
    --require-ratio \
    timetravel/precedes_head_256:timetravel/precedes_asof_256:0.5
}

stage_adapt() {
  echo "==> adapt: online adaptive re-clustering, drift soak + schedule exploration"
  # Schedule-exploration tests for the migration path: seeded random and
  # exhaustive-tiny schedules through the sharded runtime, migration
  # mid-sync-pair / across epoch publish / across a crash, and the
  # follower replaying the leader's migration stream. On failure the
  # shrinker writes the minimal failing schedule into the workdir so the
  # CI artifact upload preserves it.
  CTS_ARTIFACT_DIR="$workdir" cargo test -q --release --test adaptive_recluster

  # In-process drift soak: the planted-drift fixtures streamed through an
  # adaptive daemon, segmented at the planted phase boundaries so the
  # cluster-receive-ratio curves line up with the plants. Gates: zero
  # differential mismatches AND >= 1 migration per fixture (detector
  # liveness), plus time-travel checks at 3 retained epochs.
  target/release/cts-loadgen --drift --epoch-every 256 --asof-epochs 3 \
    >"$workdir/drift-curves.txt"
  tail -n 4 "$workdir/drift-curves.txt"

  # The same soak against a real daemon process started with --adaptive
  # (exercises the wire-level QueryClusterMap path end to end).
  local port_file="$workdir/adapt-daemon.port" port
  target/release/cts-daemon --port 0 --port-file "$port_file" \
    --adaptive 12 --epoch-every 256 --retain-epochs 8 &
  pids+=("$!")
  port=$(wait_port_file "$port_file")
  target/release/cts-loadgen --drift --addr "127.0.0.1:$port" \
    --asof-epochs 3 --shutdown >"$workdir/drift-curves-net.txt"

  # The quality claim: on each drift trace the adaptive engine's
  # cluster-receive count beats the *worst* static strategy by >= 1.2x
  # (scalar count entries — see bench_adaptive — so the ratio is
  # host-independent; --claims-only because the filtered run lacks the
  # calibration kernel).
  target/release/cts-bench --quick adaptive >"$workdir/bench-adapt.json"
  python3 scripts/bench_gate.py results/BENCH_baseline.json \
    "$workdir/bench-adapt.json" --claims-only \
    --require-ratio \
    adaptive/cr_static_worst_stencil:adaptive/cr_adaptive_stencil:1.2 \
    --require-ratio \
    adaptive/cr_static_worst_tiers:adaptive/cr_adaptive_tiers:1.2
}

stage_place() {
  echo "==> place: shard autoscaling, planted-imbalance soak + topology placement"
  # In-process soak: planted hot-group fixtures through a --shards auto
  # daemon, the placement sampled mid-stream over the wire. Gates: zero
  # differential mismatches AND >= 1 live autoscale action (a dead
  # autoscaler fails even when every answer is right). Splits happen
  # between batches under the freeze mutex only — ingest on the other
  # shards never stops.
  target/release/cts-loadgen --place >"$workdir/place-soak.txt"
  tail -n 2 "$workdir/place-soak.txt"

  # The same soak against a real daemon process started with --shards
  # auto --pin-cores (exercises the QueryPlacement wire verb and the
  # sysfs topology plan end to end).
  local port_file="$workdir/place-daemon.port" port
  target/release/cts-daemon --port 0 --port-file "$port_file" \
    --shards auto --pin-cores &
  pids+=("$!")
  port=$(wait_port_file "$port_file")
  target/release/cts-loadgen --place --addr "127.0.0.1:$port" \
    --shutdown >"$workdir/place-soak-net.txt"

  # The perf claim: auto + pinning beats the *worst* static layout by
  # >= 1.3x on the planted hot-group trace. Only meaningful where there
  # is parallelism for placement to reclaim, so hosts below 4 cores
  # skip it (the soak gates above still ran).
  local cpus
  cpus=$(nproc)
  if ((cpus >= 4)); then
    target/release/cts-bench --quick placement >"$workdir/bench-place.json"
    python3 scripts/bench_gate.py results/BENCH_baseline.json \
      "$workdir/bench-place.json" --claims-only \
      --require-speedup \
      placement/hot6g4w_s1:placement/hot6g4w_auto_pin:1.3
  else
    echo "place: host has $cpus cpu(s) < 4; skipping the speedup claim"
  fi
}

stage_bench() {
  echo "==> bench: quick suite x2 vs committed baseline"
  target/release/cts-bench --quick >"$workdir/bench-1.json"
  target/release/cts-bench --quick >"$workdir/bench-2.json"
  # Shard-ingest scaling is benchmark/'s (shard.ingest_ns_per_ev_s1/_s2);
  # no sharding speedup is claimed until a work/span bound is recorded.
  python3 scripts/bench_gate.py results/BENCH_baseline.json \
    "$workdir/bench-1.json" "$workdir/bench-2.json"
}

stage_benchmark() {
  echo "==> benchmark: build and smoke-run the end-to-end benchmark"
  # run.sh builds cts-daemon and the generator, prints one result line per
  # workload, and exits non-zero unless every one is correct.
  bash benchmark/run.sh --smoke
}

all_stages=(fmt clippy build test smoke recovery query net repl replay adapt place bench benchmark)
if [[ "${1:-}" == "--list" ]]; then
  printf '%s\n' "${all_stages[@]}"
  exit 0
fi
if [[ "${1:-}" == "--loc" ]]; then
  scripts/loc.sh "${@:2}"
  exit 0
fi
stages=("${@:-${all_stages[@]}}")
for stage in "${stages[@]}"; do
  case "$stage" in
  fmt | clippy | build | test | smoke | recovery | query | net | repl | replay | adapt | place | bench | benchmark)
    current_stage="$stage"
    current_start=$SECONDS
    "stage_$stage"
    stage_names+=("$stage")
    stage_secs+=("$((SECONDS - current_start))")
    current_stage=""
    ;;
  *)
    echo "ci.sh: unknown stage '$stage' (known: ${all_stages[*]})" >&2
    exit 2
    ;;
  esac
done
echo "ci.sh: all green (${stages[*]})"
