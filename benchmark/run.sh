#!/usr/bin/env bash
# Build the system under test (the root workspace's cts-daemon) and the
# benchmark's own generator, then run the benchmark. See README.md here.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH_DIR")"

# One target directory for both builds; a relative CARGO_TARGET_DIR is
# relative to where the command was started.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" \
    -p cts-daemon --bin cts-daemon >&2
cargo build --release --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml" >&2

export CTS_DAEMON_BIN="$TARGET/release/cts-daemon"
export CTS_BENCH_DIR="$BENCH_DIR"
exec "$TARGET/release/cts-benchmark" "$@"
