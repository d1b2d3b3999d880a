#!/bin/sh
# The line count ROADMAP Aim 2 gates on, reproducibly: for every *.rs file
# under the given directories (default: crates/daemon/src crates/store/src)
# and in total, all lines and non-test lines, where a file's non-test lines
# are the ones before its first `#[cfg(test)]` attribute that sits directly
# above a `mod` item. Reformatting moves these numbers too; read the diff.
#
# Usage: scripts/loc.sh [dir ...]
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/daemon/src crates/store/src
find "$@" -name '*.rs' | LC_ALL=C sort | xargs awk '
  function report() {
    if (!found) cut = all
    printf "%8d %8d  %s\n", all, cut, file
    sum_all += all; sum_cut += cut
  }
  FNR == 1 { if (file != "") report(); file = FILENAME; all = 0; found = 0; attr = 0 }
  { all++ }
  !found && attr && /^[[:space:]]*(pub )?mod / { found = 1; cut = all - 2 }
  { attr = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
  END {
    if (file != "") report()
    printf "%8d %8d  total\n", sum_all, sum_cut
  }
  BEGIN { printf "%8s %8s\n", "all", "non-test" }'
