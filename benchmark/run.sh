#!/usr/bin/env bash
# Builds the benchmark and runs it, pinned to one CPU when `taskset` is
# available (unpinned runs of the loopback workloads vary by +-15 % on a
# shared two-core host, pinned ones by +-3 %).
#
#   benchmark/run.sh [--repeats N] [--set NAME] <fec-benchmark arguments>
#
#   --repeats N   run N times (default 1)
#   --set NAME    append every run's record to benchmark/out/NAME.jsonl,
#                 the input of `benchmark/run.sh compare A.jsonl B.jsonl`
#
# Everything else goes to the program unchanged, see `--list` and the
# README. The exit code is that of the first run that failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

repeats=1
set_name=""
while [ $# -gt 0 ]; do
    case "$1" in
        --repeats) repeats="$2"; shift 2 ;;
        --set) set_name="$2"; shift 2 ;;
        *) break ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
binary="${CARGO_TARGET_DIR:-$here/target}/release/fec-benchmark"

# The last CPU this process may run on: the first one takes most of the
# host's interrupts.
pin=()
if command -v taskset >/dev/null 2>&1; then
    last="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null | grep -o '[0-9]*$' || true)"
    if [ -n "$last" ] && taskset -c "$last" true 2>/dev/null; then
        pin=(taskset -c "$last")
    fi
fi

extra=()
if [ -n "$set_name" ]; then
    extra=(--out "$here/out/$set_name.jsonl")
fi

status=0
for _ in $(seq "$repeats"); do
    ${pin[@]+"${pin[@]}"} "$binary" "$@" ${extra[@]+"${extra[@]}"} || { status=$?; break; }
done
exit "$status"
