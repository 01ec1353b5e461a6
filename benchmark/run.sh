#!/usr/bin/env bash
# Builds the parcomm benchmark and runs it, from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build goes to $CARGO_TARGET_DIR, by default `.bench_build` in the
# current directory. The run is pinned to the first CPU this process may
# use (see README.md, "CPU pinning"); without `taskset` it runs unpinned.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path "$(dirname "$0")/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/parcomm-benchmark"

cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)
cpu=${cpus%%[,-]*}
if [[ -n "$cpu" ]] && command -v taskset >/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "benchmark: taskset or the allowed-CPU list is missing; running unpinned" >&2
exec "$bin" "$@"
