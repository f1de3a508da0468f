#!/usr/bin/env bash
# Builds `hotwire`, `repro` and `benchmark` in release mode, then runs the
# benchmark with this script's arguments, e.g.
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload coupled-picard --seed 1 --seconds 15 --trace 0
#
# All three binaries land in one target directory ($CARGO_TARGET_DIR, or
# .bench_build at the repository root), where the benchmark finds the
# programs it spawns next to its own executable. Cargo's output goes to
# stderr; the benchmark's result is the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p hotwire -p hotwire-bench --bin hotwire --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
