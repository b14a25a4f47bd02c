#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments, e.g.:
#
#   bash simbench/run.sh --workload fig4_blocks --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result JSON.
# The build lands in $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/simbench" "$@"
