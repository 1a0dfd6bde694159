#!/usr/bin/env bash
# Builds the benchmark and sdserved (release) from this checkout, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash sdbench/run.sh --workload warm_hits --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: sdbench/target);
# results and spans go to sdbench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/sdbench" --out "$here/out" "$@"
