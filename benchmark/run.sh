#!/usr/bin/env bash
# One command for the repo benchmark: builds the benchmark package offline
# and hands every argument to it. See README.md in this directory.
#
#   benchmark/run.sh                       # the suite, one child per workload
#   benchmark/run.sh --trace               # the suite, per-layer metrics
#   benchmark/run.sh --selfcheck           # the suite twice, A/A differences
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GPM_BENCH_DIR="$here"
# Build into the repo's target/ (which git ignores) unless the caller chose
# a directory. The benchmark's own release profile (one codegen unit, LTO)
# means it shares no compiled crate with the tier-1 build.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
export GPM_BENCH_COMMIT="${GPM_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
