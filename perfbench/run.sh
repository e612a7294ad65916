#!/usr/bin/env bash
# Build the release `ecochip` server and the benchmark from source, then run
# one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep_stream --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); traced runs
# write their span logs under it. The last line of stdout is the result.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ecochip >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$target/release/perfbench" --server "$target/release/ecochip" \
    --trace-dir "$target/perfbench" "$@"
