#!/usr/bin/env bash
# Build dbtoasterd and the benchmark harness in release mode, then run
# one benchmark:
#
#   bash perfbench/run.sh --workload orderbook --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build output goes to stderr;
# standard output carries the report, then the result line. Binaries go
# to $CARGO_TARGET_DIR (default: target), run logs, spans and reports to
# its perfbench/ subdirectory.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/net || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ are needed)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --manifest-path Cargo.toml -p dbtoaster-net --bin dbtoasterd >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/dbtoaster-perfbench" \
    --server "$target/release/dbtoasterd" --work-dir "$target/perfbench" "$@"
