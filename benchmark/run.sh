#!/usr/bin/env bash
# Build the benchmark, run every workload once at the default seed
# (end-to-end and traced), and write benchmark/out/result.json.
# Extra arguments go to `charm-benchmark run` (e.g. --runs 10, --seed N).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --trace --out benchmark/out/result.json "$@"
