#!/usr/bin/env bash
# Gate for the benchmark package: formatting, lints and tests of the perf
# workspace, then a quick traced run (2 s windows) whose result document the
# benchmark validates against BENCHMARK.json itself.
#
#   perf/check.sh            # from anywhere inside the repository
set -euo pipefail

manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/Cargo.toml"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
cargo test --offline --release --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- run --quick --traced
