#!/usr/bin/env bash
# kfuse-e2e: the one command. Builds the `kfuse` binary and the benchmark,
# then runs it. From anywhere:
#
#   benchmark/run.sh                      all four workloads, untraced then traced replay,
#                                         every metric as `name value unit`, benchmark/out/results.json
#   benchmark/run.sh --seed 2 --reps 5    another seed (2 is the held-out seed), five runs per workload
#   benchmark/run.sh --smoke              every workload at 1/20 of its operations, then the self-test
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    (the BENCHMARK.json command)
#
# Exits non-zero when a correctness check fails (the failing op ids are printed).
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds, so the benchmark links the very
# library artifacts the `kfuse` binary was built from. Cargo resolves a
# relative CARGO_TARGET_DIR against the working directory, which is the
# repository root from here on.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
build() { cargo build --release --offline --quiet "$@" 1>&2; }

if [[ "${1:-}" != "--compare" ]]; then
  build --bin kfuse
fi
build --manifest-path benchmark/Cargo.toml

exec "$CARGO_TARGET_DIR/release/kfuse-e2e" "$@"
