#!/usr/bin/env bash
# gridbench: build, run, check. README.md in this directory has the details.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       lint and build, run all five workloads, print every metric by name
#       with its unit, check outputs, write benchmark/out/latest.json.
#       --trace adds the layers pass and one traced repetition per workload
#       (benchmark/out/trace-<workload>.json).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, as BENCHMARK.json's driver runs it: the last line of
#       standard output is {"correct", "attempted", "failed", "metrics"}.
#   benchmark/run.sh --compare A.json B.json
#       apply the bounds to two latest.json files, one row per
#       (metric, workload): better / same / worse / unresolved.
#
# Exit status is non-zero if anything fails to build, an output is wrong,
# or a comparison has a `worse` or `unresolved` row.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml
# The root workspace's target directory unless the caller names another;
# both are in .gitignore.
target="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --manifest-path "$manifest" --target-dir "$target" >&2
bin="$target/release/gridbench"

case "${1:-}" in
--compare)
    shift
    exec "$bin" compare "$@"
    ;;
esac

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done

cargo fmt --manifest-path "$manifest" --check >&2
cargo clippy --release --offline --manifest-path "$manifest" --target-dir "$target" --all-targets -- -D warnings >&2
exec "$bin" all "$@"
