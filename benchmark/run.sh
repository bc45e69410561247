#!/usr/bin/env bash
# Builds the benchmark twice from source — default features and
# `--features obs` — and runs the default build with the given arguments:
#
#   bash benchmark/run.sh --workload lock_pass_2t --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repo. Build output goes to CARGO_TARGET_DIR
# when that is set, else to benchmark/target; nothing outside is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
bin="$target/bench-bin"
mkdir -p "$bin"

# Both builds share one target directory (cargo keeps the two feature
# sets apart by fingerprint); only the final executable has one name, so
# each is copied out after its build. Build output goes to stderr: stdout
# is the benchmark's.
build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
        --target-dir "$target" "${@:2}" >&2
    if ! cmp -s "$target/release/clof-benchmark" "$bin/$1"; then
        cp "$target/release/clof-benchmark" "$bin/$1.new"
        mv "$bin/$1.new" "$bin/$1"
    fi
}
build clof-benchmark-obs --features obs
build clof-benchmark

exec "$bin/clof-benchmark" "$@"
