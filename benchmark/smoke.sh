#!/usr/bin/env bash
# Smoke test and schema check, about 12 s after the build: builds both
# binaries offline, runs every workload with --quick (5 rounds) and one
# of them traced, and fails if a result names a workload or metric that
# BENCHMARK.json does not declare, or omits a declared one.
#
#   bash benchmark/smoke.sh        (from the root of the repo)
set -euo pipefail

out="${CARGO_TARGET_DIR:-benchmark/target}/smoke"
bash benchmark/run.sh all --quick --out "$out/all.json"
bash benchmark/run.sh --workload cabinet_mix_2t --quick --trace 1 --out "$out/trace.json" >/dev/null
bash benchmark/run.sh check-schema "$out/all.json" "$out/trace.json"
