#!/usr/bin/env sh
# Offline CI gate for the CLoF workspace.
#
# Runs, in order:
#   1. tier-1: `cargo build --release && cargo test -q` (root package;
#      includes the level-step mutant-kill, `tests/step_mutant.rs`);
#   2. the clof-testkit unit suite (property engine + oracle self-tests),
#      then a structural check that the paper's level step is spelled
#      once: each protocol primitive of `LevelMeta` has at most one
#      non-test call site in crates/core/src outside level.rs, and one
#      that the waiting policy is too: no non-test `spin_loop()` /
#      `yield_now()` in crates/{locks,core,baselines,kvstore}/src outside
#      spin.rs and chaos.rs, and no `with_limit`; then the policy's two
#      clocked checks, each alone in a release build — the lateness
#      contract (`crates/locks/tests/lateness.rs`) and the
#      oversubscription guard (`tests/oversubscribed.rs`);
#   3. a 16-seed smoke subset of the schedule-fuzzing stress oracle;
#   4. the default-build `clof` binary, asserted free of tracer symbols
#      (the "traceEvents" exporter string only exists behind `obs`) —
#      checked before any obs build can overwrite the binary;
#   5. the obs phase: telemetry release build, the telemetry-vs-oracle
#      suite, the trace-vs-oracle and histogram property suites, the
#      server e2e scrape and SLO burn-rate property suites, a 16-seed
#      oracle smoke with telemetry on, kvstore windowed stats, a
#      `clof top --once` smoke, a `clof serve --once` self-scrape
#      smoke, a `clof trace` export/analyze round-trip, the contention
#      profiler (marker present in the obs binary and absent from the
#      default one, `clof profile --once` clean-run smoke, injected
#      deadlock/inversion detected with non-zero exit, registry
#      lifecycle suite), the zero-cost assertion that the default
#      dependency graph (root and clof-bench) carries no clof-obs, the
#      repo's benchmark smoke (`benchmark/smoke.sh`: both benchmark
#      binaries built offline, every workload run with --quick, one of
#      them traced, results checked against BENCHMARK.json) and the
#      obs-tax gate (`scripts/obs_tax_gate.sh`: what compiling `obs` in
#      costs a hand-off and an uncontended acquire, read from a traced
#      run, must stay within 2.5x and 6x of the default build);
#   6. the adapt phase: `adapt,obs` release build, a forced-migration
#      swap smoke (cross-tier 8 seeds + fairness-across-swaps), the
#      handover mutant-kill campaign, the kvstore hot-swap suite, a
#      `clof adapt --once` smoke against the real binary, and the
#      zero-cost assertions that the default binary carries no
#      "clof-adapt" marker and the default dependency graph enables
#      the `adapt` feature nowhere;
#   7. the park phase: `park` release build, the locks/core park unit
#      suites, the oversubscribed stress-oracle smoke (forced-park
#      liveness, parked gap bound, budget plumbing), the deleted-wake
#      mutant-kill test, the same oracle smoke with `park,obs`
#      instrumentation compiled in, and the zero-cost assertions that
#      the default binary carries no "clof-park" marker and the default
#      dependency graph enables the `park` feature nowhere;
#   8. the deadline phase: `deadline` release build, the locks/core/
#      kvstore deadline unit suites, the 64-seed timeout/abandonment
#      oracle matrix (plus its park and adapt companion cells), the
#      deleted-abandoned-skip mutant-kill test, a `clof deadline --once`
#      smoke against the real binary (marker present), and the
#      zero-cost assertions that the default binary carries no
#      "clof-deadline" marker and the default dependency graph enables
#      the `deadline` feature nowhere;
#   9. all four feature layers at once (`obs,adapt,park,deadline`): the
#      workspace type-checks and the core suite passes.
#
# Everything builds from vendored/in-repo code only — no network, no
# external dev-dependencies — so this is safe for air-gapped runners.
# Each phase runs under a hard timeout so a livelocked lock (the exact
# bug class the oracle hunts) fails the build instead of hanging it.
#
# Env knobs:
#   CI_TIMEOUT_SECS   per-phase timeout (default 1800)
#   CLOF_TESTKIT_SEED override the property-engine base seed for replay

set -eu

cd "$(dirname "$0")/.."

TIMEOUT_SECS="${CI_TIMEOUT_SECS:-1800}"

# Portable-ish hard timeout: use coreutils `timeout` when present,
# otherwise run unguarded (busybox-only hosts still get the gate).
if command -v timeout >/dev/null 2>&1; then
    RUN="timeout $TIMEOUT_SECS"
else
    echo "ci.sh: no 'timeout' binary; running without a hard timeout" >&2
    RUN=""
fi

phase() {
    echo
    echo "==== ci: $1 ===="
    shift
    # shellcheck disable=SC2086 # RUN is intentionally word-split
    $RUN "$@"
}

phase "tier-1 release build" cargo build --release
phase "tier-1 test suite" cargo test -q
phase "testkit unit suite" cargo test -q -p clof-testkit

# The §4.1 level step lives in crates/core/src/step.rs and nowhere else:
# a second call site of any of these `LevelMeta` primitives is a second
# copy of the protocol (comments and `#[cfg(test)]` modules don't count).
phase "level step is spelled once" \
    sh -c 'status=0
           for call in "pass_high_lock()" "keep_local()" "clear_high_lock()" \
                       "inc_waiters(" "dec_waiters("; do
               sites=0
               for file in crates/core/src/*.rs; do
                   [ "${file##*/}" = level.rs ] && continue
                   n=$(sed "/^#\[cfg(test)\]/,\$d" "$file" | grep -v "^ *//" |
                       grep -cF "$call" || true)
                   sites=$((sites + n))
               done
               echo "$call: $sites call site(s) outside level.rs"
               [ "$sites" -le 1 ] || status=1
           done
           exit $status'

# One waiting policy: every wait in the shipped crates goes through
# `clof_locks::Backoff` (spin.rs; chaos.rs injects delays, it does not
# wait), and the burst-ceiling knob that policy made pointless stays gone.
phase "waiting policy is spelled once" \
    sh -c 'status=0
           for file in crates/locks/src/*.rs crates/core/src/*.rs \
                       crates/baselines/src/*.rs crates/kvstore/src/*.rs; do
               code=$(sed "/^#\[cfg(test)\]/,\$d" "$file" | grep -v "^ *//")
               if echo "$code" | grep -nF "with_limit"; then
                   echo "$file: Backoff::with_limit is back" >&2
                   status=1
               fi
               case "${file##*/}" in spin.rs | chaos.rs) continue ;; esac
               if echo "$code" | grep -nE "spin_loop\(\)|yield_now\(\)"; then
                   echo "$file: waits outside clof_locks::Backoff" >&2
                   status=1
               fi
           done
           exit $status'
# The policy on the clock (`#[ignore]`d: they need the host to themselves).
phase "waiting policy: grant-to-return lateness" \
    cargo test --release -q -p clof-locks --test lateness -- --ignored --test-threads=1
phase "waiting policy: oversubscription guard (8 threads, 2 CPUs)" \
    cargo test --release -q --test oversubscribed -- --ignored --test-threads=1

# Memory-layout assertions are `const _: () = assert!(...)` blocks in
# clof-locks (CachePadded, lock-word padding), clof-core (LevelMeta
# stripe/owner isolation) and — in the `obs` build — clof-obs (one
# 128-byte line per watchdog `ProgressSlot` and waits-for `ThreadCell`,
# line-aligned telemetry `Shard`s and level cells): they fail these
# *builds*, not a test run, so compiling the crates under every feature
# mix is the whole check.
phase "memory-layout const assertions (default)" \
    cargo build -p clof-locks -p clof-core
phase "memory-layout const assertions (obs,testkit)" \
    cargo build -p clof-core --features obs,testkit

# Striped read-indicator oracle + fast-tier/mixed-tier smoke: the
# indicator must never false-negative a parked waiter, and the
# monomorphized dispatch tier must uphold the stress-oracle invariants.
phase "striped-indicator oracle" cargo test -q --test striped_indicator
phase "fast-tier oracle smoke" \
    cargo test -q --test stress_oracle -- \
    oracle_matrix_monomorphized_finalists \
    oracle_mixed_tier_handles_on_one_lock \
    keep_local_owner_only_counter_respects_h_bound

# Smoke subset of the stress oracle: the broken-lock acceptance test is
# itself a 16-seed fuzz run, plus one fair-composition matrix slice.
phase "stress-oracle smoke (16 seeds)" \
    cargo test -q --test stress_oracle -- \
    broken_lock_is_caught_with_replayable_seed \
    fair_composition_gap_is_bounded \
    oracle_matrix_ticket

# Default-build binary check: the tracer's exporter is the only code
# that emits the literal "traceEvents", so its absence from the default
# `clof` binary proves no tracer code was compiled in. This must run
# before the obs phases, which overwrite target/release/clof.
phase "default clof binary build" cargo build --release -p clof-bench
phase "default binary carries no tracer symbols" \
    sh -c 'if grep -qa traceEvents target/release/clof; then
               echo "tracer export symbols leaked into the default clof binary" >&2
               exit 1
           fi'
# The "clof-adapt" literal only exists in the adaptation layer (CLI
# output lines and the testkit stall-bound panic), so its absence proves
# the default binary compiled none of it.
phase "default binary carries no adapt symbols" \
    sh -c 'if grep -qa clof-adapt target/release/clof; then
               echo "adaptation symbols leaked into the default clof binary" >&2
               exit 1
           fi'
# The "clof-obs-serve" literal is the telemetry server's Server: header
# (sent on every HTTP response), so its absence proves the default
# binary compiled none of the serving layer.
phase "default binary carries no telemetry-server symbols" \
    sh -c 'if grep -qa clof-obs-serve target/release/clof; then
               echo "telemetry-server symbols leaked into the default clof binary" >&2
               exit 1
           fi'
# The "clof-profile-v1" literal is the contention profiler's format
# marker (printed in every profile header and JSON export), so its
# absence proves the default binary compiled none of the profiler.
phase "default binary carries no profiler symbols" \
    sh -c 'if grep -qa clof-profile-v1 target/release/clof; then
               echo "profiler symbols leaked into the default clof binary" >&2
               exit 1
           fi'
# The "clof-park-v1" literal is the waiting layer's futex marker (woven
# into its syscall-failure panics), so its absence proves the default
# binary compiled no spin-then-park/futex code.
phase "default binary carries no park symbols" \
    sh -c 'if grep -qa clof-park target/release/clof; then
               echo "spin-then-park symbols leaked into the default clof binary" >&2
               exit 1
           fi'
# The "clof-deadline-v1" literal is the deadline layer's format marker
# (printed in the `clof deadline` banner), so its absence proves the
# default binary compiled no bounded-acquisition/poisoning code.
phase "default binary carries no deadline symbols" \
    sh -c 'if grep -qa clof-deadline target/release/clof; then
               echo "deadline symbols leaked into the default clof binary" >&2
               exit 1
           fi'

# Telemetry phase: everything above must also hold with `obs` compiled
# in, and the default build must not even link clof-obs (zero-cost when
# disabled — checked on the dependency graph, where it is structural).
phase "obs release build" cargo build --release --features obs
phase "obs unit suite (clof-obs)" cargo test -q -p clof-obs
phase "obs telemetry-vs-oracle suite" \
    cargo test -q --features obs --test obs_stats
phase "obs trace-vs-oracle + histogram properties" \
    cargo test -q --features obs --test trace_oracle --test obs_hist_props
phase "obs server e2e scrape + SLO burn-rate properties" \
    cargo test -q -p clof-obs --test serve_e2e --test slo_props
phase "obs kvstore windowed stats" \
    cargo test -q -p clof-kvstore --features obs
phase "obs oracle smoke (16 seeds)" \
    cargo test -q --features obs --test stress_oracle -- \
    broken_lock_is_caught_with_replayable_seed \
    oracle_matrix_ticket

# Live telemetry smoke: build the obs-enabled CLI once, prove the tracer
# marker is now present, take one `top` window, and round-trip a span
# trace through the Chrome exporter and the analyzer (the trace command
# itself fails if the keep-local chain bound is violated).
phase "obs clof binary build" cargo build --release -p clof-bench --features obs
phase "obs binary carries tracer symbols" \
    grep -qa traceEvents target/release/clof
phase "obs binary carries the telemetry-server marker" \
    grep -qa clof-obs-serve target/release/clof
phase "clof top --once smoke" \
    ./target/release/clof top --machine armv8 --levels 3 --lock tkt-clh-tkt \
    --threads 4 --interval-ms 200 --once
# `serve --once` binds an ephemeral port, runs one sampling window, and
# self-scrapes all four endpoints through a real socket (it exits
# non-zero unless every endpoint answers 200).
phase "clof serve --once self-scrape smoke" \
    ./target/release/clof serve --machine armv8 --levels 3 --lock tkt-clh-tkt \
    --threads 4 --interval-ms 200 --once
phase "clof trace export/analyze round-trip" \
    sh -c 'out="${TMPDIR:-/tmp}/clof-ci-trace.json"
           ./target/release/clof trace --machine armv8 --levels 3 \
               --lock tkt-clh-tkt --threads 4 --iters 2000 --out "$out"
           grep -q "traceEvents" "$out"
           grep -q "\"ph\":\"X\"" "$out"
           rm -f "$out"'

# Contention-profiler phase: the obs binary must carry the profiler
# marker, a clean contended run must exit 0 with folded stacks, and the
# injected deadlock/inversion must be detected (non-zero exit) — the
# whole detector path from WaitTable to process exit code.
phase "obs binary carries the profiler marker" \
    grep -qa clof-profile-v1 target/release/clof
phase "clof profile --once smoke (clean run)" \
    sh -c 'out=$(./target/release/clof profile --machine armv8 --levels 3 \
                     --lock tkt-clh-tkt --threads 4 --once)
           echo "$out" | grep -q "clof-profile-v1"
           echo "$out" | grep -q "tkt-clh-tkt;L"
           echo "$out" | grep -q "verdict: clean"'
phase "clof profile detects an injected deadlock" \
    sh -c 'if ./target/release/clof profile --machine armv8 --levels 3 \
                  --lock tkt-clh-tkt --threads 4 --once --inject-deadlock \
                  >/dev/null 2>&1; then
               echo "injected 2-cycle was not detected (exit 0)" >&2
               exit 1
           fi'
phase "clof profile detects an injected H-bound inversion" \
    sh -c 'if ./target/release/clof profile --machine armv8 --levels 3 \
                  --lock tkt-clh-tkt --threads 4 --once --inject-inversion \
                  >/dev/null 2>&1; then
               echo "injected inversion was not detected (exit 0)" >&2
               exit 1
           fi'
phase "obs registry lifecycle suite" \
    cargo test -q --features obs --test profile_registry

phase "obs zero-cost dependency check" \
    sh -c 'if cargo tree -e normal | grep -q clof-obs; then
               echo "clof-obs leaked into the default dependency graph" >&2
               exit 1
           fi
           if cargo tree -e normal -p clof-bench | grep -q clof-obs; then
               echo "clof-obs leaked into the default clof-bench graph" >&2
               exit 1
           fi'

# Benchmark phase: the repo's benchmark must keep building offline from
# a clean checkout and produce every declared workload and metric, and
# the telemetry build must stay inside its stated cost budget (both
# operands of each ratio are printed).
phase "benchmark smoke (all workloads, schema check)" bash benchmark/smoke.sh
phase "obs tax gate (handoff <= 2.5x, solo <= 6x)" sh scripts/obs_tax_gate.sh

# Adaptation phase: the hot-swap layer must build and hold the oracle's
# invariants under forced migrations, its deleted-step mutants must die,
# and the default build must carry none of it (symbol and dependency
# checks). Swap-stress tests live in the root test crate, where feature
# unification via clof-testkit already compiles `adapt` into dev builds.
phase "adapt release build (adapt,obs)" cargo build --release --features adapt,obs
phase "adapt swap smoke (forced migrations)" \
    cargo test -q --test stress_oracle -- \
    migration_oracle_cross_tier \
    migration_keeps_the_gap_bounded
phase "adapt handover mutant-kill" \
    cargo test -q -p clof-verify --test mutant_kill -- handover
phase "adapt kvstore hot-swap suite" \
    cargo test -q -p clof-kvstore --features adapt,obs
# Migrations must leave their trail in the audit ring (the /snapshot
# export `clof serve` and the audit tail render from).
phase "adapt audit-ring migration records" \
    cargo test -q -p clof-core --features adapt,obs \
    completed_swap_is_recorded_in_the_audit_ring
# Site identity must survive hot-swaps: the 64-seed swap matrix asserts
# stable site ids, zero registry leaks, and rollback on failed swaps.
phase "adapt registry swap-matrix (site stability)" \
    cargo test -q --features adapt,obs --test profile_registry
phase "adapt clof binary build" \
    cargo build --release -p clof-bench --features adapt,obs
phase "adapt binary carries the adapt marker" \
    grep -qa clof-adapt target/release/clof
phase "clof adapt --once smoke" \
    ./target/release/clof adapt --machine armv8 --levels 3 --threads 4 --once
phase "adapt zero-cost dependency check" \
    sh -c 'if cargo tree -e normal -f "{p} {f}" | grep -qw adapt; then
               echo "the adapt feature leaked into the default dependency graph" >&2
               exit 1
           fi
           if cargo tree -e normal -f "{p} {f}" -p clof-bench | grep -qw adapt; then
               echo "the adapt feature leaked into the default clof-bench graph" >&2
               exit 1
           fi'

# Spin-then-park phase: the waiting layer must build and hold the
# oracle's invariants under 2x/4x oversubscription, its deleted-wake
# mutant must die by the stall panic, the park/wake instrumentation
# must compose with obs, and the default build must carry none of it.
phase "park release build" cargo build --release --features park
phase "park locks unit suite" cargo test -q -p clof-locks --features park
phase "park core suite" cargo test -q -p clof-core --features park
phase "park kvstore suite" cargo test -q -p clof-kvstore --features park
phase "park oversubscribed oracle smoke" \
    cargo test -q --features park --test park_oracle -- \
    forced_park_liveness_no_lost_wakeups \
    gap_bound_holds_across_park_wake_edges \
    budgets_are_leaf_biased_and_runtime_tunable
phase "park mutant-kill (deleted releaser wake)" \
    cargo test -q --features park --test park_mutant
phase "park+obs instrumentation oracle smoke" \
    cargo test -q --features park,obs --test park_oracle -- \
    forced_park_liveness_no_lost_wakeups
phase "park clof binary build" cargo build --release -p clof-bench --features park
phase "park binary carries the park marker" \
    grep -qa clof-park target/release/clof
phase "park zero-cost dependency check" \
    sh -c 'if cargo tree -e normal -f "{p} {f}" | grep -qw park; then
               echo "the park feature leaked into the default dependency graph" >&2
               exit 1
           fi
           if cargo tree -e normal -f "{p} {f}" -p clof-bench | grep -qw park; then
               echo "the park feature leaked into the default clof-bench graph" >&2
               exit 1
           fi'

# Deadline phase: bounded acquisition must build on every base lock,
# the 64-seed timeout/abandonment oracle matrix (plus its park and
# adapt companion cells) must hold mutual exclusion and leak nothing,
# the deleted-abandoned-skip mutant must wedge and be caught, the real
# binary must run the demo, and the default build must carry none of it.
phase "deadline release build" cargo build --release --features deadline
phase "deadline locks unit suite" cargo test -q -p clof-locks --features deadline
phase "deadline core suite" cargo test -q -p clof-core --features deadline
phase "deadline kvstore suite" cargo test -q -p clof-kvstore --features deadline
phase "deadline testkit suite (forced-timeout injection)" \
    cargo test -q -p clof-testkit --features deadline
phase "deadline timeout/abandon oracle matrix" \
    cargo test -q --features deadline --test deadline_oracle
phase "deadline+park oracle (abandonment next to parked waiters)" \
    cargo test -q --features deadline,park --test deadline_oracle -- \
    abandonment_with_parked_neighbours_loses_no_wakeups
phase "deadline+adapt oracle (abandonment across hot-swaps)" \
    cargo test -q --features deadline,adapt --test deadline_oracle -- \
    abandonment_mid_migration_keeps_swaps_and_counts
phase "deadline mutant-kill (deleted abandoned-node skip)" \
    cargo test -q --features deadline --test deadline_mutant
phase "deadline clof binary build" \
    cargo build --release -p clof-bench --features deadline
phase "deadline binary carries the deadline marker" \
    grep -qa clof-deadline target/release/clof
phase "clof deadline --once smoke" \
    ./target/release/clof deadline --machine armv8 --levels 3 --once
phase "deadline zero-cost dependency check" \
    sh -c 'if cargo tree -e normal -f "{p} {f}" | grep -qw deadline; then
               echo "the deadline feature leaked into the default dependency graph" >&2
               exit 1
           fi
           if cargo tree -e normal -f "{p} {f}" -p clof-bench | grep -qw deadline; then
               echo "the deadline feature leaked into the default clof-bench graph" >&2
               exit 1
           fi'

# All four feature layers at once: the combination every layer's docs
# promise ("composes with ...") and no phase above builds.
phase "all-features type check (obs,adapt,park,deadline)" \
    cargo check --features obs,adapt,park,deadline
phase "all-features core suite (obs,adapt,park,deadline)" \
    cargo test -q -p clof-core --features obs,adapt,park,deadline

echo
echo "==== ci: all phases green ===="
