#!/usr/bin/env sh
# Offline CI gate for the CLoF workspace.
#
# Runs, in order:
#   1. tier-1: `cargo build --release && cargo test -q` (the default
#      members: the root package, including the level-step mutant-kill
#      `tests/step_mutant.rs`, and clof-ffi's C-ABI suite);
#   2. the clof-testkit unit suite (property engine + oracle self-tests),
#      then a structural check that the paper's level step is spelled
#      once: each protocol primitive of `LevelMeta`, and each of its
#      release-decision counters (`count_pass`, `count_release_up`,
#      `count_forced`, `count_unwound`: only the step counts), has at
#      most one non-test call site in crates/core/src outside level.rs,
#      and one
#      that the waiting policy is too: no non-test `spin_loop()` /
#      `yield_now()` in crates/{locks,core,baselines,kvstore}/src outside
#      spin.rs and chaos.rs, and no `with_limit`; and one that a lock's
#      wait is spelled once: `cfg(not(feature = "park"))` appears only in
#      crates/locks/src/park.rs and crates/core/src/level.rs (`ParkSpot`
#      and `WaitWord` exist in every build), and crates/core/src/fastpath.rs
#      has no `feature = "park"` and no `.swap(true` (its gate is a
#      `TtasLock`, the one TAS); and one that telemetry is spelled once:
#      at most 8 `feature = "obs"` sites in crates/core/src (the
#      `telemetry` module picks the recorder; the rest are the clof-obs
#      re-export and obs-only tests), no `cfg(not(feature = "obs"))`
#      there, and no seqlock publish (`fence(Ordering::Release)`) in
#      crates/obs/src outside ring.rs; then the policy's two
#      clocked checks, each alone in a release build — the lateness
#      contract (`crates/locks/tests/lateness.rs`) and the
#      oversubscription guard (`tests/oversubscribed.rs`) — and, beside
#      them, the base locks' owner-switch check
#      (`crates/locks/tests/switches.rs`: ns/op, switch ratio and ns per
#      switch of two pinned threads; in their best round the FIFO locks
#      switch owner on at least 80 % of acquires);
#   3. a 16-seed smoke subset of the schedule-fuzzing stress oracle,
#      a structural check that the `deadline` feature stays gone
#      (no `feature = "deadline"` in the sources or any Cargo.toml: one
#      protocol per lock, so the code that ships is the code the
#      deadline oracle checks), and one that the library opens no
#      sockets (no `std::net` in crates/*/src or src/);
#   4. the default-build `clof` binary, asserted free of tracer symbols
#      (the "traceEvents" exporter string only exists behind `obs`) —
#      checked before any obs build can overwrite the binary;
#   5. the obs phase: telemetry release build, the telemetry-vs-oracle
#      suite, the trace-vs-oracle and histogram property suites, a
#      16-seed oracle smoke with telemetry on, kvstore windowed stats, a
#      `clof top --once` smoke, a `clof trace` export/analyze
#      round-trip, the contention
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
#      run, must stay within 2.1x and 5.4x of the default build);
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
#      instrumentation compiled in beside the per-site park attribution
#      test, and the zero-cost assertions that
#      the default binary carries no "clof-park" marker and the default
#      dependency graph enables the `park` feature nowhere;
#   8. the per-crate suites and the deadline phase (deadlines are part
#      of every build): the locks/core/kvstore suites that carry the
#      deadline unit tests (testkit's ran in phase 2), the topology,
#      sim and baselines unit suites, the
#      `leveldb_readrandom` example (it asserts every key is found under
#      7 lock choices), the `locality_stats` example (it asserts the
#      derived per-level acquisitions add up), a `clof deadline
#      --once` smoke against
#      the default binary, and the timeout/abandonment oracle's park and
#      adapt companion cells (the matrix itself and the
#      deleted-abandoned-skip mutant-kill already ran in tier-1);
#   9. every combination of the three feature layers (`obs`, `adapt`,
#      `park`; 8 builds): the workspace and all its targets type-check
#      under `-D warnings`, and the 16-seed oracle smoke passes; with all
#      three on, the core suite passes too;
#  10. the workspace's rustdoc builds warning-free
#      (`RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps`),
#      and clippy, with every feature and target, finds no `unsafe`
#      block without a `SAFETY:` comment and no unsafe operation in an
#      `unsafe fn` outside an `unsafe {}` block (only those two lints
#      are checked);
#  11. the tier-1 test binaries under AddressSanitizer (nightly
#      `-Zsanitizer=address`). Only `step_mutant` and `deadline_mutant`
#      run with `ASAN_OPTIONS=detect_leaks=0`: each wedges a lock on
#      purpose and leaks its queue nodes rather than free memory a
#      waiter may still point into. Every other report fails the phase.
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
# copy of the protocol, and a second call site of a decision counter a
# second count of one decision (comments and `#[cfg(test)]` modules
# don't count).
phase "level step is spelled once" \
    sh -c 'status=0
           for call in "pass_high_lock()" "keep_local()" "clear_high_lock()" \
                       "inc_waiters(" "dec_waiters(" "count_pass()" \
                       "count_release_up()" "count_forced()" "count_unwound()"; do
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

# Telemetry lives in crates/core/src/telemetry.rs: it alone knows whether
# `obs` is compiled in (the other sites are the crate's re-export of
# clof-obs and obs-only tests), and no `()` twin of it is spelled with
# `cfg(not(...))`. In clof-obs, ring.rs holds the one seqlock: the odd
# sequence store and the Release fence after it appear nowhere else.
phase "telemetry is spelled once" \
    sh -c 'status=0
           sites=$(cat crates/core/src/*.rs | grep -cF "feature = \"obs\"" || true)
           echo "feature = \"obs\": $sites site(s) in crates/core/src (at most 8)"
           [ "$sites" -le 8 ] || status=1
           if grep -nF "cfg(not(feature = \"obs\"))" crates/core/src/*.rs; then
               echo "a second, non-obs spelling of telemetry is back" >&2
               status=1
           fi
           for file in crates/obs/src/*.rs; do
               [ "${file##*/}" = ring.rs ] && continue
               if grep -nE "fence\((Ordering::)?Release\)" "$file"; then
                   echo "$file: a seqlock publish outside ring.rs" >&2
                   status=1
               fi
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
# One wait per lock: the waiting layer's types exist in every build and
# compile to the plain `Backoff` poll without `park`, so no lock carries
# a second, non-park copy of its wait — only park.rs and level.rs (the
# per-level budget cell) say what the default build does instead. The
# fast path's gate is a `TtasLock`, not a hand-rolled second TAS.
phase "a lock's wait is spelled once" \
    sh -c 'status=0
           for file in $(grep -rlF --include="*.rs" "cfg(not(feature = \"park\"))" \
                             crates src tests examples); do
               case "$file" in
                   crates/locks/src/park.rs | crates/core/src/level.rs) continue ;;
               esac
               echo "$file: a second, non-park spelling of a wait" >&2
               status=1
           done
           if grep -nF "feature = \"park\"" crates/core/src/fastpath.rs; then
               echo "fastpath.rs: the gate waits through TtasLock in every build" >&2
               status=1
           fi
           if grep -nF ".swap(true" crates/core/src/fastpath.rs; then
               echo "fastpath.rs: a hand-rolled test-and-set is back" >&2
               status=1
           fi
           exit $status'
# The policy on the clock (`#[ignore]`d: they need the host to themselves).
phase "waiting policy: grant-to-return lateness" \
    cargo test --release -q -p clof-locks --test lateness -- --ignored --test-threads=1
phase "waiting policy: oversubscription guard (8 threads, 2 CPUs)" \
    cargo test --release -q --test oversubscribed -- --ignored --test-threads=1
phase "base locks: owner switches per hand-off (2 pinned threads)" \
    cargo test --release -q -p clof-locks --test switches -- --ignored --test-threads=1 --nocapture

# Memory-layout assertions are `const _: () = assert!(...)` blocks in
# clof-locks (CachePadded, lock-word padding), clof-core (LevelMeta
# stripe/owner isolation; the owner block, release-decision counters
# included, is one line also with the dyn tiers' enum context) and —
# in the `obs` build — clof-obs (one 128-byte line per thread in the
# stuck-thread table's `ThreadCell`, line-aligned telemetry `Shard`s and
# level cells): they fail these *builds*, not a test run, so compiling
# the crates under every feature mix is the whole check.
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

# One protocol per lock: bounded acquisition is not a build option, so
# the blocking-only twin of a lock cannot come back behind a feature.
phase "no deadline feature" \
    sh -c 'if grep -rn --include="*.rs" "feature = \"deadline\"" crates tests src examples ||
              find . -name Cargo.toml -not -path "*/target/*" |
                  xargs grep -nE "^ *deadline *=|\"([a-z-]+/)?deadline\""; then
               echo "the deadline feature is back" >&2
               exit 1
           fi'
# A lock library opens no sockets: to serve a snapshot, embed
# `render_prometheus` behind your own handler.
phase "the library opens no sockets" \
    sh -c 'if grep -rn "std::net" crates/*/src src; then
               echo "std::net is back in a library source" >&2
               exit 1
           fi'

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
# Telemetry phase: everything above must also hold with `obs` compiled
# in, and the default build must not even link clof-obs (zero-cost when
# disabled — checked on the dependency graph, where it is structural).
phase "obs release build" cargo build --release --features obs
phase "obs unit suite (clof-obs)" cargo test -q -p clof-obs
phase "obs telemetry-vs-oracle suite" \
    cargo test -q --features obs --test obs_stats
phase "obs trace-vs-oracle + histogram properties" \
    cargo test -q --features obs --test trace_oracle --test obs_hist_props
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
phase "clof top --once smoke" \
    ./target/release/clof top --machine armv8 --levels 3 --lock tkt-clh-tkt \
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
phase "obs tax gate (handoff <= 2.1x, solo <= 5.4x)" sh scripts/obs_tax_gate.sh

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
# Migrations must leave their trail in the audit ring (the audit tail
# `clof top` and `clof adapt` print).
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
phase "park+obs instrumentation oracle smoke + per-site park attribution" \
    cargo test -q --features park,obs --test park_oracle -- \
    forced_park_liveness_no_lost_wakeups \
    parks_are_attributed_to_the_waiting_site
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

# Deadline phase: bounded acquisition is part of every lock's one
# protocol, so its unit suites run in the default build and the real
# binary runs the demo as shipped. The 64-seed timeout/abandonment
# oracle matrix and the deleted-abandoned-skip mutant-kill are tier-1
# tests; here only their park and adapt companion cells are added.
phase "per-crate suites (locks/core/kvstore deadline tests)" \
    cargo test -q -p clof-locks -p clof-core -p clof-kvstore
# The crates no other phase tests: the topology model, the simulator and
# the baseline locks (HMCS, CNA, ShflLock).
phase "crate unit suites (topology, sim, baselines)" \
    cargo test -q -p clof-topology -p clof-sim -p clof-baselines
# MiniDb's point lookups end to end, through the hash-indexed memtable
# and the fenced run search: the example asserts that every key is found
# by 4 readers across a memtable and 2 runs, under each of its 7 lock
# choices.
phase "leveldb readrandom example (every key found, 7 locks)" \
    cargo run -q --release --example leveldb_readrandom
# The dyn tiers count release decisions and derive acquisitions: the
# example asserts, after a packed and a spread run, that each level
# below the root decided once per acquisition, that the root was
# acquired once per release up below it, and that every section counted.
phase "locality stats example (derived acquisitions add up)" \
    cargo run -q --release --example locality_stats
phase "default clof binary build (deadline demo)" cargo build --release -p clof-bench
phase "clof deadline --once smoke" \
    ./target/release/clof deadline --machine armv8 --levels 3 --once
phase "deadline+park oracle (abandonment next to parked waiters)" \
    cargo test -q --features park --test deadline_oracle -- \
    abandonment_with_parked_neighbours_loses_no_wakeups
phase "deadline+adapt oracle (abandonment across hot-swaps)" \
    cargo test -q --features adapt --test deadline_oracle -- \
    abandonment_mid_migration_keeps_swaps_and_counts

# Every combination of the three feature layers — the combinations each
# layer's docs promise ("composes with ...") and no phase above builds
# all of: the workspace with all its targets type-checks warning-free,
# and the oracle smoke holds.
for features in "" obs adapt park obs,adapt obs,park adapt,park obs,adapt,park; do
    label="${features:-default}"
    phase "feature matrix [$label]: check under -D warnings" \
        env RUSTFLAGS="-D warnings" \
        cargo check -q --workspace --all-targets --features "$features"
    phase "feature matrix [$label]: oracle smoke (16 seeds)" \
        cargo test -q --features "$features" --test stress_oracle -- \
        broken_lock_is_caught_with_replayable_seed \
        oracle_matrix_ticket
done
phase "feature matrix [obs,adapt,park]: core suite" \
    cargo test -q -p clof-core --features obs,adapt,park

# Broken intra-doc links and doc-output collisions fail the build, not
# just print a warning nobody reads.
phase "rustdoc is warning-free" \
    env RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# Every `unsafe` says why it is sound, and an `unsafe fn` body is not an
# implicit unsafe block.
phase "unsafe is documented (clippy)" \
    cargo clippy -q --offline --workspace --all-targets --all-features -- \
    -A clippy::all -D clippy::undocumented_unsafe_blocks -D unsafe_op_in_unsafe_fn

# Tier-1 under AddressSanitizer. The two mutant-kill tests wedge a lock
# on purpose and leak what its waiters may still point into; they alone
# run without leak detection. Any other report is a finding, not noise.
ASAN_TARGET=x86_64-unknown-linux-gnu
ASAN_TESTS=""
for file in tests/*.rs; do
    name=$(basename "$file" .rs)
    case "$name" in step_mutant | deadline_mutant) continue ;; esac
    ASAN_TESTS="$ASAN_TESTS --test $name"
done
# shellcheck disable=SC2086 # ASAN_TESTS is intentionally word-split
phase "ASan: tier-1 test binaries" \
    env RUSTFLAGS="-Zsanitizer=address" \
    cargo +nightly test -q --target "$ASAN_TARGET" -p clof-suite -p clof-ffi \
    --lib $ASAN_TESTS
phase "ASan: step_mutant and deadline_mutant (leaks are deliberate)" \
    env RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS=detect_leaks=0 \
    cargo +nightly test -q --target "$ASAN_TARGET" -p clof-suite \
    --test step_mutant --test deadline_mutant

echo
echo "==== ci: all phases green ===="
