#!/usr/bin/env sh
# Gates what compiling `obs` in costs an uncontended acquire and a
# hand-off: reads `obs.tax.{handoff,solo}_ratio` and their operands from
# a traced run of the repo's benchmark and fails above the budget.
#
#   sh scripts/obs_tax_gate.sh        (from the root of the repo)
#
# The ratios divide a cell of the `--features obs` binary by the same
# cell of the default binary. Interference on a shared host only ever
# slows a cell — and slows the obs cell more, since it reads the clock —
# so a run over budget is repeated (three attempts in all) before the
# gate fails.
set -eu

HANDOFF_BUDGET=2.5
SOLO_BUDGET=6

out="${CARGO_TARGET_DIR:-benchmark/target}/smoke/tax.json"
mkdir -p "$(dirname "$out")"

# The value of metric $1 in the pretty-printed result file.
value() {
    awk -v key="\"$1\":" '$1 == key { getline; gsub(/,/, "", $2); print $2; exit }' "$out"
}

within() {
    awk -v ratio="$1" -v budget="$2" 'BEGIN { exit !(ratio + 0 > 0 && ratio + 0 <= budget + 0) }'
}

attempt=1
while :; do
    bash benchmark/run.sh --workload lock_pass_2t_obs --seed "$attempt" --seconds 15 \
        --trace 1 --out "$out" >/dev/null
    handoff=$(value obs.tax.handoff_ratio)
    solo=$(value obs.tax.solo_ratio)
    echo "obs tax, attempt $attempt:"
    echo "  handoff ${handoff}x = obs $(value obs.dynlock.fast.handoff_ns) ns / default $(value core.dynlock.fast.handoff_ns) ns (budget ${HANDOFF_BUDGET}x)"
    echo "  solo    ${solo}x = obs $(value obs.dynlock.fast.solo_ns) ns / default $(value core.dynlock.fast.solo_ns) ns (budget ${SOLO_BUDGET}x)"
    echo "  obs.snapshot_ns $(value obs.snapshot_ns)"
    if within "$handoff" "$HANDOFF_BUDGET" && within "$solo" "$SOLO_BUDGET"; then
        exit 0
    fi
    if [ "$attempt" -ge 3 ]; then
        echo "obs tax over budget on three runs" >&2
        exit 1
    fi
    attempt=$((attempt + 1))
done
