#!/usr/bin/env bash
# Compares the dyn-compose hot path against the recorded pre-PR baseline
# and writes BENCH_PR4.json (median + p99 per benchmark, plus deltas).
#
# The baseline block below was recorded on this host at commit 70d7ff3
# (pre "contention-proportional hot path" PR), with the same bench
# shapes: `handle()` then resolved to the generic enum-dispatch tier,
# the read indicator was a single shared word, and node counters used
# fetch_add. The criterion-lite runner did not yet report p99, so
# baseline p99 entries are null.
#
# Usage: scripts/bench_compare.sh [output.json]
#        scripts/bench_compare.sh --obs [output.json]
#        scripts/bench_compare.sh --profile [output.json]
#        scripts/bench_compare.sh --park [output.json]
#   CLOF_BENCH_MIN_MS / CLOF_BENCH_SAMPLES tune run length (defaults
#   60 ms × 15 samples — long enough for stable medians on small hosts).
#
# `--obs` mode quantifies the observability tax instead: the dyn-pair
# benches run three ways — default build (obs compiled out), obs
# compiled in but idle, and obs compiled in while a sidecar client
# scrapes /metrics at 1 Hz (CLOF_BENCH_SCRAPE_MS) — and the report
# (default BENCH_PR7.json) records all three against the BENCH_PR4.json
# noise bands. The acceptance gate is that the *default* build's
# contended medians stay inside those bands: compiling obs out must
# remain free.
#
# `--park` mode measures the spin-then-park waiting layer into
# BENCH_PR9.json: the dyn pairs plus the oversubscription matrix
# (threads = 1x/2x/4x cores) on the spin-only build and again with
# `--features park`. Gates: at 2x oversubscription the park build's
# headline contended cell (oversub/mcs-clh-tkt/2x) is at least 2x
# faster than spin-only, and at 1x the contended dyn medians stay
# inside the BENCH_PR4.json noise bands on BOTH builds — park must be
# zero-cost when disabled and free of 1x regressions when enabled.
#
# `--profile` mode prices the contention profiler the same way into
# BENCH_PR8.json: default build (profiler compiled out), obs build with
# the profiler recording but unread, and obs build while a sidecar
# scrapes /profile at 1 Hz. Gates: the default build's contended
# medians stay inside the PR4 noise bands, and the scraped-profile
# medians stay within 5% of idle telemetry — reading the profiler must
# cost nothing measurable on the lock hot path.
set -euo pipefail
cd "$(dirname "$0")/.."

export CLOF_BENCH_MIN_MS=${CLOF_BENCH_MIN_MS:-60}
export CLOF_BENCH_SAMPLES=${CLOF_BENCH_SAMPLES:-15}

if [ "${1:-}" = "--obs" ]; then
    shift
    OUT=${1:-BENCH_PR7.json}

    echo ">>> [1/3] dyn pairs, default build (obs compiled out)" >&2
    RAW_OFF=$(cargo bench -p clof-bench --bench locks_micro --features criterion 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_OFF" >&2

    echo ">>> [2/3] dyn pairs, obs compiled in (idle)" >&2
    RAW_ON=$(cargo bench -p clof-bench --bench locks_micro --features criterion,obs 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_ON" >&2

    echo ">>> [3/3] dyn pairs, obs compiled in + 1 Hz /metrics scraper" >&2
    RAW_SCRAPE=$(CLOF_BENCH_SCRAPE_MS=${CLOF_BENCH_SCRAPE_MS:-1000} \
        cargo bench -p clof-bench --bench locks_micro --features criterion,obs 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_SCRAPE" >&2

    RAW_OFF="$RAW_OFF" RAW_ON="$RAW_ON" RAW_SCRAPE="$RAW_SCRAPE" \
        python3 - "$OUT" <<'PYEOF'
import json, os, re, sys

LINE = re.compile(
    r"^(\S+)\s+([\d.]+) ns/iter\s+\(min ([\d.]+), p99 ([\d.]+), "
    r"max ([\d.]+), (\d+) it/sample\)"
)

def parse(raw):
    out = {}
    for line in raw.splitlines():
        m = LINE.match(line.strip())
        if m:
            name, med, mn, p99, mx, iters = m.groups()
            out[name] = {
                "median_ns": float(med),
                "min_ns": float(mn),
                "p99_ns": float(p99),
                "max_ns": float(mx),
                "iters_per_sample": int(iters),
            }
    return out

configs = {
    "obs_off": parse(os.environ["RAW_OFF"]),
    "obs_on_idle": parse(os.environ["RAW_ON"]),
    "obs_on_scraped_1hz": parse(os.environ["RAW_SCRAPE"]),
}

with open("BENCH_PR4.json") as f:
    pr4 = json.load(f)["after"]

report = {
    "benchmark": "locks_micro: dyn-pair observability tax",
    "note": (
        "Same dyn-pair shapes as BENCH_PR4.json, run three ways: default "
        "build (obs compiled out), obs compiled in but idle, and obs "
        "compiled in while a sidecar scrapes /metrics at 1 Hz. Gate: the "
        "default build's contended medians stay inside the PR4 noise "
        "bands (min..max, +15% host slack) — compiling obs out is free."
    ),
    "pr4_noise_bands": {
        name: {"min_ns": m["min_ns"], "median_ns": m["median_ns"], "max_ns": m["max_ns"]}
        for name, m in pr4.items()
        if name.startswith("dyn/")
    },
    "configs": configs,
    "obs_tax_median_pct": {},
}

failures = []
for name, off in configs["obs_off"].items():
    if not name.endswith("/contended"):
        continue
    on = configs["obs_on_idle"].get(name)
    scraped = configs["obs_on_scraped_1hz"].get(name)
    if on is None or scraped is None:
        failures.append(f"missing obs-on measurement for {name}")
        continue
    report["obs_tax_median_pct"][name] = {
        "obs_on_idle": round(100.0 * (on["median_ns"] - off["median_ns"]) / off["median_ns"], 1),
        "obs_on_scraped_1hz": round(
            100.0 * (scraped["median_ns"] - off["median_ns"]) / off["median_ns"], 1
        ),
    }
    band = pr4.get(name)
    if band is None:
        failures.append(f"{name}: no PR4 noise band recorded")
        continue
    lo, hi = band["min_ns"] * 0.85, band["max_ns"] * 1.15
    if not (lo <= off["median_ns"] <= hi):
        failures.append(
            f"{name}: default-build median {off['median_ns']:.1f} ns outside "
            f"PR4 noise band [{lo:.1f}, {hi:.1f}]"
        )

out = sys.argv[1]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f">>> wrote {out}", file=sys.stderr)
for name, tax in sorted(report["obs_tax_median_pct"].items()):
    print(
        f"    {name:<36} idle {tax['obs_on_idle']:+6.1f}%   "
        f"scraped {tax['obs_on_scraped_1hz']:+6.1f}%",
        file=sys.stderr,
    )
if failures:
    print(">>> FAILED acceptance gate:", file=sys.stderr)
    for f_ in failures:
        print(f"    {f_}", file=sys.stderr)
    sys.exit(1)
print(
    ">>> acceptance gate passed (default-build contended medians inside PR4 noise bands)",
    file=sys.stderr,
)
PYEOF
    exit 0
fi

if [ "${1:-}" = "--park" ]; then
    shift
    OUT=${1:-BENCH_PR9.json}

    # Many short samples instead of few long ones: each reported sample
    # is a *mean* over its iterations, so a 60 ms sample on a shared
    # host always absorbs scheduler preemption spikes and the
    # cross-sample median cannot reject them. With 15 ms samples a
    # spike lands in one or two samples out of 31 and the median
    # discards them — what is left is the cost of the code under test,
    # which is the thing the PR4 noise bands are about.
    export CLOF_BENCH_MIN_MS=15 CLOF_BENCH_SAMPLES=31

    echo ">>> [1/2] dyn pairs + oversub matrix, spin-only build (park compiled out)" >&2
    RAW_SPIN=$(cargo bench -p clof-bench --bench locks_micro --features criterion 2>/dev/null \
        | grep -E '^(dyn|oversub)/')
    echo "$RAW_SPIN" >&2

    echo ">>> [2/2] dyn pairs + oversub matrix, park build (spin-then-park waiting)" >&2
    RAW_PARK=$(cargo bench -p clof-bench --bench locks_micro --features criterion,park 2>/dev/null \
        | grep -E '^(dyn|oversub)/')
    echo "$RAW_PARK" >&2

    RAW_SPIN="$RAW_SPIN" RAW_PARK="$RAW_PARK" \
        python3 - "$OUT" <<'PYEOF'
import json, os, re, sys

LINE = re.compile(
    r"^(\S+)\s+([\d.]+) ns/iter\s+\(min ([\d.]+), p99 ([\d.]+), "
    r"max ([\d.]+), (\d+) it/sample\)"
)

def parse(raw):
    out = {}
    for line in raw.splitlines():
        m = LINE.match(line.strip())
        if m:
            name, med, mn, p99, mx, iters = m.groups()
            out[name] = {
                "median_ns": float(med),
                "min_ns": float(mn),
                "p99_ns": float(p99),
                "max_ns": float(mx),
                "iters_per_sample": int(iters),
            }
    return out

configs = {
    "spin_only": parse(os.environ["RAW_SPIN"]),
    "park": parse(os.environ["RAW_PARK"]),
}

with open("BENCH_PR4.json") as f:
    pr4 = json.load(f)["after"]

report = {
    "benchmark": "locks_micro: spin-then-park under oversubscription",
    "note": (
        "Dyn pairs plus the oversubscription matrix (threads = 1x/2x/4x "
        "cores, same composed shapes) on the spin-only build and with "
        "--features park. Gates: oversub/mcs-clh-tkt/2x at least 2x "
        "faster with park, and contended dyn medians inside the PR4 "
        "noise bands (min..max, +15% host slack) on both builds."
    ),
    "pr4_noise_bands": {
        name: {"min_ns": m["min_ns"], "median_ns": m["median_ns"], "max_ns": m["max_ns"]}
        for name, m in pr4.items()
        if name.startswith("dyn/")
    },
    "configs": configs,
    "park_speedup": {},
}

failures = []

# Oversubscription speedups (spin median / park median, >1 = park wins).
for name, spin in sorted(configs["spin_only"].items()):
    if not name.startswith("oversub/"):
        continue
    parkm = configs["park"].get(name)
    if parkm is None:
        failures.append(f"missing park measurement for {name}")
        continue
    report["park_speedup"][name] = round(spin["median_ns"] / parkm["median_ns"], 2)

headline = "oversub/mcs-clh-tkt/2x"
speedup = report["park_speedup"].get(headline)
if speedup is None:
    failures.append(f"missing headline cell {headline}")
elif speedup < 2.0:
    failures.append(
        f"{headline}: park speedup {speedup:.2f}x (gate: >= 2x over spin-only)"
    )

# 1x gates: contended dyn medians inside the PR4 noise bands, both builds.
for config in ("spin_only", "park"):
    for name, m in configs[config].items():
        if not (name.startswith("dyn/") and name.endswith("/contended")):
            continue
        band = pr4.get(name)
        if band is None:
            failures.append(f"{name}: no PR4 noise band recorded")
            continue
        lo, hi = band["min_ns"] * 0.85, band["max_ns"] * 1.15
        if not (lo <= m["median_ns"] <= hi):
            failures.append(
                f"{name} [{config}]: median {m['median_ns']:.1f} ns outside "
                f"PR4 noise band [{lo:.1f}, {hi:.1f}]"
            )

out = sys.argv[1]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f">>> wrote {out}", file=sys.stderr)
for name, s in sorted(report["park_speedup"].items()):
    print(f"    {name:<32} park speedup {s:6.2f}x", file=sys.stderr)
if failures:
    print(">>> FAILED acceptance gate:", file=sys.stderr)
    for f_ in failures:
        print(f"    {f_}", file=sys.stderr)
    sys.exit(1)
print(
    ">>> acceptance gate passed (2x-oversubscribed headline >= 2x; 1x medians inside PR4 bands)",
    file=sys.stderr,
)
PYEOF
    exit 0
fi

if [ "${1:-}" = "--profile" ]; then
    shift
    OUT=${1:-BENCH_PR8.json}

    echo ">>> [1/3] dyn pairs, default build (profiler compiled out)" >&2
    RAW_OFF=$(cargo bench -p clof-bench --bench locks_micro --features criterion 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_OFF" >&2

    echo ">>> [2/3] dyn pairs, obs build (profiler recording, unread)" >&2
    RAW_IDLE=$(cargo bench -p clof-bench --bench locks_micro --features criterion,obs 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_IDLE" >&2

    echo ">>> [3/3] dyn pairs, obs build + 1 Hz /profile scraper" >&2
    RAW_SCRAPE=$(CLOF_BENCH_SCRAPE_MS=${CLOF_BENCH_SCRAPE_MS:-1000} \
        CLOF_BENCH_SCRAPE_PATH=/profile \
        cargo bench -p clof-bench --bench locks_micro --features criterion,obs 2>/dev/null \
        | grep -E '^dyn/')
    echo "$RAW_SCRAPE" >&2

    RAW_OFF="$RAW_OFF" RAW_IDLE="$RAW_IDLE" RAW_SCRAPE="$RAW_SCRAPE" \
        python3 - "$OUT" <<'PYEOF'
import json, os, re, sys

LINE = re.compile(
    r"^(\S+)\s+([\d.]+) ns/iter\s+\(min ([\d.]+), p99 ([\d.]+), "
    r"max ([\d.]+), (\d+) it/sample\)"
)

def parse(raw):
    out = {}
    for line in raw.splitlines():
        m = LINE.match(line.strip())
        if m:
            name, med, mn, p99, mx, iters = m.groups()
            out[name] = {
                "median_ns": float(med),
                "min_ns": float(mn),
                "p99_ns": float(p99),
                "max_ns": float(mx),
                "iters_per_sample": int(iters),
            }
    return out

configs = {
    "profiler_off": parse(os.environ["RAW_OFF"]),
    "obs_idle_telemetry": parse(os.environ["RAW_IDLE"]),
    "profile_scraped_1hz": parse(os.environ["RAW_SCRAPE"]),
}

with open("BENCH_PR4.json") as f:
    pr4 = json.load(f)["after"]

report = {
    "benchmark": "locks_micro: dyn-pair contention-profiler tax",
    "note": (
        "Same dyn-pair shapes as BENCH_PR4.json, run three ways: default "
        "build (profiler compiled out), obs build with the profiler "
        "recording but never read, and obs build while a sidecar scrapes "
        "/profile at 1 Hz. Gates: default-build contended medians inside "
        "the PR4 noise bands (min..max, +15% host slack), and scraping "
        "the profiler within 5% of idle telemetry."
    ),
    "pr4_noise_bands": {
        name: {"min_ns": m["min_ns"], "median_ns": m["median_ns"], "max_ns": m["max_ns"]}
        for name, m in pr4.items()
        if name.startswith("dyn/")
    },
    "configs": configs,
    "profiler_tax_median_pct": {},
}

failures = []
for name, off in configs["profiler_off"].items():
    if not name.endswith("/contended"):
        continue
    idle = configs["obs_idle_telemetry"].get(name)
    scraped = configs["profile_scraped_1hz"].get(name)
    if idle is None or scraped is None:
        failures.append(f"missing obs measurement for {name}")
        continue
    scraped_over_idle = 100.0 * (scraped["median_ns"] - idle["median_ns"]) / idle["median_ns"]
    report["profiler_tax_median_pct"][name] = {
        "obs_idle_over_default": round(
            100.0 * (idle["median_ns"] - off["median_ns"]) / off["median_ns"], 1
        ),
        "scraped_over_idle": round(scraped_over_idle, 1),
    }
    band = pr4.get(name)
    if band is None:
        failures.append(f"{name}: no PR4 noise band recorded")
        continue
    lo, hi = band["min_ns"] * 0.85, band["max_ns"] * 1.15
    if not (lo <= off["median_ns"] <= hi):
        failures.append(
            f"{name}: default-build median {off['median_ns']:.1f} ns outside "
            f"PR4 noise band [{lo:.1f}, {hi:.1f}]"
        )
    if scraped_over_idle > 5.0:
        failures.append(
            f"{name}: scraping /profile costs {scraped_over_idle:+.1f}% over "
            f"idle telemetry (gate: <= +5%)"
        )

out = sys.argv[1]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f">>> wrote {out}", file=sys.stderr)
for name, tax in sorted(report["profiler_tax_median_pct"].items()):
    print(
        f"    {name:<36} idle-vs-default {tax['obs_idle_over_default']:+6.1f}%   "
        f"scraped-vs-idle {tax['scraped_over_idle']:+6.1f}%",
        file=sys.stderr,
    )
if failures:
    print(">>> FAILED acceptance gate:", file=sys.stderr)
    for f_ in failures:
        print(f"    {f_}", file=sys.stderr)
    sys.exit(1)
print(
    ">>> acceptance gate passed (default inside PR4 bands; profile scrape <= 5% over idle)",
    file=sys.stderr,
)
PYEOF
    exit 0
fi

OUT=${1:-BENCH_PR4.json}

echo ">>> running locks_micro (dyn pairs) with min_ms=$CLOF_BENCH_MIN_MS samples=$CLOF_BENCH_SAMPLES" >&2
RAW=$(cargo bench -p clof-bench --bench locks_micro --features criterion 2>/dev/null \
    | grep -E '^(dyn|compose)/')
echo "$RAW" >&2

RAW="$RAW" python3 - "$OUT" <<'PYEOF'
import json, os, re, sys

BASELINE = {
    # name: (median_ns, min_ns, max_ns) — recorded pre-PR at 70d7ff3.
    "compose/dyn/mcs-clh-tkt":      (108.0, 104.6, 114.1),
    "dyn/mcs-clh-tkt/uncontended":  (110.7, 100.3, 121.5),
    "dyn/mcs-clh-tkt/contended":    (109.8, 106.7, 114.5),
    "dyn/clh-clh-tkt/uncontended":  (104.1,  98.7, 111.9),
    "dyn/clh-clh-tkt/contended":    (105.8, 101.9, 108.3),
    "dyn/tkt-tkt-tkt/uncontended":  (101.3,  95.5, 114.1),
    "dyn/tkt-tkt-tkt/contended":    (101.2,  94.3, 102.5),
}

LINE = re.compile(
    r"^(\S+)\s+([\d.]+) ns/iter\s+\(min ([\d.]+), p99 ([\d.]+), "
    r"max ([\d.]+), (\d+) it/sample\)"
)

after = {}
for line in os.environ["RAW"].splitlines():
    m = LINE.match(line.strip())
    if m:
        name, med, mn, p99, mx, iters = m.groups()
        after[name] = {
            "median_ns": float(med),
            "min_ns": float(mn),
            "p99_ns": float(p99),
            "max_ns": float(mx),
            "iters_per_sample": int(iters),
        }

report = {
    "benchmark": "locks_micro: dyn-compose hot-path pairs",
    "baseline_commit": "70d7ff3",
    "note": (
        "Baseline: generic enum dispatch, single-word read indicator, "
        "fetch_add node counters. After: monomorphized finalist tier, "
        "striped cache-line-isolated indicator, owner-only counters. "
        "Same host, same bench shapes."
    ),
    "baseline": {
        name: {"median_ns": med, "min_ns": mn, "p99_ns": None, "max_ns": mx}
        for name, (med, mn, mx) in BASELINE.items()
    },
    "after": after,
    "delta_median_pct": {},
}

failures = []
for name, base in BASELINE.items():
    if name not in after:
        failures.append(f"missing after-measurement for {name}")
        continue
    delta = 100.0 * (after[name]["median_ns"] - base[0]) / base[0]
    report["delta_median_pct"][name] = round(delta, 1)

# Acceptance gate: contended finalists must improve >= 15% median.
for name, delta in report["delta_median_pct"].items():
    if name.endswith("/contended") and delta > -15.0:
        failures.append(f"{name}: {delta:+.1f}% (needs <= -15%)")

out = sys.argv[1]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f">>> wrote {out}", file=sys.stderr)
for name, delta in sorted(report["delta_median_pct"].items()):
    print(f"    {name:<36} {delta:+6.1f}%", file=sys.stderr)
if failures:
    print(">>> FAILED acceptance gate:", file=sys.stderr)
    for f_ in failures:
        print(f"    {f_}", file=sys.stderr)
    sys.exit(1)
print(">>> acceptance gate passed (contended medians improved >= 15%)", file=sys.stderr)
PYEOF
