#!/usr/bin/env sh
# Benchmark snapshot + host-drift-robust regression gate.
#
#   scripts/bench.sh [OUT] [BASELINE]   # snapshot to OUT, gate against BASELINE
#   scripts/bench.sh --gate-selftest    # exercise the gate math on synthetic JSON
#
# Runs the per-policy throughput bench and the kernel microbenchmarks in
# release mode and collects every reported metric into OUT, plus
# `loc/rust`, the non-blank line count of the tracked Rust sources
# (informational, not gated). Both defaults
# follow the highest committed snapshot BENCH_N.json: OUT defaults to
# BENCH_<N+1>.json at the repo root (so a bare run never overwrites a
# committed snapshot) and BASELINE to BENCH_N.json. If BASELINE exists,
# the BC events/s regression gate runs afterwards.
#
# The gate is a same-run paired A/B: every snapshot also records
# `policy/host_reference`, a pinned pure-ALU kernel whose ns/iter depends
# only on the host, benched immediately before and after the policy runs
# in the same binary (mean of the two brackets; `kernel/host_reference`
# is the fallback for snapshots without it). The gate compares
# HOST-NORMALIZED throughput
#
#     (cur_bc / base_bc) * (cur_ref_ns / base_ref_ns) >= 0.90
#
# so a machine that is globally 15% slower today (thermal state, turbo,
# noisy neighbour) moves both factors oppositely and cancels out, while a
# true simulator regression moves only the first factor and still fails.
# BENCH_7's 0.86x-vs-BENCH_5 "regression" was exactly such host drift;
# baselines that predate the reference kernel (BENCH_5/BENCH_7) cannot be
# normalized, so the gate explicitly SKIPs rather than false-failing.
#
# The bench harness pins the sweep executor to one job, so the numbers
# measure the kernels rather than the machine's core count; the JSON
# records that alongside the git revision so snapshots from different
# checkouts stay comparable.
set -eu
cd "$(dirname "$0")/.."

GATE_FLOOR="0.90"

# metric FILE NAME -> prints the "value" of metric NAME in snapshot FILE,
# or nothing when absent. The snapshots are one-metric-per-line JSON
# written by this script, so a line-oriented extractor is exact.
metric() {
    awk -v name="\"$2\":" '
        index($0, name) {
            if (match($0, /"value": [-0-9.eE+]+/)) {
                print substr($0, RSTART + 9, RLENGTH - 9)
                exit
            }
        }
    ' "$1"
}

# host_ref FILE -> the host-reference ns/iter of a snapshot, preferring
# the policies-bench bracket (measured in the same binary, same time
# window as the gated numbers) over the kernels-bench fallback.
host_ref() {
    v=$(metric "$1" "policy/host_reference")
    [ -n "$v" ] || v=$(metric "$1" "kernel/host_reference")
    printf '%s' "$v"
}

# gate CUR BASE -> 0 pass, 1 fail, 0 with a warning when un-normalizable.
gate() {
    cur="$1" base="$2"
    cur_bc=$(metric "$cur" "policy/BC/events_per_sec")
    base_bc=$(metric "$base" "policy/BC/events_per_sec")
    cur_ref=$(host_ref "$cur")
    base_ref=$(host_ref "$base")
    if [ -z "$cur_bc" ] || [ -z "$base_bc" ]; then
        echo "bench gate: SKIP ($base or $cur lacks policy/BC/events_per_sec)"
        return 0
    fi
    if [ -z "$base_ref" ] || [ -z "$cur_ref" ]; then
        echo "bench gate: SKIP (no host_reference metric in $base -- a raw" \
             "cross-run comparison against it would gate on host speed drift," \
             "not on the code; re-snapshot with this script to arm the gate)"
        return 0
    fi
    ratio=$(awk -v cb="$cur_bc" -v bb="$base_bc" -v cr="$cur_ref" -v br="$base_ref" \
        'BEGIN { printf "%.4f", (cb / bb) * (cr / br) }')
    raw=$(awk -v cb="$cur_bc" -v bb="$base_bc" 'BEGIN { printf "%.4f", cb / bb }')
    host=$(awk -v cr="$cur_ref" -v br="$base_ref" 'BEGIN { printf "%.4f", br / cr }')
    echo "bench gate: BC events/s raw ${raw}x, host ${host}x baseline ->" \
         "normalized ${ratio}x (floor $GATE_FLOOR)"
    if awk -v r="$ratio" -v f="$GATE_FLOOR" 'BEGIN { exit !(r >= f) }'; then
        echo "bench gate: PASS"
        return 0
    fi
    echo "bench gate: FAIL -- host-normalized BC throughput ${ratio}x < $GATE_FLOOR" \
         "vs $base (this is a code regression, not machine drift)"
    return 1
}

# synth FILE BC REF [NAME] -> a minimal snapshot for the self-test; REF
# may be "-" to synthesize a pre-reference-kernel baseline like BENCH_7,
# and NAME overrides the reference metric name (default the bracketed
# policies one).
synth() {
    {
        printf '{\n  "metrics": {\n'
        printf '    "policy/BC/events_per_sec": { "value": %s, "unit": "events/s" }' "$2"
        if [ "$3" != "-" ]; then
            printf ',\n    "%s": { "value": %s, "unit": "ns/iter" }' \
                "${4:-policy/host_reference}" "$3"
        fi
        printf '\n  }\n}\n'
    } > "$1"
}

if [ "${1:-}" = "--gate-selftest" ]; then
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    synth "$dir/base.json" 5000000 1000
    fails=0

    # Host 15% slower, code unchanged: raw 0.85x would false-fail, the
    # normalized gate must pass (the BENCH_7-vs-BENCH_5 scenario).
    synth "$dir/drift.json" 4250000 1176.47
    gate "$dir/drift.json" "$dir/base.json" || { echo "selftest: drift case FAILED"; fails=1; }

    # Same host, code 20% slower: must fail.
    synth "$dir/regress.json" 4000000 1000
    if gate "$dir/regress.json" "$dir/base.json" > /dev/null; then
        echo "selftest: regression case NOT caught"
        fails=1
    fi

    # Host 15% slower AND code 20% slower: normalization must not mask
    # the true regression.
    synth "$dir/both.json" 3400000 1176.47
    if gate "$dir/both.json" "$dir/base.json" > /dev/null; then
        echo "selftest: drift+regression case NOT caught"
        fails=1
    fi

    # A snapshot carrying only the kernels-bench reference name (no
    # policies bracket) must still normalize via the fallback.
    synth "$dir/kern_base.json" 5000000 1000 kernel/host_reference
    synth "$dir/kern_drift.json" 4250000 1176.47 kernel/host_reference
    gate "$dir/kern_drift.json" "$dir/kern_base.json" > /dev/null \
        || { echo "selftest: kernel-name fallback case FAILED"; fails=1; }

    # Baseline without the reference kernel: must skip (exit 0), not fail.
    synth "$dir/old.json" 5000000 -
    synth "$dir/cur.json" 4000000 1000
    out=$(gate "$dir/cur.json" "$dir/old.json") || { echo "selftest: skip case errored"; fails=1; }
    case "$out" in
        *SKIP*) ;;
        *) echo "selftest: missing-reference case did not SKIP"; fails=1 ;;
    esac

    [ "$fails" -eq 0 ] && echo "bench gate selftest: all cases pass"
    exit "$fails"
fi

# bench_number FILE -> N for a file named BENCH_N.json, else nothing.
bench_number() {
    basename "$1" | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p'
}

# The highest N among the committed snapshots (any on disk outside git).
latest=$( { git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null; } |
    while read -r f; do bench_number "$f"; done | sort -n | tail -n 1)
latest=${latest:-0}
out="${1:-BENCH_$((latest + 1)).json}"
baseline="${2:-BENCH_$latest.json}"
number=$(bench_number "$out")
number=${number:-$((latest + 1))}
tsv=$(mktemp)
trap 'rm -f "$tsv"' EXIT

cargo build -q --release --offline -p blitzcoin-bench --benches

BLITZCOIN_BENCH_OUT="$tsv" cargo bench -q --offline -p blitzcoin-bench --bench policies
BLITZCOIN_BENCH_OUT="$tsv" cargo bench -q --offline -p blitzcoin-bench --bench kernels
if loc=$(git ls-files '*.rs' 2>/dev/null | xargs cat | grep -cv '^[[:space:]]*$'); then
    printf 'loc/rust\t%s\tlines\n' "$loc" >> "$tsv"
fi

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# A snapshot taken with uncommitted changes does not measure HEAD.
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    rev="$rev-dirty"
fi

{
    printf '{\n'
    printf '  "bench": %s,\n' "$number"
    printf '  "git_rev": "%s",\n' "$rev"
    printf '  "jobs": 1,\n'
    printf '  "metrics": {\n'
    awk -F'\t' '
        { printf "%s    \"%s\": { \"value\": %s, \"unit\": \"%s\" }", sep, $1, $2, $3; sep = ",\n" }
        END { printf "\n" }
    ' "$tsv"
    printf '  }\n'
    printf '}\n'
} > "$out"

echo "bench: wrote $out ($(wc -l < "$tsv") metrics)"

if [ -f "$baseline" ] && [ "$baseline" != "$out" ]; then
    gate "$out" "$baseline"
else
    echo "bench gate: SKIP (no baseline $baseline)"
fi
