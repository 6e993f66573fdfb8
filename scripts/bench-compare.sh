#!/bin/sh
# bench-compare.sh — compare benchmarks/latest.txt against the committed
# benchmarks/baseline.txt and fail when any matching benchmark regressed
# by more than BENCH_MAX_REGRESSION_PCT percent (default: 5) in ns/op.
# Benchmarks present in only one file are reported and skipped (the
# -procs suffix makes names hardware-dependent).
#
# Numbers from different machines do not compare, so the script refuses
# (exit 2) unless both files carry the same "# host:" line, the one
# scripts/bench.sh stamps: same core count and CPU model.
set -eu
cd "$(dirname "$0")/.."

MAX="${BENCH_MAX_REGRESSION_PCT:-5}"

if [ ! -f benchmarks/baseline.txt ]; then
    echo "bench-compare: no benchmarks/baseline.txt; nothing to compare" >&2
    exit 0
fi
if [ ! -f benchmarks/latest.txt ]; then
    echo "bench-compare: benchmarks/latest.txt missing; run scripts/bench.sh first" >&2
    exit 1
fi

host_of() { sed -n 's/^# host: //p' "$1" | head -1; }
base_host=$(host_of benchmarks/baseline.txt)
last_host=$(host_of benchmarks/latest.txt)
for f in baseline latest; do
    if [ -z "$(host_of benchmarks/$f.txt)" ]; then
        echo "bench-compare: refusing to compare: benchmarks/$f.txt has no '# host:' line, so its machine is unknown;" >&2
        echo "  regenerate it with scripts/bench.sh (then scripts/bench-update.sh for the baseline)" >&2
        exit 2
    fi
done
if [ "$base_host" != "$last_host" ]; then
    echo "bench-compare: refusing to compare runs from different hosts:" >&2
    echo "  baseline.txt: $base_host" >&2
    echo "  latest.txt:   $last_host" >&2
    echo "  re-run scripts/bench.sh on the baseline's host, or promote latest.txt with scripts/bench-update.sh" >&2
    exit 2
fi

awk -v max="$MAX" '
    # go test -bench lines: "BenchmarkName-N   iters   12345 ns/op ..."
    FNR == 1 { file++ }
    /^Benchmark/ {
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op") {
                if (file == 1) base[$1] = $i
                else           last[$1] = $i
                break
            }
        }
    }
    END {
        status = 0
        for (name in last) {
            if (!(name in base)) {
                printf "SKIP   %-50s (not in baseline)\n", name
                continue
            }
            pct = base[name] > 0 ? (last[name] - base[name]) * 100.0 / base[name] : 0
            verdict = "ok"
            if (pct > max) { verdict = "REGRESSED"; status = 1 }
            printf "%-9s %-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n", verdict, name, base[name], last[name], pct
        }
        for (name in base)
            if (!(name in last))
                printf "SKIP   %-50s (not in latest)\n", name
        exit status
    }
' benchmarks/baseline.txt benchmarks/latest.txt

# The ATPG serial/parallel pair: report the measured speedup of each
# worker arm over the serial arm in latest.txt. Informational only --
# on a single-core host the parallel arms can only show overhead, so
# this is not a gate (the byte-identical-output tests are the gate).
awk '
    /^BenchmarkATPGParallel\// {
        name = $1
        sub(/^BenchmarkATPGParallel\//, "", name)
        # Drop the -GOMAXPROCS suffix without eating the worker count
        # (Go omits the suffix entirely when GOMAXPROCS is 1).
        if (name ~ /^serial/) name = "serial"
        else if (match(name, /^workers-[0-9]+/)) name = substr(name, 1, RLENGTH)
        else next
        for (i = 2; i < NF; i++)
            if ($(i + 1) == "ns/op") { ns[name] = $i; order[++n] = name; break }
    }
    END {
        if (!("serial" in ns)) exit 0
        print "ATPG parallel pair (latest.txt):"
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (name == "serial") continue
            printf "  serial / %-12s = %.2fx\n", name, ns["serial"] / ns[name]
        }
    }
' benchmarks/latest.txt
