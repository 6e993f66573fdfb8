#!/bin/sh
# bench.sh — run the tracked benchmark set and write benchmarks/latest.txt.
#
#   BENCH_PKGS     packages to benchmark   (default: ./internal/fsim ./internal/atpg ./internal/retime)
#   BENCH_PATTERN  -bench regexp           (default: BenchmarkFsim|BenchmarkRandomPhase|BenchmarkATPGWithDropping|BenchmarkATPGParallel|BenchmarkATPGCheckpointOverhead|BenchmarkMinPeriod)
#   BENCH_COUNT    -count                  (default: 1)
#   BENCH_CPUS     -cpu matrix for the parallel benchmarks, appended as
#                  a second pass (default: 1,2,4,8; empty = skip).
#                  GOMAXPROCS above the host's core count measures
#                  scheduling overhead, not speedup -- the host line at
#                  the top of latest.txt records what the numbers mean.
#   BENCH_MATRIX   -bench regexp for the matrix pass
#                  (default: BenchmarkFsimParallel|BenchmarkATPGParallel|BenchmarkFsimEventDriven)
#
# Review the result, then promote it with scripts/bench-update.sh.
set -eu
cd "$(dirname "$0")/.."

PKGS="${BENCH_PKGS:-./internal/fsim ./internal/atpg ./internal/retime}"
PATTERN="${BENCH_PATTERN:-BenchmarkFsim|BenchmarkRandomPhase|BenchmarkATPGWithDropping|BenchmarkATPGParallel|BenchmarkATPGCheckpointOverhead|BenchmarkMinPeriod}"
COUNT="${BENCH_COUNT:-1}"
CPUS="${BENCH_CPUS-1,2,4,8}"
MATRIX="${BENCH_MATRIX:-BenchmarkFsimParallel|BenchmarkATPGParallel|BenchmarkFsimEventDriven}"

mkdir -p benchmarks
{
    echo "# host: $(nproc) core(s), $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)"
    echo "# date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
} | tee benchmarks/latest.txt
go test -run '^$' -bench "$PATTERN" -count "$COUNT" -benchmem $PKGS | tee -a benchmarks/latest.txt
if [ -n "$CPUS" ]; then
    echo "# multi-core matrix: -cpu $CPUS" | tee -a benchmarks/latest.txt
    go test -run '^$' -bench "$MATRIX" -cpu "$CPUS" -count "$COUNT" -benchmem $PKGS | tee -a benchmarks/latest.txt
fi
echo "wrote benchmarks/latest.txt"
