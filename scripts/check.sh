#!/bin/sh
# check.sh — the tier-1 gate: formatting, vet, build, and the full test
# suite under the race detector.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (concurrency-heavy packages, fail fast)"
go test -race -count=1 ./internal/fsim/... ./internal/service/... ./internal/failpoint/... ./cmd/servd/... ./internal/resultcache/... ./internal/httpmw/... ./internal/logger/... ./internal/metrics/...

echo "== go test -race (result cache: hit/miss byte-identity, corrupt-entry discard, single-flight)"
# The cache round-trip gate: a repeat submission is served byte-identical
# from memory and from disk, a corrupted entry file is discarded (never
# served), and N concurrent identical submissions run ATPG exactly once.
go test -race -count=1 -run 'TestCachedRun|TestCacheServesRepeatedSubmission|TestCacheDiskTierSurvivesRestart|TestCorruptEntryDiscardedOnLoad|TestConcurrentIdenticalSubmissionsRunOnce|TestCacheHammer' \
    ./internal/resultcache/ ./internal/atpg/ ./internal/service/

echo "== go test -race -short (fault-sharded ATPG determinism, PODEM implication and kernel oracles, pinned result digests, Theorem 1-4 metamorphic suite)"
# -short keeps the gate fast: 12 theorem pairs, the 5-repeat
# determinism gauntlet, 4 circuits of the event-driven-vs-full-sweep
# implication oracle (plus 3 per forced sparse/dense/mixed drain), the
# exhaustive 8-op x 9x9 kernel-table check with 8 circuits of the
# kernel-vs-generic differential, and the random-circuit half of the
# pinned EncodeResultPayload digests at 1/2/4 workers. The full 50-pair
# suite, 12 oracle circuits, 24 differential circuits and the Table II
# digests run race-free in the plain `go test ./...` tier-1 pass; drop
# -short here for a nightly run.
go test -race -short -count=1 -run 'TestParallel|TestTheorem|TestEventDrivenImplication|TestPODEMKernelMatchesEvalC|TestSparseAndDenseDrainsMatchFullSweep|TestPinnedResultDigests' ./internal/atpg/ ./internal/verify/

echo "== go test (min-period retiming byte-identity: Bellman-Ford oracle, pinned Table II digests)"
# The W/D minimum-period search stops a probe at the first negative
# cycle in its predecessor graph; at every candidate period of 300
# seeded random circuits it must return the same verdict and retiming
# as the plain n-pass Bellman-Ford oracle, and the min-period circuits
# of dk16.ji.sd and pma.jo.sd must hash to their pinned digests.
go test -count=1 -run 'TestFeasibleWDMatchesOracle|TestMinPeriodPinnedDigests|TestMinPeriodContextCancelsInsideWD|TestMinPeriodWDMatchesFEASFig2' ./internal/retime/

echo "== go test (fault-simulation byte-identity: dense/sparse counter-exact gate, pinned random-phase digests)"
# The event-driven engine sweeps a group's cycle densely once most of
# the circuit diverges. Over 200 seeded random circuits, forced-sparse,
# forced-dense and adaptive engines must match the full-sweep oracle's
# DetectedAt with identical Stats, and the random phase of three
# Table II circuits must hash to its pinned digest (newly-detected
# lists per sequence plus Stats).
go test -count=1 -run 'TestFlatKernelMatchesEvalW|TestDenseCycleCounterExact|TestRandomPhasePinnedDigests' ./internal/fsim/

echo "== go test (cache-key byte-identity: collapse oracle, pinned circuit identities and request keys)"
# Collapse numbers faults densely and merges classes in a flat
# union-find; on all 32 Table II circuits and 320 seeded random
# circuits it must return the map-based oracle's representatives and
# the oracle's representative for every universe fault. The bench
# rendering is streamed into the circuit hash, so the SHA-256 of
# BenchString and the identity-hash triple of every Table II circuit,
# and one service request key per job kind, are pinned: cache entries
# and checkpoints written by an earlier build must still hit and resume.
go test -count=1 -run 'TestCollapseMatchesOracle|TestPinnedIdentities|TestRequestKeyPinned|TestBenchStringStable|TestParseBenchLongLines' \
    ./internal/fault/ ./internal/atpg/ ./internal/service/ ./internal/netlist/

echo "== go test -race (dispatch fan-out: retry ladder, migration, degrade, byte-identity at 1/2/4 backends)"
# The distributed chaos gate: failpoint-driven {first-try success,
# retry-then-success, migrate-after-kill, all-backends-down degrade},
# each asserting byte-identity against serial atpg.Run, plus the HTTP
# worker protocol (torn heartbeat, poisoned response, stuck backend).
go test -race -count=1 ./internal/dispatch/ ./cmd/workerd/

echo "== dispatch kill-a-worker smoke (real processes: servd + 2 workerd, SIGKILL one mid-run)"
# Starts two workerd workers (one slowed via a failpoint sleep) and a
# servd fronting both, submits a distributed ATPG job, kills the slow
# worker dead mid-shard, and asserts the merged result is byte-identical
# to an in-process serial reference run.
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/servd" ./cmd/servd
go build -o "$smoketmp/workerd" ./cmd/workerd
go run ./cmd/dispatchsmoke -servd "$smoketmp/servd" -workerd "$smoketmp/workerd"

echo "== go test -race (iofault chaos: ENOSPC/EIO/torn writes at journal, checkpoint, cache sites)"
# The degraded-mode gate: every write-path op of every durability site
# fails and the job must still complete byte-identical to a fault-free
# run while the site's degraded signal (journal.degraded,
# atpg.checkpoint.errors, cache.disk_errors) fires. The atomic-replace
# protocol, the degraded-disk gate and the recovery sweeps are covered
# at the iofault layer and at every site that uses them.
go test -race -count=1 -run 'TestDurabilityFaultsNeverFailJobs|TestJournalDegraded|TestDiskBreaker|TestInjectedFaults|TestPartialWrite|TestWriteAtomic|TestGateTransitions|TestDiscardAndSweepTmp|TestSweepKeepsEntriesOnReadError|TestTornTmpWriteNeverCorruptsCheckpoint|TestTryResumeKeepsFileOnReadError|TestFailpointCheckpointAfterTmpIsRenamePoint' \
    ./internal/service/ ./internal/resultcache/ ./internal/iofault/ ./internal/atpg/

echo "== go test -race -count=300 (terminal jobs never show their checkpoint)"
# finishJob removes the checkpoint before the terminal status becomes
# visible; a reader that sees the job done must never find the file.
go test -race -count=300 -run 'TestCorruptCheckpointDiscarded$' ./internal/service/

echo "== go test -race -count=300 (crash recovery: journal order is submit, start, terminal)"
# A worker waits for the submit entry before journaling the start, and
# a terminal entry is journaled before the job looks finished; replay
# drops entries that precede a submit, so either race lost the attempt
# count or re-ran a finished job after recovery.
go test -race -count=300 -run 'TestCrashRecovery$' ./internal/service/

echo "== go test -race -count=50 (watchdog stall smoke: wedged checkpoint write -> requeue -> byte-identical)"
# A job wedged mid-run (blocked checkpoint write) must be detected by
# the stuck-progress watchdog, cancelled, requeued through the backoff
# ladder, and finish byte-identical on the retry; a job that stalls on
# every attempt must fail loudly at the attempt cap. Close waits for
# the abandoned attempts, so none writes into a directory being
# removed or into the next repetition's failpoint; 50 repetitions keep
# that honest.
go test -race -count=50 -run 'TestWatchdog' ./internal/service/

echo "== go test -race -short (checkpoint kill/resume chaos: crash anywhere, resume, byte-identical)"
# -short samples 3 kill points per snapshot set and workers {1,4}; the
# plain tier-1 pass (and a nightly run without -short) widens to up to
# 10 kill points and workers {1,2,4}. A checkpoint that validates but
# diverges mid-replay must be discarded and rerun clean at every entry
# point (RunContext, candidates, the facade, the Fig. 6 flow).
go test -race -short -count=1 -run 'TestCheckpoint' ./internal/atpg/
go test -race -short -count=1 -run 'TestDivergentCheckpointRerunsClean' .

echo "== go test -race"
go test -race -short ./...

echo "== alloc-regression gate (steady-state Simulate must stay allocation-free)"
# Deliberately WITHOUT -race: testing.AllocsPerRun is meaningless under
# the race detector, so these tests skip themselves there. The budgets
# live in internal/fsim/alloc_test.go (0 serial, O(workers) parallel).
go test -count=1 -run 'TestSimulateSteadyStateAllocs|TestSimulateParallelSteadyStateAllocs' -v ./internal/fsim/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|ok|FAIL)'

echo "== alloc-regression gate (warmed PODEM generate allocates only the returned test)"
# Same -race caveat; the budget lives in internal/atpg/alloc_test.go.
go test -count=1 -run 'TestGenerateSteadyStateAllocs' -v ./internal/atpg/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|ok|FAIL)'

echo "== alloc-regression gate (log ring: <= 1 alloc per record, 0 with a prebuilt string)"
# Same -race caveat; the budget lives in internal/logger/logger_test.go.
go test -count=1 -run 'TestLogSteadyStateAllocs' -v ./internal/logger/ | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|ok|FAIL)'

# coverage_floor runs the packages' tests with -cover and fails when any
# of them is below the 90% floor.
coverage_floor() {
    go test -count=1 -cover "$@" | awk '
        /coverage:/ {
            pct = 0
            for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%.*/, "", $i); pct = $i }
            printf "%-24s %s%%\n", $2, pct
            if (pct + 0 < 90) { bad = 1 }
        }
        END { if (bad) { print "coverage below 90% floor" > "/dev/stderr"; exit 1 } }'
}

echo "== coverage floor (httpmw + logger must stay >= 90% covered)"
# The middleware and log ring sit on every request path of both
# daemons; the hardening pass that introduced them came with a full
# table-driven suite, and this gate keeps later edits honest.
coverage_floor ./internal/httpmw/ ./internal/logger/

echo "== coverage floor (iofault must stay >= 90% covered)"
# The IO fault seam guards every durability write path; its behavior
# under injection is exactly what the degraded-mode guarantees rest on.
coverage_floor ./internal/iofault/

echo "== soak smoke (concurrent mixed-kind jobs through one in-process service)"
go run ./cmd/soak -duration 2s -submitters 2

echo "== servd pprof surface (profiler mux serves index + heap off the API listener)"
go test -count=1 -run 'TestPprofMux' ./cmd/servd/

echo "== fuzz smoke (journal replay must survive arbitrary crash residue)"
go test -run='^$' -fuzz=FuzzJournalReplay -fuzztime=5s ./internal/service/

echo "== fuzz smoke (.bench parser: accepted inputs must round-trip)"
go test -run='^$' -fuzz=FuzzParseBench -fuzztime=5s ./internal/netlist/

echo "== fuzz smoke (checkpoint decoder: arbitrary bytes -> clean error or canonical round-trip)"
go test -run='^$' -fuzz=FuzzCheckpointRestore -fuzztime=5s ./internal/atpg/

echo "== fuzz smoke (cache entry decoder: arbitrary bytes -> typed error or canonical round-trip)"
go test -run='^$' -fuzz=FuzzCacheEntryDecode -fuzztime=5s ./internal/resultcache/

echo "== fuzz smoke (shard wire decoder: hostile shard JSON -> clean 400 or validated round-trip)"
go test -run='^$' -fuzz=FuzzShardWireDecode -fuzztime=5s ./internal/dispatch/

echo "check.sh: all green"
