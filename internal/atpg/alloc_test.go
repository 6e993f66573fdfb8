package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// extractTestAllocs is what a detected fault costs a warmed engine:
// the returned sequence's header and its one backing array of vectors.
// Everything else a PODEM search touches -- frame rows, event queues,
// error sets, visited marks, backtrace stacks -- is engine-owned
// scratch, so scripts/check.sh fails the build when a change makes the
// search itself allocate.
const extractTestAllocs = 2

// TestGenerateSteadyStateAllocs pins the allocation cost of a warmed
// engine.generate: the detected fault with the most search effort may
// allocate only its returned test, an aborted or redundant one nothing.
func TestGenerateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 6, Outputs: 4, Gates: 120, DFFs: 10, MaxFanin: 3,
	})
	opt := DefaultOptions()
	opt.MaxEvalsPerFault = 200_000
	e := newEngine(c, opt)
	var detected, undetected fault.Fault
	var mostEvals int64 = -1
	haveUndetected := false
	for _, f := range fault.Universe(c) {
		_, st := e.generate(f)
		switch {
		case st == StatusDetected && e.backtracks > 0 && e.evals > mostEvals:
			detected, mostEvals = f, e.evals
		case st != StatusDetected && !haveUndetected:
			undetected, haveUndetected = f, true
		}
	}
	if mostEvals < 0 || !haveUndetected {
		t.Fatalf("workload lacks a backtracking detected fault (%v) or an undetected one (%v)", mostEvals >= 0, haveUndetected)
	}
	for _, tc := range []struct {
		name   string
		f      fault.Fault
		budget float64
	}{
		{"detected", detected, extractTestAllocs},
		{"undetected", undetected, 0},
	} {
		e.generate(tc.f) // warm: rows and scratch grow to this fault's needs
		allocs := testing.AllocsPerRun(20, func() { e.generate(tc.f) })
		if allocs > tc.budget {
			t.Errorf("%s fault %s: warmed generate allocates %.1f objects/run, budget %.0f",
				tc.name, tc.f.Name(c), allocs, tc.budget)
		}
	}
}
