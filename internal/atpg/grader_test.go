package atpg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestGraderEquivalence runs the generator with the incremental
// event-driven grader and with the full-resim oracle grader on the same
// workloads and requires identical outcomes: same per-fault status,
// same generated sequences in the same order, same deterministic effort
// charges. This pins the incremental fault-dropping path to the
// pre-incremental behavior bit for bit.
func TestGraderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   3 + rng.Intn(3),
			Outputs:  2 + rng.Intn(3),
			Gates:    30 + rng.Intn(80),
			DFFs:     1 + rng.Intn(6),
			MaxFanin: 4,
		})
		faults, _ := fault.Collapse(c)
		opt := DefaultOptions()
		opt.MaxFrames = 5
		opt.MaxBacktracks = 50
		opt.RandomLength = 32
		opt.RandomCount = 8

		inc := Run(c, faults, opt)
		full := runFullResim(c, faults, opt)

		if len(inc.Status) != len(full.Status) {
			t.Fatalf("trial %d: %d vs %d statuses", trial, len(inc.Status), len(full.Status))
		}
		for f, st := range full.Status {
			if inc.Status[f] != st {
				t.Fatalf("trial %d: fault %s: incremental %s, full-resim %s",
					trial, f.Name(c), inc.Status[f], st)
			}
		}
		if got, want := sim.SeqString(inc.TestSet), sim.SeqString(full.TestSet); got != want {
			t.Fatalf("trial %d: test sets differ:\n  incremental %s\n  full-resim  %s", trial, got, want)
		}
		if len(inc.Tests) != len(full.Tests) {
			t.Fatalf("trial %d: %d vs %d sequences", trial, len(inc.Tests), len(full.Tests))
		}
		if inc.Effort.Evals != full.Effort.Evals || inc.Effort.Backtracks != full.Effort.Backtracks {
			t.Fatalf("trial %d: effort (%d,%d) vs (%d,%d)", trial,
				inc.Effort.Evals, inc.Effort.Backtracks, full.Effort.Evals, full.Effort.Backtracks)
		}
		// Only the incremental path reports measured simulation work.
		if inc.FsimStats.Cycles == 0 || inc.FsimStats.Evals == 0 {
			t.Fatalf("trial %d: incremental FsimStats not populated: %+v", trial, inc.FsimStats)
		}
		if full.FsimStats != (fsim.Stats{}) {
			t.Fatalf("trial %d: oracle grader should report zero stats, got %+v", trial, full.FsimStats)
		}
	}
}

// runFullResim is Run with the oracle grader in place of the
// incremental simulator: the pre-incremental cost model that rebuilds a
// full-sweep simulation of every surviving fault per sequence.
func runFullResim(c *netlist.Circuit, faults []fault.Fault, opt Options) *Result {
	res, _ := runMerge(context.Background(), c, faults, opt, nil, newOracleGrader)
	return res
}

// oracleGrader re-simulates the whole surviving fault list with the
// full-sweep oracle on every call, the pre-incremental cost model.
type oracleGrader struct {
	c   *netlist.Circuit
	rem []fault.Fault
}

func newOracleGrader(c *netlist.Circuit, faults []fault.Fault) grader {
	return &oracleGrader{c: c, rem: append([]fault.Fault(nil), faults...)}
}

func (g *oracleGrader) grade(ctx context.Context, seq sim.Seq) ([]fault.Fault, error) {
	// Full-sweep runs are not interruptible; the oracle honors
	// cancellation only between sequences.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := fsim.RunSequential(g.c, g.rem, seq)
	if len(res.DetectedAt) == 0 {
		return nil, nil
	}
	detected := make([]fault.Fault, 0, len(res.DetectedAt))
	keep := g.rem[:0]
	for _, f := range g.rem {
		if _, ok := res.DetectedAt[f]; ok {
			detected = append(detected, f)
		} else {
			keep = append(keep, f)
		}
	}
	g.rem = keep
	return detected, nil
}

func (g *oracleGrader) drop(f fault.Fault) {
	for i, x := range g.rem {
		if x == f {
			g.rem = append(g.rem[:i], g.rem[i+1:]...)
			return
		}
	}
}

func (g *oracleGrader) liveCount() int { return len(g.rem) }

func (g *oracleGrader) remaining() []fault.Fault {
	return append([]fault.Fault(nil), g.rem...)
}

func (g *oracleGrader) stats() fsim.Stats { return fsim.Stats{} }
