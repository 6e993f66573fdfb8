package fsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestFlatKernelMatchesEvalW checks the flat two-input kernel against
// logic.EvalW on every op and arity flatGate admits, over all nine
// ternary input pairs at once (one pair per bit position), and that the
// gates it refuses are marked for the generic fold.
func TestFlatKernelMatchesEvalW(t *testing.T) {
	vals := []logic.V{logic.Zero, logic.One, logic.X}
	var a, b logic.W
	for i, va := range vals {
		for j, vb := range vals {
			bit := uint(3*i + j)
			a, b = a.Set(bit, va), b.Set(bit, vb)
		}
	}
	ops := []logic.Op{logic.OpBuf, logic.OpNot, logic.OpAnd, logic.OpNand,
		logic.OpOr, logic.OpNor, logic.OpXor, logic.OpXnor}
	for _, op := range ops {
		maxArity := 3
		if op == logic.OpBuf || op == logic.OpNot {
			maxArity = 1 // netlist arity checks reject wider BUF/NOT
		}
		for arity := 1; arity <= maxArity; arity++ {
			n := &netlist.Node{Kind: netlist.KindGate, Op: op, Fanin: []int{0, 1, 1}[:arity]}
			k := flatGate(n)
			generic := arity > 2 || arity == 1 && (op == logic.OpXor || op == logic.OpXnor)
			if generic {
				if k.op != opGeneric {
					t.Errorf("%s/%d: flat entry %+v, want the generic fold", op, arity, k)
				}
				continue
			}
			ins := []logic.W{a, b}[:arity]
			want := logic.EvalW(op, ins)
			if got := k.eval(a, ins[arity-1]); got != want {
				t.Errorf("%s/%d: kernel %+v, EvalW %+v", op, arity, got, want)
			}
		}
	}
	for _, n := range []*netlist.Node{
		{Kind: netlist.KindGate, Op: logic.OpConst0},
		{Kind: netlist.KindInput},
		{Kind: netlist.KindDFF, Fanin: []int{0}},
	} {
		if k := flatGate(n); k.op != opGeneric {
			t.Errorf("%+v: flat entry %+v, want the generic fold", n, k)
		}
	}
}

// Dense switch points that force one cycle mode: a run is dense from
// its first cycle when denseAt is negative, and never dense at MaxInt64.
const (
	alwaysDense int64 = -1
	neverDense  int64 = math.MaxInt64
)

// cycleModes are the engine configurations every counter-exact check
// runs side by side. adaptive keeps the production switch point; eager
// switches after any cycle that evaluated more than four gates, so runs
// flip between the two modes many times.
var cycleModes = []struct {
	name    string
	denseAt int64
	adapt   bool
}{
	{name: "sparse", denseAt: neverDense},
	{name: "dense", denseAt: alwaysDense},
	{name: "eager", denseAt: 4},
	{name: "adaptive", adapt: true},
}

// newModeSimulator returns a single-worker Simulator whose engine uses
// the given dense switch point (the production one when adapt is set).
func newModeSimulator(c *netlist.Circuit, faults []fault.Fault, denseAt int64, adapt bool) *Simulator {
	s := NewSimulator(c, faults)
	s.SetMaxWorkers(1)
	if !adapt {
		e := newEventEngine(c, s.prog)
		e.denseAt = denseAt
		s.engines = append(s.engines, e)
	}
	return s
}

// TestDenseCycleCounterExact is the counter-exact gate for the dense
// cycle: over 200 seeded random circuits (collapsed and universe fault
// lists), forced-sparse, forced-dense, eager and adaptive engines must
// report the DetectedAt of the full-sweep oracle and byte-identical Stats,
// both for one sequence fed as split sub-sequences and for the ATPG
// pattern of Reset between independent sequences with out-of-band
// drops. The engines run on one goroutine, so under the race detector
// the first 40 circuits suffice; scripts/check.sh runs all 200 race-free.
func TestDenseCycleCounterExact(t *testing.T) {
	trials := 200
	if raceEnabled {
		trials = 40
	}
	rng := rand.New(rand.NewSource(1501))
	for trial := 0; trial < trials; trial++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs:   2 + rng.Intn(5),
			Outputs:  1 + rng.Intn(4),
			Gates:    20 + rng.Intn(150),
			DFFs:     rng.Intn(12),
			MaxFanin: 4,
		})
		var faults []fault.Fault
		if trial%2 == 0 {
			faults = fault.Universe(c)
		} else {
			faults, _ = fault.Collapse(c)
		}
		label := fmt.Sprintf("trial %d", trial)

		// Split sub-sequences through one persistent Simulator.
		seq := randomSeq(rng, len(c.Inputs), 8+rng.Intn(40))
		var cuts []int
		for start := 0; start < len(seq); {
			start += 1 + rng.Intn(len(seq)-start)
			cuts = append(cuts, start)
		}
		oracle := RunSequential(c, faults, seq)
		var splitStats []Stats
		for _, m := range cycleModes {
			s := newModeSimulator(c, faults, m.denseAt, m.adapt)
			start := 0
			for _, end := range cuts {
				s.Simulate(seq[start:end])
				start = end
			}
			diffDetected(t, label+" split "+m.name, c, oracle.DetectedAt, s.DetectedAt())
			splitStats = append(splitStats, s.Stats())
		}
		sameStats(t, label+" split", splitStats)

		// Reset between independent sequences, with the same faults
		// dropped out of band in every mode.
		seqs := make([]sim.Seq, 2+rng.Intn(4))
		for i := range seqs {
			seqs[i] = randomSeq(rng, len(c.Inputs), 4+rng.Intn(24))
		}
		dropAt := rng.Intn(len(faults))
		var resetStats []Stats
		var resetNewly [][]fault.Fault
		for mi, m := range cycleModes {
			s := newModeSimulator(c, faults, m.denseAt, m.adapt)
			remaining := append([]fault.Fault(nil), faults...)
			var newlyAll []fault.Fault
			for i, q := range seqs {
				want := RunSequential(c, remaining, q)
				s.Reset()
				newly := s.Simulate(q)
				if len(newly) != len(want.DetectedAt) {
					t.Fatalf("%s reset %s seq %d: %d newly detected, oracle %d",
						label, m.name, i, len(newly), len(want.DetectedAt))
				}
				for _, f := range newly {
					if _, ok := want.DetectedAt[f]; !ok {
						t.Fatalf("%s reset %s seq %d: %s not detected by oracle", label, m.name, i, f.Name(c))
					}
				}
				newlyAll = append(newlyAll, newly...)
				remaining = want.Undetected()
				if i == 0 && len(remaining) > 1 {
					f := remaining[dropAt%len(remaining)]
					s.Drop(f)
					remaining = slices.DeleteFunc(remaining, func(g fault.Fault) bool { return g == f })
				}
			}
			if mi > 0 && !slices.Equal(newlyAll, resetNewly[0]) {
				t.Fatalf("%s reset %s: newly-detected lists differ from %s", label, m.name, cycleModes[0].name)
			}
			resetNewly = append(resetNewly, newlyAll)
			resetStats = append(resetStats, s.Stats())
		}
		sameStats(t, label+" reset", resetStats)
	}
}

// sameStats fails unless every mode reported the Stats of the first.
func sameStats(t *testing.T, label string, stats []Stats) {
	t.Helper()
	for i, st := range stats[1:] {
		if st != stats[0] {
			t.Fatalf("%s: %s stats %+v, %s stats %+v",
				label, cycleModes[i+1].name, st, cycleModes[0].name, stats[0])
		}
	}
}
