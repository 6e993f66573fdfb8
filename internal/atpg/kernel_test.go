package atpg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// compositeValues lists the nine composite values of the good/faulty
// algebra.
func compositeValues() []logic.C {
	var out []logic.C
	for _, g := range []logic.V{logic.Zero, logic.One, logic.X} {
		for _, f := range []logic.V{logic.Zero, logic.One, logic.X} {
			out = append(out, logic.C{Good: g, Faulty: f})
		}
	}
	return out
}

// TestPODEMKernelMatchesEvalC pins the table-driven PODEM gate kernel
// to the reference algebra. The exhaustive half checks every op of the
// table on all 9x9 composite input pairs against logic.EvalC. The
// differential half implies random assignments over seeded random
// circuits -- gates up to four fanins wide, so the generic path runs
// too -- once through the kernel and once with every gate forced onto
// evalGate, for every collapsed fault, and requires the two to agree
// at every node of every frame, the fault-site gate of stem and branch
// faults included.
func TestPODEMKernelMatchesEvalC(t *testing.T) {
	vals := compositeValues()
	for op := logic.OpBuf; op <= logic.OpXnor; op++ {
		for _, a := range vals {
			for _, b := range vals {
				row := []logic.C{a, b}
				k := kgate{op: op, a: 0, b: 1}
				if got, want := k.eval(row), logic.EvalC(op, row); got != want {
					t.Fatalf("%s(%v, %v): kernel %v, EvalC %v", op, a, b, got, want)
				}
			}
		}
	}

	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	// Kinds of gates the differential half must have exercised.
	var kernelStem, kernelBranch, wide int
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 2 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 10 + rng.Intn(40), DFFs: rng.Intn(5), MaxFanin: 2 + rng.Intn(3),
		})
		opt := DefaultOptions()
		opt.SyncSeed = false
		e := newEngine(c, opt)
		generic := *e.program
		generic.kern = make([]kgate, len(e.kern))
		generic.byLevel = make([]kgate, len(e.byLevel))
		for i, k := range e.kern {
			generic.kern[i] = kgate{op: opGeneric, id: k.id}
		}
		for i, k := range e.byLevel {
			generic.byLevel[i] = kgate{op: opGeneric, id: k.id}
		}
		for _, id := range e.order {
			if len(c.Nodes[id].Fanin) > 2 {
				wide++
			}
		}
		reps, _ := fault.Collapse(c)
		for _, f := range reps {
			if e.kern[f.Node].op != opGeneric {
				if f.IsStem() {
					kernelStem++
				} else {
					kernelBranch++
				}
			}
			free := rng.Intn(2) == 0
			e.f = f
			e.reset(1+rng.Intn(3), free)
			for tf := 0; tf < e.frames; tf++ {
				for i := range e.pi[tf] {
					e.pi[tf][i] = logic.V(rng.Intn(3))
				}
			}
			for i := range e.state {
				e.state[i] = logic.V(rng.Intn(3))
			}
			e.simulate()
			want := make([][]logic.C, e.frames)
			for tf := range want {
				want[tf] = append([]logic.C(nil), e.val[tf]...)
			}
			kernel := e.program
			e.program = &generic
			e.swept, e.dirty = false, 0
			e.simulate()
			e.program = kernel
			for tf := range want {
				for id := range c.Nodes {
					if got := e.val[tf][id]; got != want[tf][id] {
						t.Fatalf("seed %d fault %s frame %d node %s (%s): kernel %v, generic %v",
							seed, f.Name(c), tf, c.Nodes[id].Name, c.Nodes[id].Op, want[tf][id], got)
					}
				}
			}
		}
	}
	if kernelStem == 0 || kernelBranch == 0 || wide == 0 {
		t.Fatalf("differential check missed a gate kind: kernel-gate stem faults %d, branch faults %d, wide gates %d",
			kernelStem, kernelBranch, wide)
	}
}

// TestSparseAndDenseDrainsMatchFullSweep runs the implication oracle of
// TestEventDrivenImplicationMatchesFullSweep with the dense-sweep
// threshold pinned at both ends -- every drain purely event-driven,
// every drain swept densely from its first level -- and low enough that
// drains switch to the dense sweep part way up. Each must equal the
// full sweep after every implication, with the full-sweep charge.
func TestSparseAndDenseDrainsMatchFullSweep(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, denseAt := range []int{math.MaxInt, -1, 3} {
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(100 + seed)))
			c := netlist.Random(rng, netlist.RandomParams{
				Inputs: 3 + rng.Intn(3), Outputs: 2 + rng.Intn(2),
				Gates: 30 + rng.Intn(60), DFFs: 2 + rng.Intn(5), MaxFanin: 3,
			})
			opt := DefaultOptions()
			opt.SyncSeed = seed%2 == 0
			e := newEngine(c, opt)
			e.denseAt = denseAt
			for _, f := range pickFaults(c, rng) {
				for _, mode := range []struct {
					n    int
					free bool
				}{{1, true}, {3, false}} {
					e.f = f
					e.reset(mode.n, mode.free)
					walkImplication(t, e, rng, 30)
				}
			}
		}
	}
}
