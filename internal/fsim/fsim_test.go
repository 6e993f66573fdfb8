package fsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func randomSeq(rng *rand.Rand, inputs, length int) sim.Seq {
	seq := make(sim.Seq, length)
	for i := range seq {
		v := make(sim.Vec, inputs)
		for j := range v {
			v[j] = logic.FromBool(rng.Intn(2) == 1)
		}
		seq[i] = v
	}
	return seq
}

// TestParallelMatchesSerial is the core cross-check: the fault-parallel
// engine must agree with the scalar reference machine on every collapsed
// fault, both on detection and on first-detection cycle.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 5 + rng.Intn(40), DFFs: rng.Intn(6), MaxFanin: 4,
		})
		reps, _ := fault.Collapse(c)
		seq := randomSeq(rng, len(c.Inputs), 8)
		res := Run(c, reps, seq)
		for _, f := range reps {
			st, sok := DetectsSerial(c, f, seq)
			pt, pok := res.DetectedAt[f]
			if sok != pok {
				t.Fatalf("%s: fault %s serial=%v parallel=%v", c.Name, f.Name(c), sok, pok)
			}
			if sok && st != pt {
				t.Fatalf("%s: fault %s detected at %d serially but %d in parallel", c.Name, f.Name(c), st, pt)
			}
		}
	}
}

// TestCollapseClassesBehaveIdentically validates the collapsing rules
// behaviourally: every fault must be detected exactly when its class
// representative is.
func TestCollapseClassesBehaveIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 15; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 3 + rng.Intn(15), DFFs: rng.Intn(4), MaxFanin: 3,
		})
		_, repOf := fault.Collapse(c)
		seq := randomSeq(rng, len(c.Inputs), 6)
		for _, f := range fault.Universe(c) {
			r, _ := repOf.Rep(f)
			if f == r {
				continue
			}
			ft, fok := DetectsSerial(c, f, seq)
			rt, rok := DetectsSerial(c, r, seq)
			if fok != rok || (fok && ft != rt) {
				t.Fatalf("%s: fault %s (det %v@%d) differs from representative %s (det %v@%d)",
					c.Name, f.Name(c), fok, ft, r.Name(c), rok, rt)
			}
		}
	}
}

// TestExample2FaultySynchronization reproduces the paper's Example 2:
// <001,000> synchronizes faulty N1 (G1->G2 s-a-1) to state 001 but
// leaves faulty N2 (G1->Q12 s-a-1) in state 1x.
func TestExample2FaultySynchronization(t *testing.T) {
	n1 := netlist.Fig5N1()
	f1 := fault.Fault{Site: fault.Site{Node: n1.MustNodeID("G2"), Pin: 0}, SA: logic.One}
	m1 := NewMachine(n1, &f1)
	m1.Run(sim.ParseSeq("001,000"))
	if got := sim.VecString(m1.State()); got != "001" {
		t.Errorf("faulty N1 state after <001,000> = %s, want 001", got)
	}
	if !m1.Synchronized() {
		t.Error("faulty N1 must be synchronized")
	}

	n2 := netlist.Fig5N2()
	f2 := fault.Fault{Site: fault.Site{Node: n2.MustNodeID("Q12"), Pin: 0}, SA: logic.One}
	m2 := NewMachine(n2, &f2)
	m2.Run(sim.ParseSeq("001,000"))
	if got := sim.VecString(m2.State()); got != "1x" {
		t.Errorf("faulty N2 state after <001,000> = %s, want 1x", got)
	}
	if m2.Synchronized() {
		t.Error("faulty N2 must not be synchronized (Observation 2)")
	}
}

// TestExample3FunctionalDetection reproduces Example 3: <11> detects the
// stuck-at-0 on L1's output functionally, but not the corresponding
// fault on L2's output; a one-vector prefix restores detection
// (Theorem 4 instance).
func TestExample3FunctionalDetection(t *testing.T) {
	l1 := netlist.Fig3L1()
	fz1 := fault.Fault{Site: fault.Site{Node: l1.MustNodeID("Z"), Pin: fault.StemPin}, SA: logic.Zero}
	if _, ok := DetectsFunctional(l1, fz1, sim.ParseSeq("11")); !ok {
		t.Error("<11> must functionally detect Z s-a-0 on L1")
	}

	l2 := netlist.Fig3L2()
	fz2 := fault.Fault{Site: fault.Site{Node: l2.MustNodeID("Z"), Pin: fault.StemPin}, SA: logic.Zero}
	if _, ok := DetectsFunctional(l2, fz2, sim.ParseSeq("11")); ok {
		t.Error("<11> must not detect Z s-a-0 on L2 (Observation 3)")
	}
	for _, prefix := range []string{"00", "01", "10", "11"} {
		seq := sim.ParseSeq(prefix + ",11")
		if _, ok := DetectsFunctional(l2, fz2, seq); !ok {
			t.Errorf("<%s,11> must detect Z s-a-0 on L2", prefix)
		}
	}
}

// TestStructuralImpliesFunctional: if the structural engine calls a
// fault detected, the functional oracle must agree (the converse need
// not hold).
func TestStructuralImpliesFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 10; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 3 + rng.Intn(12), DFFs: 1 + rng.Intn(3), MaxFanin: 3,
		})
		reps, _ := fault.Collapse(c)
		seq := randomSeq(rng, len(c.Inputs), 5)
		for _, f := range reps {
			if _, sok := DetectsSerial(c, f, seq); sok {
				if _, fok := DetectsFunctional(c, f, seq); !fok {
					t.Fatalf("%s: %s detected structurally but not functionally", c.Name, f.Name(c))
				}
			}
		}
	}
}

func TestResultAccounting(t *testing.T) {
	c := netlist.Fig2C1()
	reps, _ := fault.Collapse(c)
	seq := randomSeq(rand.New(rand.NewSource(14)), len(c.Inputs), 20)
	res := Run(c, reps, seq)
	if res.Detected()+len(res.Undetected()) != len(reps) {
		t.Fatal("detected + undetected != total")
	}
	cov := res.Coverage()
	if cov < 0 || cov > 100 {
		t.Fatalf("coverage %f out of range", cov)
	}
	if res.Detected() == 0 {
		t.Fatal("random 20-vector sequence should detect something on C1")
	}
	empty := Run(c, nil, seq)
	if empty.Coverage() != 100 {
		t.Fatal("empty fault list coverage should be 100")
	}
}

func TestMachineStatePanics(t *testing.T) {
	m := NewMachine(netlist.Fig2C1(), nil)
	for _, f := range []func(){
		func() { m.SetState(sim.ParseVec("11")) },
		func() { m.Step(sim.ParseVec("1")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMachineMatchesSimWhenFaultFree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 20; iter++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 2 + rng.Intn(20), DFFs: rng.Intn(5), MaxFanin: 3,
		})
		m := NewMachine(c, nil)
		s := sim.New(c)
		seq := randomSeq(rng, len(c.Inputs), 6)
		mo := m.Run(seq)
		so := s.Run(seq)
		for i := range seq {
			if sim.VecString(mo[i]) != sim.VecString(so[i]) {
				t.Fatalf("%s: machine and simulator disagree at %d", c.Name, i)
			}
		}
		if sim.VecString(m.State()) != sim.VecString(s.State()) {
			t.Fatalf("%s: final state disagrees", c.Name)
		}
	}
}

// TestGroupBoundary exercises fault lists spanning multiple 63-wide
// groups with exact-boundary sizes.
func TestGroupBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c := netlist.Random(rng, netlist.RandomParams{
		Inputs: 3, Outputs: 2, Gates: 60, DFFs: 4, MaxFanin: 3,
	})
	reps, _ := fault.Collapse(c)
	if len(reps) <= GroupWidth {
		t.Skipf("need more than %d faults, got %d", GroupWidth, len(reps))
	}
	seq := randomSeq(rng, len(c.Inputs), 10)
	whole := Run(c, reps, seq)
	// Exactly one group worth, then the remainder.
	first := Run(c, reps[:GroupWidth], seq)
	rest := Run(c, reps[GroupWidth:], seq)
	if first.Detected()+rest.Detected() != whole.Detected() {
		t.Fatalf("split runs disagree: %d + %d != %d",
			first.Detected(), rest.Detected(), whole.Detected())
	}
}
