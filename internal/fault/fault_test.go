package fault

import (
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func and2(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.NewBuilder("and2").
		Inputs("a", "b").
		Gate("z", logic.OpAnd, "a", "b").
		Output("z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustRep returns f's representative, failing the test when f is not
// in the collapsed universe.
func mustRep(t *testing.T, m RepMap, f Fault) Fault {
	t.Helper()
	r, ok := m.Rep(f)
	if !ok {
		t.Fatalf("no representative for %+v", f)
	}
	return r
}

func TestUniverseAnd2(t *testing.T) {
	c := and2(t)
	u := Universe(c)
	// a stem, b stem, z stem, z pin0, z pin1 -> 5 sites x 2 polarities.
	if len(u) != 10 {
		t.Fatalf("universe size = %d, want 10", len(u))
	}
}

func TestCollapseAnd2(t *testing.T) {
	c := and2(t)
	reps, repOf := Collapse(c)
	// Classic result: an n-input AND collapses to n+2 classes
	// (inputs s-a-1 each alone, everything-s-a-0 together, output s-a-1).
	if len(reps) != 4 {
		for _, r := range reps {
			t.Logf("rep: %s", r.Name(c))
		}
		t.Fatalf("collapsed classes = %d, want 4", len(reps))
	}
	// Every universe fault maps to a representative that maps to itself.
	for _, f := range Universe(c) {
		r := mustRep(t, repOf, f)
		if mustRep(t, repOf, r) != r {
			t.Fatalf("representative %s is not canonical", r.Name(c))
		}
	}
	// All s-a-0 faults must share one class.
	z := c.MustNodeID("z")
	a := c.MustNodeID("a")
	if mustRep(t, repOf, Fault{Site{a, StemPin}, logic.Zero}) != mustRep(t, repOf, Fault{Site{z, StemPin}, logic.Zero}) {
		t.Fatal("a s-a-0 and z s-a-0 must collapse together")
	}
	// Input s-a-1 faults must be distinct from output s-a-1.
	if mustRep(t, repOf, Fault{Site{a, StemPin}, logic.One}) == mustRep(t, repOf, Fault{Site{z, StemPin}, logic.One}) {
		t.Fatal("a s-a-1 must not collapse with z s-a-1")
	}
}

func TestCollapseInverterChain(t *testing.T) {
	c, err := netlist.NewBuilder("chain").
		Inputs("a").
		Gate("n1", logic.OpNot, "a").
		Gate("n2", logic.OpNot, "n1").
		Output("n2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	reps, repOf := Collapse(c)
	// The whole chain is one line pair: a s-a-v == n1 s-a-!v == n2 s-a-v.
	if len(reps) != 2 {
		for _, r := range reps {
			t.Logf("rep: %s", r.Name(c))
		}
		t.Fatalf("collapsed classes = %d, want 2", len(reps))
	}
	a, n1 := c.MustNodeID("a"), c.MustNodeID("n1")
	if mustRep(t, repOf, Fault{Site{a, StemPin}, logic.Zero}) != mustRep(t, repOf, Fault{Site{n1, StemPin}, logic.One}) {
		t.Fatal("inversion-aware collapsing failed")
	}
}

func TestNoCollapseAcrossDFF(t *testing.T) {
	c, err := netlist.NewBuilder("dffline").
		Inputs("a").
		DFF("q", "a").
		Gate("z", logic.OpBuf, "q").
		Output("z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_, repOf := Collapse(c)
	aid, qid := c.MustNodeID("a"), c.MustNodeID("q")
	// a (the DFF's input line) and q (its output) must stay distinct.
	if mustRep(t, repOf, Fault{Site{aid, StemPin}, logic.Zero}) == mustRep(t, repOf, Fault{Site{qid, StemPin}, logic.Zero}) {
		t.Fatal("faults must not collapse across a flip-flop")
	}
}

func TestFanoutBranchesDistinct(t *testing.T) {
	c := netlist.Fig3L1() // Q fans out to two branches
	_, repOf := Collapse(c)
	g0, g1 := c.MustNodeID("G0"), c.MustNodeID("G1")
	b0 := Fault{Site{g0, 0}, logic.Zero}
	b1 := Fault{Site{g1, 1}, logic.Zero}
	if mustRep(t, repOf, b0) == mustRep(t, repOf, b1) {
		t.Fatal("branches of a fanout stem must not collapse with each other")
	}
	q := c.MustNodeID("Q")
	if mustRep(t, repOf, Fault{Site{q, StemPin}, logic.Zero}) == mustRep(t, repOf, b0) {
		t.Fatal("fanout stem must not collapse with a branch")
	}
}

func TestFaultName(t *testing.T) {
	c := netlist.Fig5N1()
	g2 := c.MustNodeID("G2")
	f := Fault{Site{g2, 0}, logic.One}
	if got := f.Name(c); got != "G1->G2 s-a-1" {
		t.Errorf("Name = %q", got)
	}
	stem := Fault{Site{c.MustNodeID("G1"), StemPin}, logic.Zero}
	if got := stem.Name(c); got != "G1 s-a-0" {
		t.Errorf("Name = %q", got)
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	fs := []Fault{
		{Site{0, StemPin}, logic.Zero},
		{Site{0, StemPin}, logic.One},
		{Site{0, 0}, logic.Zero},
		{Site{1, StemPin}, logic.Zero},
	}
	for i := range fs {
		for j := range fs {
			if i == j && fs[i].Less(fs[j]) {
				t.Fatal("irreflexivity violated")
			}
			if i != j && fs[i].Less(fs[j]) == fs[j].Less(fs[i]) {
				t.Fatalf("totality violated for %v %v", fs[i], fs[j])
			}
		}
	}
}

func TestUniverseCoversPaperLines(t *testing.T) {
	// The Fig. 5 discussion names specific lines; the universe must
	// contain faults whose names match them.
	c := netlist.Fig5N1()
	u := Universe(c)
	names := map[string]bool{}
	for _, f := range u {
		names[f.Name(c)] = true
	}
	for _, want := range []string{
		"I1->Q1 s-a-1", "I2->Q2 s-a-1", "Q1->G1 s-a-1", "Q2->G1 s-a-1", "G1->G2 s-a-1",
	} {
		if !names[want] {
			var have []string
			for n := range names {
				have = append(have, n)
			}
			t.Fatalf("universe missing %q (have %s)", want, strings.Join(have, ", "))
		}
	}
}
