package fault_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

var tableII struct {
	once     sync.Once
	circuits []*netlist.Circuit
	err      error
}

// tableIICircuits returns the 16 Table II originals and their 16
// speed-retimed implementations, synthesized once per test binary.
func tableIICircuits(tb testing.TB) []*netlist.Circuit {
	tb.Helper()
	tableII.once.Do(func() {
		for _, v := range experiments.TableIIVariants() {
			c, err := v.Synthesize()
			if err != nil {
				tableII.err = err
				return
			}
			pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(v.Name()))
			if err != nil {
				tableII.err = fmt.Errorf("%s: %v", v.Name(), err)
				return
			}
			tableII.circuits = append(tableII.circuits, c, pair.Retimed)
		}
	})
	if tableII.err != nil {
		tb.Fatal(tableII.err)
	}
	return tableII.circuits
}

// checkAgainstOracle asserts Universe returns the oracle's universe,
// Collapse the oracle's representatives and, for every universe fault, the oracle's
// representative; faults outside the universe must not resolve.
func checkAgainstOracle(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	reps, repOf := fault.Collapse(c)
	wantReps, wantRepOf := fault.CollapseOracle(c)
	if !reflect.DeepEqual(reps, wantReps) {
		t.Fatalf("%s: %d representatives, oracle has %d (or they differ)", c.Name, len(reps), len(wantReps))
	}
	u := fault.Universe(c)
	if !reflect.DeepEqual(u, fault.UniverseOracle(c)) {
		t.Fatalf("%s: universe differs from the oracle's", c.Name)
	}
	if len(u) != len(wantRepOf) {
		t.Fatalf("%s: universe has %d faults, oracle maps %d", c.Name, len(u), len(wantRepOf))
	}
	for _, f := range u {
		r, ok := repOf.Rep(f)
		if want := wantRepOf[f]; !ok || r != want {
			t.Fatalf("%s: %s -> %s (ok %v), oracle %s", c.Name, f.Name(c), r.Name(c), ok, want.Name(c))
		}
	}
	outside := []fault.Fault{
		{Site: fault.Site{Node: -1, Pin: fault.StemPin}},
		{Site: fault.Site{Node: len(c.Nodes), Pin: fault.StemPin}},
		{Site: fault.Site{Node: 0, Pin: -2}},
		{Site: fault.Site{Node: 0, Pin: len(c.Nodes[0].Fanin)}},
		{Site: fault.Site{Node: 0, Pin: fault.StemPin}, SA: logic.X},
	}
	for id := range c.Nodes {
		if len(c.Nodes[id].Fanout) == 0 && !c.IsOutput(id) {
			outside = append(outside, fault.Fault{Site: fault.Site{Node: id, Pin: fault.StemPin}, SA: logic.One})
		}
	}
	for _, f := range outside {
		if r, ok := repOf.Rep(f); ok {
			t.Fatalf("%s: fault %+v outside the universe resolved to %+v", c.Name, f, r)
		}
	}
}

// TestCollapseMatchesOracleTableII checks the dense-index collapse
// against the map-based oracle on all 32 Table II circuits.
func TestCollapseMatchesOracleTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II synthesis and retiming are slow; skipped under -short")
	}
	for _, c := range tableIICircuits(t) {
		checkAgainstOracle(t, c)
	}
}

// TestCollapseMatchesOracleRandom checks the dense-index collapse
// against the map-based oracle on 320 seeded random circuits, and that
// the corpus exercises every structure the collapse rules special-case.
func TestCollapseMatchesOracleRandom(t *testing.T) {
	var poFanout, invChain, wide, dffFanin int
	for seed := int64(1); seed <= 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(5), Outputs: 1 + rng.Intn(5),
			Gates: 1 + rng.Intn(60), DFFs: rng.Intn(8), MaxFanin: 2 + rng.Intn(6),
		})
		checkAgainstOracle(t, c)
		for _, id := range c.Outputs {
			if len(c.Nodes[id].Fanout) > 0 {
				poFanout++
			}
		}
		for id := range c.Nodes {
			n := &c.Nodes[id]
			switch {
			case n.Kind == netlist.KindDFF:
				dffFanin++
			case n.Kind != netlist.KindGate:
			case n.Op == logic.OpBuf || n.Op == logic.OpNot:
				if d := &c.Nodes[n.Fanin[0]]; d.Kind == netlist.KindGate && (d.Op == logic.OpBuf || d.Op == logic.OpNot) {
					invChain++
				}
			case len(n.Fanin) >= 4 && n.Op != logic.OpXor && n.Op != logic.OpXnor:
				wide++
			}
		}
	}
	for what, n := range map[string]int{
		"primary outputs that fan out": poFanout,
		"BUF/NOT chains":               invChain,
		"wide AND/OR/NAND/NOR gates":   wide,
		"DFF fanins":                   dffFanin,
	} {
		if n == 0 {
			t.Errorf("random corpus has no %s", what)
		}
	}
}

// BenchmarkCollapse times collapsing all 32 Table II circuits.
func BenchmarkCollapse(b *testing.B) {
	circuits := tableIICircuits(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range circuits {
			fault.Collapse(c)
		}
	}
}
