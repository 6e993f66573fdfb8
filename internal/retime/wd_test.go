package retime

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

func TestWDMatricesFig2(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	W, D, err := g.WDMatrices()
	if err != nil {
		t.Fatal(err)
	}
	// Diagonals: zero registers, own delay.
	for v := range g.Verts {
		if W[v][v] != 0 || int(D[v][v]) != g.Verts[v].Delay {
			t.Fatalf("diagonal wrong at %s: W=%d D=%d", g.Verts[v].Name, W[v][v], D[v][v])
		}
	}
	// The A->Z path goes through the register: W = 1.
	var a, z int = -1, -1
	for v := range g.Verts {
		switch g.Verts[v].Name {
		case "A":
			a = v
		case "Z":
			z = v
		}
	}
	if a < 0 || z < 0 {
		t.Fatal("vertices not found")
	}
	if W[a][z] != 1 {
		t.Fatalf("W[A][Z] = %d, want 1", W[a][z])
	}
	if W[a][a] != 0 {
		t.Fatalf("W[A][A] = %d", W[a][a])
	}
	// Unreachable pairs stay at the sentinels.
	if W[z][a] != math.MaxInt32 {
		t.Fatalf("W[Z][A] = %d, want unreachable", W[z][a])
	}
}

func TestMinPeriodWDMatchesFEASFig2(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	rWD, pWD, err := g.MinPeriodWD()
	if err != nil {
		t.Fatal(err)
	}
	_, pFEAS, err := g.minPeriodFEAS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pWD != pFEAS || pWD != 3 {
		t.Fatalf("WD period %d, FEAS period %d, want 3", pWD, pFEAS)
	}
	if err := g.Check(rWD); err != nil {
		t.Fatal(err)
	}
	if _, p, ok := g.Delta(rWD); !ok || p != pWD {
		t.Fatalf("WD retiming achieves %d, claimed %d", p, pWD)
	}
}

// TestMinPeriodWDvsFEASProperty cross-checks the exact W/D algorithm
// against the conservative FEAS fallback on random circuits: both must
// return legal retimings achieving what they claim, FEAS never beats
// the exact optimum, and wherever FEAS certifies a period the exact
// algorithm certifies one at least as good.
func TestMinPeriodWDvsFEASProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 40; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(3), Outputs: 1 + rng.Intn(2),
			Gates: 3 + rng.Intn(25), DFFs: 1 + rng.Intn(5), MaxFanin: 3,
		})
		g := FromCircuit(c)
		rWD, pWD, err := g.MinPeriodWD()
		if err != nil {
			t.Fatalf("%s: WD: %v", c.Name, err)
		}
		rFEAS, pFEAS, err := g.minPeriodFEAS(context.Background())
		if err != nil {
			t.Fatalf("%s: FEAS: %v", c.Name, err)
		}
		if pWD > pFEAS {
			t.Fatalf("%s: exact WD period %d worse than conservative FEAS %d", c.Name, pWD, pFEAS)
		}
		for name, rp := range map[string]struct {
			r Retiming
			p int
		}{"WD": {rWD, pWD}, "FEAS": {rFEAS, pFEAS}} {
			if err := g.Check(rp.r); err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if _, p, ok := g.Delta(rp.r); !ok || p > rp.p {
				t.Fatalf("%s/%s: retiming exceeds claim: %d > %d", c.Name, name, p, rp.p)
			}
		}
	}
}

// flipCtx is a context whose Err turns to context.Canceled on call
// after+1 and stays so; calls counts every Err call.
type flipCtx struct {
	context.Context
	after, calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestMinPeriodContextCancelsInsideWD cancels the W/D search before
// each of its binary-search probes in turn: MinPeriodContext must
// return context.Canceled at once, without the FEAS fallback (which
// would consult ctx again).
func TestMinPeriodContextCancelsInsideWD(t *testing.T) {
	g := FromCircuit(netlist.Fig2C1())
	// An uncancelled run counts the checks: one on entry, one per probe.
	full := &flipCtx{Context: context.Background(), after: math.MaxInt}
	if _, p, err := g.MinPeriodContext(full); err != nil || p != 3 {
		t.Fatalf("uncancelled search: period %d, err %v", p, err)
	}
	if full.calls < 3 {
		t.Fatalf("only %d ctx checks; want the entry check plus one per probe", full.calls)
	}
	for after := 1; after < full.calls; after++ {
		ctx := &flipCtx{Context: context.Background(), after: after}
		r, _, err := g.MinPeriodContext(ctx)
		if !errors.Is(err, context.Canceled) || r != nil {
			t.Fatalf("cancel after %d checks: got (%v, %v), want context.Canceled", after, r, err)
		}
		if ctx.calls != after+1 {
			t.Fatalf("cancel after %d checks: ctx consulted %d times, want %d (no FEAS fallback)", after, ctx.calls, after+1)
		}
	}
}

func TestWDSizeGuard(t *testing.T) {
	g := &Graph{Name: "huge"}
	for i := 0; i < MaxWDVertices+1; i++ {
		g.addVert(Vert{Kind: VGate, Name: "g", Delay: 1})
	}
	if _, _, err := g.WDMatrices(); err == nil {
		t.Fatal("size guard missing")
	}
}
