package retime_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/retime"
)

// oracleCandidates collects the distinct D values with a set, apart
// from the solver's sort-and-compact.
func oracleCandidates(D [][]int32) []int32 {
	seen := map[int32]bool{}
	var cands []int32
	for _, row := range D {
		for _, d := range row {
			if d != math.MinInt32 && !seen[d] {
				seen[d] = true
				cands = append(cands, d)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return cands
}

// oracleFeasibleWD is the reference W/D feasibility probe: the period-c
// difference-constraint system solved by plain Bellman-Ford, which only
// declares a negative cycle after n full passes.
func oracleFeasibleWD(g *retime.Graph, W, D [][]int32, c int) (retime.Retiming, bool) {
	n := len(g.Verts)
	type constraint struct {
		u, v int // r(u) - r(v) <= k  ==> relax r(u) against r(v)
		k    int32
	}
	var cons []constraint
	for e := range g.Edges {
		ed := &g.Edges[e]
		cons = append(cons, constraint{ed.From, ed.To, int32(ed.W)})
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if W[u][v] != math.MaxInt32 && D[u][v] != math.MinInt32 && int(D[u][v]) > c {
				cons = append(cons, constraint{u, v, W[u][v] - 1})
			}
		}
	}
	fixed := -1
	for v := range g.Verts {
		if !g.Verts[v].Fixed() {
			continue
		}
		if fixed >= 0 {
			cons = append(cons, constraint{fixed, v, 0}, constraint{v, fixed, 0})
		} else {
			fixed = v
		}
	}
	dist := make([]int64, n)
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, cn := range cons {
			if d := dist[cn.v] + int64(cn.k); d < dist[cn.u] {
				dist[cn.u] = d
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n-1 {
			return nil, false
		}
	}
	r := make(retime.Retiming, n)
	var offset int64
	if fixed >= 0 {
		offset = dist[fixed]
	}
	for v := range r {
		r[v] = int(dist[v] - offset)
	}
	if g.Check(r) != nil {
		return nil, false
	}
	return r, true
}

// TestFeasibleWDMatchesOracle holds the W/D search's probe to the
// plain Bellman-Ford oracle on 300 seeded random circuits, half of them
// randomly pre-retimed: the same candidate periods, and at every one of
// them the same feasibility verdict and the same retiming.
func TestFeasibleWDMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	infeasible := 0
	for i := 0; i < 300; i++ {
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 1 + rng.Intn(4), Outputs: 1 + rng.Intn(3),
			Gates: 3 + rng.Intn(40), DFFs: 1 + rng.Intn(8), MaxFanin: 2 + rng.Intn(3),
		})
		g := retime.FromCircuit(c)
		if i%2 == 1 {
			rg, err := g.Retime(g.RandomRetiming(rng, 50))
			if err != nil {
				t.Fatal(err)
			}
			g = rg
		}
		W, D, err := g.WDMatrices()
		if err != nil {
			t.Fatal(err)
		}
		cands, feasible, err := g.WDProbe()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleCandidates(D); !slices.Equal(cands, want) {
			t.Fatalf("%s: candidates %v, oracle %v", c.Name, cands, want)
		}
		for _, p := range cands {
			r, ok := feasible(int(p))
			wantR, wantOK := oracleFeasibleWD(g, W, D, int(p))
			if ok != wantOK || !slices.Equal(r, wantR) {
				t.Fatalf("%s circuit %d period %d: probe (%v, %v), oracle (%v, %v)", c.Name, i, p, ok, r, wantOK, wantR)
			}
			if !ok {
				infeasible++
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no candidate period was infeasible; the early negative-cycle exit went unexercised")
	}
}
