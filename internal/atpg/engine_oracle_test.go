package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// fullSweep is the reference implication: it evaluates every gate of
// every frame from the engine's current assignment (inputs, free state,
// fault), the way the generator implied values before implication went
// event-driven. It writes fresh rows and leaves the engine untouched.
func fullSweep(e *engine) [][]logic.C {
	c := e.c
	stem := func(id int) fault.Site { return fault.Site{Node: id, Pin: fault.StemPin} }
	val := make([][]logic.C, e.frames)
	for t := range val {
		vals := make([]logic.C, len(c.Nodes))
		val[t] = vals
		for i, id := range c.Inputs {
			vals[id] = e.inject(stem(id), logic.CFromV(e.pi[t][i]))
		}
		for i, id := range c.DFFs {
			in := logic.CX
			switch {
			case t > 0:
				in = e.inject(fault.Site{Node: id, Pin: 0}, val[t-1][c.Nodes[id].Fanin[0]])
			case e.free:
				in = logic.CFromV(e.state[i])
			}
			vals[id] = e.inject(stem(id), in)
		}
		for _, id := range e.order {
			n := &c.Nodes[id]
			ins := make([]logic.C, len(n.Fanin))
			for pin, fi := range n.Fanin {
				ins[pin] = e.inject(fault.Site{Node: id, Pin: pin}, vals[fi])
			}
			vals[id] = e.inject(stem(id), logic.EvalC(n.Op, ins))
		}
	}
	return val
}

// fullFrontier lists, as ascending positions in e.order, every gate of
// frame t with an erroneous input line: the superset a full scan of the
// frame would test for D-frontier membership.
func fullFrontier(e *engine, val [][]logic.C, t int) []int32 {
	var out []int32
	for p, id := range e.order {
		for pin, fi := range e.c.Nodes[id].Fanin {
			if e.inject(fault.Site{Node: id, Pin: pin}, val[t][fi]).IsError() {
				out = append(out, int32(p))
				break
			}
		}
	}
	return out
}

// fullXPath is the X-path check seeded by a scan of every node of every
// frame, over a freshly allocated visited set.
func fullXPath(e *engine, val [][]logic.C) bool {
	c := e.c
	open := func(t, id int) bool {
		v := val[t][id]
		return v.Good == logic.X || v.Faulty == logic.X || v.IsError()
	}
	type node struct{ t, id int }
	seen := make(map[node]bool)
	var stack []node
	push := func(t, id int) {
		if !seen[node{t, id}] {
			seen[node{t, id}] = true
			stack = append(stack, node{t, id})
		}
	}
	for t := 0; t < e.frames; t++ {
		for id := range c.Nodes {
			if val[t][id].IsError() {
				push(t, id)
			}
		}
		if e.f.IsStem() {
			continue
		}
		site := e.inject(e.f.Site, val[t][c.Nodes[e.f.Node].Fanin[e.f.Pin]])
		if !site.IsError() {
			continue
		}
		if c.Nodes[e.f.Node].Kind == netlist.KindDFF {
			if t+1 < e.frames {
				push(t+1, e.f.Node)
			} else if e.free {
				return true
			}
		} else if open(t, e.f.Node) {
			push(t, e.f.Node)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.IsOutput(x.id) {
			return true
		}
		for _, s := range c.Nodes[x.id].Fanout {
			if c.Nodes[s].Kind == netlist.KindDFF {
				if x.t+1 < e.frames {
					push(x.t+1, s)
				} else if e.free {
					return true
				}
				continue
			}
			if open(x.t, s) {
				push(x.t, s)
			}
		}
	}
	return false
}

// checkImplication compares the engine's implied values, error sets,
// D-frontier candidates and X-path verdict against the full-scan
// references.
func checkImplication(t *testing.T, e *engine, ctx string) {
	t.Helper()
	want := fullSweep(e)
	for fr := 0; fr < e.frames; fr++ {
		for id := range e.c.Nodes {
			if got := e.val[fr][id]; got != want[fr][id] {
				t.Fatalf("%s: frame %d node %s = %v, full sweep %v", ctx, fr, e.c.Nodes[id].Name, got, want[fr][id])
			}
			inSet := e.errAt[fr*len(e.c.Nodes)+id] != 0
			if inSet != want[fr][id].IsError() {
				t.Fatalf("%s: frame %d node %s error-set membership %v, value %v", ctx, fr, e.c.Nodes[id].Name, inSet, want[fr][id])
			}
		}
		if len(e.errs[fr]) != countErrors(want[fr]) {
			t.Fatalf("%s: frame %d error set holds %d nodes, want %d", ctx, fr, len(e.errs[fr]), countErrors(want[fr]))
		}
		cand := slices.Clone(e.frontierCandidates(fr))
		if !slices.IsSorted(cand) {
			t.Fatalf("%s: frame %d candidates not in order: %v", ctx, fr, cand)
		}
		for _, p := range fullFrontier(e, want, fr) {
			if _, ok := slices.BinarySearch(cand, p); !ok {
				t.Fatalf("%s: frame %d gate %s has an erroneous input but is no candidate", ctx, fr, e.c.Nodes[e.order[p]].Name)
			}
		}
	}
	if got, want := e.xpathExists(), fullXPath(e, want); got != want {
		t.Fatalf("%s: xpathExists = %v, full scan %v", ctx, got, want)
	}
}

func countErrors(vals []logic.C) int {
	n := 0
	for _, v := range vals {
		if v.IsError() {
			n++
		}
	}
	return n
}

// TestEventDrivenImplicationMatchesFullSweep drives the engine through
// PODEM decisions, backtracks and random multi-variable assignments on
// seeded random circuits -- stem, branch and flip-flop pin faults, free
// and non-free search, with and without the synchronizing seed -- and
// after every implication asserts that the event-driven values equal a
// full sweep and that Evals grew by exactly the full-sweep charge.
func TestEventDrivenImplicationMatchesFullSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 3 + rng.Intn(3), Outputs: 2 + rng.Intn(2),
			Gates: 15 + rng.Intn(30), DFFs: 2 + rng.Intn(5), MaxFanin: 3,
		})
		opt := DefaultOptions()
		opt.SyncSeed = seed%2 == 0
		opt.GuidedBacktrace = seed%3 != 0
		e := newEngine(c, opt)
		if opt.SyncSeed && e.seed == nil {
			t.Logf("seed %d: circuit has no synchronizing seed", seed)
		}
		kinds := map[string]int{}
		for _, f := range pickFaults(c, rng) {
			kinds[faultKind(c, f)]++
			for _, mode := range []struct {
				n    int
				free bool
			}{{1, true}, {1, false}, {3, false}} {
				e.f = f
				e.reset(mode.n, mode.free)
				walkImplication(t, e, rng, 40)
			}
		}
		for _, k := range []string{"stem", "branch", "dff-pin"} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: no %s fault exercised", seed, k)
			}
		}
	}
}

// pickFaults samples the fault universe, always including at least one
// stem, one gate-branch and one flip-flop data-pin fault.
func pickFaults(c *netlist.Circuit, rng *rand.Rand) []fault.Fault {
	all := fault.Universe(c)
	var out []fault.Fault
	seen := map[string]bool{}
	for _, f := range all {
		if k := faultKind(c, f); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	for i := 0; i < 6; i++ {
		out = append(out, all[rng.Intn(len(all))])
	}
	return out
}

func faultKind(c *netlist.Circuit, f fault.Fault) string {
	switch {
	case f.IsStem():
		return "stem"
	case c.Nodes[f.Node].Kind == netlist.KindDFF:
		return "dff-pin"
	}
	return "branch"
}

// walkImplication runs steps implications, each followed by either the
// engine's own next decision (with PODEM-style backtracking) or a burst
// of random assignments, including un-assignments to X.
func walkImplication(t *testing.T, e *engine, rng *rand.Rand, steps int) {
	t.Helper()
	nSeed := 0 // leading frames the synchronizing seed fixes
	if !e.free && e.seed != nil {
		nSeed = len(e.seed)
	}
	var stack []decision
	for step := 0; step < steps; step++ {
		dirty, before := e.dirty, e.evals
		e.simulate()
		if got, want := e.evals-before, int64(e.frames-dirty)*int64(len(e.order)); got != want {
			t.Fatalf("fault %s step %d: implication charged %d evals, full sweep from frame %d is %d", e.f.Name(e.c), step, got, dirty, want)
		}
		checkImplication(t, e, "fault "+e.f.Name(e.c))
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				v := logic.V(rng.Intn(3))
				if e.free && rng.Intn(3) == 0 && len(e.state) > 0 {
					e.assign(-1, rng.Intn(len(e.state)), v)
					continue
				}
				if nSeed < e.frames && len(e.c.Inputs) > 0 {
					e.assign(nSeed+rng.Intn(e.frames-nSeed), rng.Intn(len(e.c.Inputs)), v)
				}
			}
			continue
		}
		if dec, ok := e.nextDecision(); ok {
			e.assign(dec.frame, dec.idx, dec.v)
			stack = append(stack, dec)
			continue
		}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.v = logic.Not(top.v)
				e.assign(top.frame, top.idx, top.v)
				break
			}
			e.assign(top.frame, top.idx, logic.X)
			stack = stack[:len(stack)-1]
		}
	}
}
