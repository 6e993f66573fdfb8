package atpg

import (
	"slices"

	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// program is the immutable per-circuit half of the PODEM engine: the
// structural tables, the flat gate kernel, the SCOAP costs and the
// synchronizing seed. It is built once per run and shared read-only by
// the merge driver's engine and every speculation worker's, so the
// seed search and the controllability relaxation run once, not once
// per engine.
type program struct {
	c     *netlist.Circuit
	opt   Options
	order []int
	// orderPos is the position of a gate in order, -1 for other nodes.
	orderPos []int32
	// Gate fanouts in CSR form: node id's fanout gates are
	// outID[outStart[id]:outStart[id+1]], at levels outLevel[...].
	outStart []int32
	outID    []int32
	outLevel []int32
	// Flip-flop fanouts in CSR form: dffID[dffStart[id]:dffStart[id+1]].
	dffStart []int32
	dffID    []int32
	index    []int // position of an input in c.Inputs or a flip-flop in c.DFFs
	// isOut marks primary-output nodes for O(1) lookup in hot loops.
	isOut []bool
	// kern is the per-node flat kernel entry (see kgate). byLevel holds
	// the gates' entries sorted by level, a topological order in which
	// the gates of level l start at levelStart[l]; a dense frame sweep
	// walks it front to back. It copies the entries instead of listing
	// IDs into kern because the extra indirection measured 7% slower in
	// BenchmarkPODEM (sum of its three circuits, medians 2.78 -> 2.97 s
	// over 10 alternating runs on a 2-vCPU Xeon).
	kern       []kgate
	byLevel    []kgate
	levelStart []int32
	// SCOAP-style controllability costs (guided backtrace).
	cost0, cost1 []int64
	// seed is the synchronizing stimulus prefix (SyncSeed option).
	seed sim.Seq
}

// kgate is one node's flat kernel entry: its op, its ID and both
// fanin IDs. A one-fanin BUF or NOT repeats its fanin in b, which the
// two-input table maps back to the gate's value (BUF(a, a) reads a,
// NOT(a, a) complements it). Gates the kernel cannot express -- wider
// than two fanins, constants, one-fanin XOR/XNOR -- and non-gate nodes
// carry opGeneric and take evalGate.
type kgate struct {
	op       logic.Op
	id, a, b int32
}

// eval is the flat kernel: the gate's value from its two fanins'
// values in one table lookup. It is defined for entries whose op is
// not opGeneric, and it ignores the target fault.
func (k kgate) eval(vals []logic.C) logic.C {
	return kernelTable[k.op&7][cidx(vals[k.a])&15][cidx(vals[k.b])&15]
}

// opGeneric marks a kgate entry the flat kernel does not evaluate.
const opGeneric logic.Op = 0xff

// kernelTable[op][ca][cb] is the composite value of the two-input gate
// op over fanin values whose table indices (cidx) are ca and cb. It is
// built from logic.Eval, rail by rail, so the kernel inherits the
// reference algebra instead of restating it.
var kernelTable = buildKernelTable()

// cidx is the kernel-table index of a composite value.
func cidx(v logic.C) uint8 { return uint8(v.Good)<<2 | uint8(v.Faulty) }

func buildKernelTable() (tab [8][16][16]logic.C) {
	ternary := []logic.V{logic.Zero, logic.One, logic.X}
	for op := logic.OpBuf; op <= logic.OpXnor; op++ {
		for _, ag := range ternary {
			for _, af := range ternary {
				for _, bg := range ternary {
					for _, bf := range ternary {
						a, b := logic.C{Good: ag, Faulty: af}, logic.C{Good: bg, Faulty: bf}
						tab[op][cidx(a)][cidx(b)] = logic.C{
							Good:   logic.Eval(op, []logic.V{ag, bg}),
							Faulty: logic.Eval(op, []logic.V{af, bf}),
						}
					}
				}
			}
		}
	}
	return tab
}

// kernelGate returns node id's flat kernel entry. netlist arity checks
// guarantee BUF/NOT have one fanin and constants none.
func kernelGate(c *netlist.Circuit, id int) kgate {
	n := &c.Nodes[id]
	switch {
	case n.Kind != netlist.KindGate, len(n.Fanin) == 0, len(n.Fanin) > 2:
		return kgate{op: opGeneric, id: int32(id)} // inputs, DFFs, constants, wide gates
	case len(n.Fanin) == 1 && (n.Op == logic.OpXor || n.Op == logic.OpXnor):
		return kgate{op: opGeneric, id: int32(id)} // XOR(a, a) is not a
	}
	return kgate{op: n.Op, id: int32(id), a: int32(n.Fanin[0]), b: int32(n.Fanin[len(n.Fanin)-1])}
}

// newProgram builds the shared tables for PODEM on c under opt.
func newProgram(c *netlist.Circuit, opt Options) *program {
	order, level := c.MustLevels()
	nodes := len(c.Nodes)
	p := &program{
		c:        c,
		opt:      opt,
		order:    order,
		orderPos: make([]int32, nodes),
		outStart: make([]int32, nodes+1),
		dffStart: make([]int32, nodes+1),
		dffID:    make([]int32, len(c.DFFs)),
		index:    make([]int, nodes),
		isOut:    make([]bool, nodes),
		kern:     make([]kgate, nodes),
	}
	for id := range p.orderPos {
		p.orderPos[id] = -1
	}
	maxLevel := 0
	for pos, id := range order {
		p.orderPos[id] = int32(pos)
		maxLevel = max(maxLevel, level[id])
	}
	for id, outs := range c.GateFanouts() {
		for _, g := range outs {
			p.outID = append(p.outID, g.ID)
			p.outLevel = append(p.outLevel, g.Level)
		}
		p.outStart[id+1] = int32(len(p.outID))
	}
	for i, id := range c.Inputs {
		p.index[id] = i
	}
	for i, id := range c.DFFs {
		p.index[id] = i
		p.dffStart[c.Nodes[id].Fanin[0]+1]++
	}
	for id := 0; id < nodes; id++ {
		p.dffStart[id+1] += p.dffStart[id]
	}
	fill := slices.Clone(p.dffStart)
	for _, id := range c.DFFs {
		fi := c.Nodes[id].Fanin[0]
		p.dffID[fill[fi]] = int32(id)
		fill[fi]++
	}
	for _, id := range c.Outputs {
		p.isOut[id] = true
	}
	for id := range c.Nodes {
		p.kern[id] = kernelGate(c, id)
	}
	// Counting sort of the gates by level.
	p.levelStart = make([]int32, maxLevel+2)
	for _, id := range order {
		p.levelStart[level[id]+1]++
	}
	for l := 1; l < len(p.levelStart); l++ {
		p.levelStart[l] += p.levelStart[l-1]
	}
	p.byLevel = make([]kgate, len(order))
	fill = slices.Clone(p.levelStart)
	for _, id := range order {
		p.byLevel[fill[level[id]]] = p.kern[id]
		fill[level[id]]++
	}
	if opt.GuidedBacktrace {
		p.computeControllability()
	}
	if opt.SyncSeed {
		p.seed = findSyncSeed(c)
	}
	return p
}

// newEngine builds a program for c and one engine over it.
func newEngine(c *netlist.Circuit, opt Options) *engine {
	return newProgram(c, opt).engine()
}

// engine returns a fresh engine over the program. Engines share the
// program and own all their search state, so each may run on its own
// goroutine.
func (p *program) engine() *engine {
	return &engine{
		program: p,
		state:   make([]logic.V, len(p.c.DFFs)),
		queued:  make([]bool, len(p.c.Nodes)),
		buckets: make([][]int32, len(p.levelStart)-1),
		// Past a sixteenth of the gates a dense sweep of the remaining
		// levels is cheaper than the event bookkeeping. In BenchmarkPODEM
		// (sum of its three circuits, medians of 8 rotated runs) this
		// beats event-only drains by 18% and dense-only drains by 14%;
		// gates/8 and gates/32 tie with it.
		denseAt: len(p.order) / 16,
	}
}

// findSyncSeed looks for a short structural synchronizing sequence made
// of a held constant vector: all zeros, all ones, or a single bit set or
// cleared -- the patterns that activate reset/enable-style controls. It
// returns nil when none of these initializes the machine.
func findSyncSeed(c *netlist.Circuit) sim.Seq {
	in := len(c.Inputs)
	limit := 2*len(c.DFFs) + 4
	var candidates []sim.Vec
	zeros := make(sim.Vec, in)
	ones := make(sim.Vec, in)
	for i := range ones {
		ones[i] = logic.One
	}
	candidates = append(candidates, zeros, ones)
	for i := 0; i < in; i++ {
		hot := make(sim.Vec, in)
		hot[i] = logic.One
		cold := make(sim.Vec, in)
		for j := range cold {
			cold[j] = logic.One
		}
		cold[i] = logic.Zero
		candidates = append(candidates, hot, cold)
	}
	var best sim.Seq
	m := fsim.NewMachine(c, nil)
	for _, v := range candidates {
		m.Reset()
		for k := 1; k <= limit; k++ {
			m.Step(v)
			if m.Synchronized() {
				if best == nil || k < len(best) {
					best = make(sim.Seq, k)
					for t := range best {
						best[t] = v
					}
				}
				break
			}
		}
	}
	return best
}

// computeControllability derives SCOAP-flavoured 0/1 controllability
// costs by relaxation; flip-flop outputs cost extra to discourage
// backtraces through deep state.
func (p *program) computeControllability() {
	const inf = int64(1) << 40
	const seqPenalty = 20
	n := len(p.c.Nodes)
	p.cost0 = make([]int64, n)
	p.cost1 = make([]int64, n)
	for i := range p.cost0 {
		p.cost0[i], p.cost1[i] = inf, inf
	}
	for _, id := range p.c.Inputs {
		p.cost0[id], p.cost1[id] = 1, 1
	}
	for pass := 0; pass < 8; pass++ {
		changed := false
		update := func(arr []int64, id int, v int64) {
			if v < arr[id] {
				arr[id] = v
				changed = true
			}
		}
		for _, id := range p.c.DFFs {
			fi := p.c.Nodes[id].Fanin[0]
			update(p.cost0, id, sat(p.cost0[fi]+seqPenalty))
			update(p.cost1, id, sat(p.cost1[fi]+seqPenalty))
		}
		for _, id := range p.order {
			nd := &p.c.Nodes[id]
			c0, c1 := gateControllability(nd, p.cost0, p.cost1)
			update(p.cost0, id, c0)
			update(p.cost1, id, c1)
		}
		if !changed {
			break
		}
	}
}

func sat(v int64) int64 {
	const inf = int64(1) << 40
	if v > inf {
		return inf
	}
	return v
}

// gateControllability returns the SCOAP-style cost of setting the gate
// output to 0 and to 1.
func gateControllability(n *netlist.Node, cost0, cost1 []int64) (int64, int64) {
	const inf = int64(1) << 40
	minOf := func(arr []int64) int64 {
		m := inf
		for _, fi := range n.Fanin {
			if arr[fi] < m {
				m = arr[fi]
			}
		}
		return m
	}
	sumOf := func(arr []int64) int64 {
		var s int64
		for _, fi := range n.Fanin {
			s = sat(s + arr[fi])
		}
		return s
	}
	switch n.Op {
	case logic.OpConst0:
		return 0, inf
	case logic.OpConst1:
		return inf, 0
	case logic.OpBuf:
		return sat(cost0[n.Fanin[0]] + 1), sat(cost1[n.Fanin[0]] + 1)
	case logic.OpNot:
		return sat(cost1[n.Fanin[0]] + 1), sat(cost0[n.Fanin[0]] + 1)
	case logic.OpAnd:
		return sat(minOf(cost0) + 1), sat(sumOf(cost1) + 1)
	case logic.OpNand:
		return sat(sumOf(cost1) + 1), sat(minOf(cost0) + 1)
	case logic.OpOr:
		return sat(sumOf(cost0) + 1), sat(minOf(cost1) + 1)
	case logic.OpNor:
		return sat(minOf(cost1) + 1), sat(sumOf(cost0) + 1)
	case logic.OpXor, logic.OpXnor:
		// Cheap approximation: either rail costs the sum of the easier
		// sides plus one.
		var s int64
		for _, fi := range n.Fanin {
			c := cost0[fi]
			if cost1[fi] < c {
				c = cost1[fi]
			}
			s = sat(s + c)
		}
		return sat(s + 1), sat(s + 1)
	}
	return inf, inf
}
