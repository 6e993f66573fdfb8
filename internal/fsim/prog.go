package fsim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// prog is a flattened evaluation program for the event-driven engine:
// per-node op codes and fanin spans packed into contiguous arrays, so
// the hot loop touches a few bytes per gate instead of chasing the
// full netlist.Node structs, and gate evaluation folds fanins directly
// without gathering them into a buffer first.
//
// On top of the generic program it carries the flat gate kernel: one
// fixed-size gate2 entry per node holding the op and both fanin IDs.
// Every gate of the synthesized Table II circuits has at most two
// fanins, and evaluating such a gate from its gate2 entry is a single
// switch over two word loads instead of the generic fold's span lookup
// and per-fanin loop.
type prog struct {
	op       []logic.Op // per node (meaningful for gates only)
	fanStart []int32    // per node+1, span of fanins
	fanins   []int32    // flat fanin node IDs in pin order
	gates    []gate2    // per node flat kernel entry
}

// gate2 is one node's flat kernel entry: its op and both fanin IDs. A
// one-fanin gate repeats its fanin in b, which leaves AND/OR-family
// results unchanged (AND(a, a) = a). Gates the kernel cannot express --
// wider than two fanins, constants, one-fanin XOR/XNOR -- and non-gate
// nodes carry opGeneric and take the generic fold.
type gate2 struct {
	op   logic.Op
	a, b int32
}

// opGeneric marks a gate2 entry the flat kernel does not evaluate.
const opGeneric logic.Op = 0xff

func buildProg(c *netlist.Circuit) *prog {
	p := &prog{
		op:       make([]logic.Op, len(c.Nodes)),
		fanStart: make([]int32, len(c.Nodes)+1),
		gates:    make([]gate2, len(c.Nodes)),
	}
	total := 0
	for id := range c.Nodes {
		total += len(c.Nodes[id].Fanin)
	}
	p.fanins = make([]int32, 0, total)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		p.op[id] = n.Op
		p.fanStart[id] = int32(len(p.fanins))
		for _, f := range n.Fanin {
			p.fanins = append(p.fanins, int32(f))
		}
		p.gates[id] = flatGate(n)
	}
	p.fanStart[len(c.Nodes)] = int32(len(p.fanins))
	return p
}

// flatGate returns the node's flat kernel entry. netlist arity checks
// guarantee BUF/NOT have one fanin and constants none.
func flatGate(n *netlist.Node) gate2 {
	switch {
	case n.Kind != netlist.KindGate, len(n.Fanin) == 0, len(n.Fanin) > 2:
		return gate2{op: opGeneric} // inputs, DFFs, constants, wide gates
	case len(n.Fanin) == 1 && (n.Op == logic.OpXor || n.Op == logic.OpXnor):
		return gate2{op: opGeneric} // XOR(a, a) is not a
	}
	return gate2{op: n.Op, a: int32(n.Fanin[0]), b: int32(n.Fanin[len(n.Fanin)-1])}
}

// eval is the flat kernel: the gate's word from its two fanin words. It
// agrees bit for bit with logic.EvalW over [a, b] (or [a] for a
// one-fanin entry) on every op flatGate admits.
func (k gate2) eval(a, b logic.W) logic.W {
	switch k.op {
	case logic.OpAnd, logic.OpBuf:
		return logic.AndW(a, b)
	case logic.OpNand, logic.OpNot:
		return logic.NotW(logic.AndW(a, b))
	case logic.OpOr:
		return logic.OrW(a, b)
	case logic.OpNor:
		return logic.NotW(logic.OrW(a, b))
	case logic.OpXor:
		return logic.XorW(a, b)
	default: // logic.OpXnor
		return logic.NotW(logic.XorW(a, b))
	}
}

// evalGood evaluates the gate over a complete row with no injection:
// the flat kernel where it applies, the generic fold otherwise.
func (p *prog) evalGood(id int, val []logic.W) logic.W {
	if k := p.gates[id]; k.op != opGeneric {
		return k.eval(val[k.a], val[k.b])
	}
	return p.eval(id, val, nil, 0)
}

// fanDiverged reports whether any fanin of the gate is marked in div.
func (p *prog) fanDiverged(id int, div []bool) bool {
	for _, f := range p.fanins[p.fanStart[id]:p.fanStart[id+1]] {
		if div[f] {
			return true
		}
	}
	return false
}

// evalOv is eval against a sparse overlay: a fanin's word comes from
// its overlay cell when the cell's stamp matches the current epoch (the
// fanin diverged from the good machine this cycle) and from the good
// row otherwise. The overlay is a flat struct-of-arrays: one ovCell
// holds both the stamp and the diverged word, so the divergence check
// and the word load hit the same cache line. A gate without branch
// injections takes the flat kernel when it has one.
func (p *prog) evalOv(id int, good []logic.W, ov []ovCell, epoch int64, row []pair, live uint64) logic.W {
	if k := p.gates[id]; k.op != opGeneric && row == nil {
		a, b := good[k.a], good[k.b]
		if cell := &ov[k.a]; cell.stamp == epoch {
			a = cell.w
		}
		if cell := &ov[k.b]; cell.stamp == epoch {
			b = cell.w
		}
		return k.eval(a, b)
	}
	fan := p.fanins[p.fanStart[id]:p.fanStart[id+1]]
	op := p.op[id]
	var acc logic.W
	switch op {
	case logic.OpConst0:
		return logic.WAll(logic.Zero)
	case logic.OpConst1:
		return logic.WAll(logic.One)
	case logic.OpBuf, logic.OpNot:
		f := fan[0]
		acc = good[f]
		if cell := &ov[f]; cell.stamp == epoch {
			acc = cell.w
		}
		if row != nil {
			acc = force(acc, row[0].ones&live, row[0].zeros&live)
		}
		if op == logic.OpNot {
			acc = logic.NotW(acc)
		}
	case logic.OpAnd, logic.OpNand:
		acc = logic.W{Ones: ^uint64(0)}
		for pin, f := range fan {
			w := good[f]
			if cell := &ov[f]; cell.stamp == epoch {
				w = cell.w
			}
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.AndW(acc, w)
		}
		if op == logic.OpNand {
			acc = logic.NotW(acc)
		}
	case logic.OpOr, logic.OpNor:
		acc = logic.W{Zeros: ^uint64(0)}
		for pin, f := range fan {
			w := good[f]
			if cell := &ov[f]; cell.stamp == epoch {
				w = cell.w
			}
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.OrW(acc, w)
		}
		if op == logic.OpNor {
			acc = logic.NotW(acc)
		}
	case logic.OpXor, logic.OpXnor:
		acc = logic.W{Zeros: ^uint64(0)}
		for pin, f := range fan {
			w := good[f]
			if cell := &ov[f]; cell.stamp == epoch {
				w = cell.w
			}
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.XorW(acc, w)
		}
		if op == logic.OpXnor {
			acc = logic.NotW(acc)
		}
	default:
		panic("fsim: prog.evalOv of unknown op")
	}
	return acc
}

// eval computes the gate's word under the group's branch injections
// (row may be nil) masked to the live machines. It is the fold-form
// equivalent of gathering the fanin words and calling logic.EvalW.
func (p *prog) eval(id int, val []logic.W, row []pair, live uint64) logic.W {
	fan := p.fanins[p.fanStart[id]:p.fanStart[id+1]]
	op := p.op[id]
	var acc logic.W
	switch op {
	case logic.OpConst0:
		return logic.WAll(logic.Zero)
	case logic.OpConst1:
		return logic.WAll(logic.One)
	case logic.OpBuf, logic.OpNot:
		acc = val[fan[0]]
		if row != nil {
			acc = force(acc, row[0].ones&live, row[0].zeros&live)
		}
		if op == logic.OpNot {
			acc = logic.NotW(acc)
		}
	case logic.OpAnd, logic.OpNand:
		acc = logic.W{Ones: ^uint64(0)}
		for pin, f := range fan {
			w := val[f]
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.AndW(acc, w)
		}
		if op == logic.OpNand {
			acc = logic.NotW(acc)
		}
	case logic.OpOr, logic.OpNor:
		acc = logic.W{Zeros: ^uint64(0)}
		for pin, f := range fan {
			w := val[f]
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.OrW(acc, w)
		}
		if op == logic.OpNor {
			acc = logic.NotW(acc)
		}
	case logic.OpXor, logic.OpXnor:
		acc = logic.W{Zeros: ^uint64(0)}
		for pin, f := range fan {
			w := val[f]
			if row != nil {
				w = force(w, row[pin].ones&live, row[pin].zeros&live)
			}
			acc = logic.XorW(acc, w)
		}
		if op == logic.OpXnor {
			acc = logic.NotW(acc)
		}
	default:
		panic("fsim: prog.eval of unknown op")
	}
	return acc
}
