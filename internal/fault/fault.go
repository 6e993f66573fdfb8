// Package fault defines the single stuck-at fault model on gate-level
// circuits: fault sites (stems and branches), the full fault universe,
// structural equivalence collapsing, and stable fault naming.
//
// A "line" in the paper is a connection between two circuit nodes. Each
// connection contributes up to two fault sites: the stem site at the
// driving node's output (shared by all of its fanout branches) and a
// branch site at the consuming pin. When the driver has a single fanout
// the two sites are the same physical line and are collapsed.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Site identifies a fault location. Pin == StemPin means the node's
// output stem; Pin >= 0 means the line feeding input pin Pin of Node.
type Site struct {
	Node int
	Pin  int
}

// StemPin is the Pin value denoting a node's output stem.
const StemPin = -1

// IsStem reports whether the site is an output stem.
func (s Site) IsStem() bool { return s.Pin == StemPin }

// Fault is a single stuck-at fault: a site stuck at a binary value.
type Fault struct {
	Site
	SA logic.V // logic.Zero or logic.One
}

// Name renders the fault in the paper's line notation, e.g.
// "G1->G2 s-a-1" for a branch and "G1 s-a-0" for a stem.
func (f Fault) Name(c *netlist.Circuit) string {
	sa := 0
	if f.SA == logic.One {
		sa = 1
	}
	n := &c.Nodes[f.Node]
	if f.IsStem() {
		return fmt.Sprintf("%s s-a-%d", n.Name, sa)
	}
	drv := c.Nodes[n.Fanin[f.Pin]].Name
	return fmt.Sprintf("%s->%s s-a-%d", drv, n.Name, sa)
}

// Less orders faults deterministically (node, pin, stuck value).
func (f Fault) Less(g Fault) bool {
	if f.Node != g.Node {
		return f.Node < g.Node
	}
	if f.Pin != g.Pin {
		return f.Pin < g.Pin
	}
	return f.SA < g.SA
}

// Universe enumerates every stuck-at fault in the circuit: both
// polarities on every stem that drives something (or is observed as an
// output) and on every input pin of every gate and flip-flop. The list
// comes out in Less order.
func Universe(c *netlist.Circuit) []Fault {
	isOut := outputMask(c)
	var faults []Fault
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if len(n.Fanout) > 0 || isOut[id] {
			faults = append(faults,
				Fault{Site{id, StemPin}, logic.Zero},
				Fault{Site{id, StemPin}, logic.One})
		}
		for pin := range n.Fanin {
			faults = append(faults,
				Fault{Site{id, pin}, logic.Zero},
				Fault{Site{id, pin}, logic.One})
		}
	}
	return faults
}

// outputMask returns a per-node flag marking the primary outputs.
func outputMask(c *netlist.Circuit) []bool {
	isOut := make([]bool, len(c.Nodes))
	for _, id := range c.Outputs {
		isOut[id] = true
	}
	return isOut
}

// Collapse partitions the fault universe into structural equivalence
// classes and returns one representative per class, in Less order,
// together with the full representative map. The rules are the
// classical ones:
//
//   - a branch whose driver has a single fanout is the driver's stem;
//   - BUF: input s-a-v == output s-a-v; NOT: input s-a-v == output s-a-!v;
//   - AND: any input s-a-0 == output s-a-0 (NAND: == output s-a-1);
//   - OR: any input s-a-1 == output s-a-1 (NOR: == output s-a-0).
//
// No collapsing is performed across flip-flops: with unknown initial
// state a fault on a DFF input is observably different from the fault on
// its output during the first cycle, which is exactly the distinction
// the paper's prefix-sequence results hinge on.
//
// Faults are numbered densely in Less order, 2*(off[node]+pin+1)+sa,
// and classes are merged in a union-find over those indices that always
// keeps the smaller index as the root. A class's root is therefore its
// least member, which is the representative.
func Collapse(c *netlist.Circuit) (reps []Fault, repOf RepMap) {
	isOut := outputMask(c)
	off := make([]int32, len(c.Nodes)+1)
	for id := range c.Nodes {
		off[id+1] = off[id] + 1 + int32(len(c.Nodes[id].Fanin))
	}
	idx := func(node, pin int, sa logic.V) int32 {
		return 2*(off[node]+int32(pin)+1) + int32(sa)
	}
	parent := make([]int32, 2*off[len(c.Nodes)])
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		for pin, drv := range n.Fanin {
			if len(c.Nodes[drv].Fanout) == 1 && !isOut[drv] {
				// Branch and stem are the same physical line. (If the
				// driver is also a primary output the stem feeds the
				// output pad too, so keep them distinct.)
				union(idx(id, pin, logic.Zero), idx(drv, StemPin, logic.Zero))
				union(idx(id, pin, logic.One), idx(drv, StemPin, logic.One))
			}
		}
		if len(n.Fanout) == 0 && !isOut[id] {
			// A dangling stem is no fault site; mark it outside the
			// universe. Nothing ever joins its class.
			stem := idx(id, StemPin, logic.Zero)
			parent[stem], parent[stem+1] = -1, -1
			continue
		}
		if n.Kind != netlist.KindGate {
			continue
		}
		stem0 := idx(id, StemPin, logic.Zero)
		stem1 := stem0 + 1
		switch n.Op {
		case logic.OpBuf:
			union(idx(id, 0, logic.Zero), stem0)
			union(idx(id, 0, logic.One), stem1)
		case logic.OpNot:
			union(idx(id, 0, logic.Zero), stem1)
			union(idx(id, 0, logic.One), stem0)
		case logic.OpAnd:
			for pin := range n.Fanin {
				union(idx(id, pin, logic.Zero), stem0)
			}
		case logic.OpNand:
			for pin := range n.Fanin {
				union(idx(id, pin, logic.Zero), stem1)
			}
		case logic.OpOr:
			for pin := range n.Fanin {
				union(idx(id, pin, logic.One), stem1)
			}
		case logic.OpNor:
			for pin := range n.Fanin {
				union(idx(id, pin, logic.One), stem0)
			}
		}
	}
	nreps := 0
	for i, p := range parent {
		if p == int32(i) {
			nreps++
		}
	}
	// Walk the universe in index (= Less) order, pointing every fault
	// straight at its root. A non-root's parent is a smaller index, so
	// it has already been resolved to the root.
	reps = make([]Fault, 0, nreps)
	for id := range c.Nodes {
		for pin := StemPin; pin < len(c.Nodes[id].Fanin); pin++ {
			for _, sa := range [2]logic.V{logic.Zero, logic.One} {
				i := idx(id, pin, sa)
				switch p := parent[i]; {
				case p < 0:
				case p == i:
					reps = append(reps, Fault{Site{id, pin}, sa})
				default:
					parent[i] = parent[p]
				}
			}
		}
	}
	return reps, RepMap{off: off, rep: parent}
}

// RepMap maps every fault of one circuit's universe to the
// representative of its equivalence class, as computed by Collapse. It
// is slice-backed: one int32 per potential fault, in Collapse's dense
// numbering.
type RepMap struct {
	off []int32 // first site slot of each node; one trailing total
	rep []int32 // representative's index per fault; -1 outside the universe
}

// Rep returns the representative of f's class. ok is false when f is
// not in the universe of the collapsed circuit.
func (m RepMap) Rep(f Fault) (rep Fault, ok bool) {
	if f.Node < 0 || f.Node >= len(m.off)-1 || f.Pin < StemPin || f.SA > logic.One {
		return Fault{}, false
	}
	slot := int(m.off[f.Node]) + f.Pin + 1
	if slot >= int(m.off[f.Node+1]) {
		return Fault{}, false
	}
	r := m.rep[2*slot+int(f.SA)]
	if r < 0 {
		return Fault{}, false
	}
	rs := r >> 1
	node := sort.Search(len(m.off), func(n int) bool { return m.off[n] > rs }) - 1
	return Fault{Site{node, int(rs-m.off[node]) - 1}, logic.V(r & 1)}, true
}
