package fault

import (
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// universeOracle is the original Universe, kept verbatim: it asks
// c.IsOutput per node instead of building an output mask.
func universeOracle(c *netlist.Circuit) []Fault {
	var faults []Fault
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if len(n.Fanout) > 0 || c.IsOutput(id) {
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

// collapseOracle is the original map-keyed Collapse, kept verbatim as
// the reference the dense-index implementation is checked against: a
// union-find over Fault structs, classes gathered in a map, each class
// sorted and its first member taken as the representative.
func collapseOracle(c *netlist.Circuit) (reps []Fault, repOf map[Fault]Fault) {
	u := universeOracle(c)
	uf := newMapUnionFind(u)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		for pin, drv := range n.Fanin {
			if len(c.Nodes[drv].Fanout) == 1 && !c.IsOutput(drv) {
				// Branch and stem are the same physical line. (If the
				// driver is also a primary output the stem feeds the
				// output pad too, so keep them distinct.)
				uf.union(Fault{Site{id, pin}, logic.Zero}, Fault{Site{drv, StemPin}, logic.Zero})
				uf.union(Fault{Site{id, pin}, logic.One}, Fault{Site{drv, StemPin}, logic.One})
			}
		}
		if n.Kind != netlist.KindGate {
			continue
		}
		stem := Site{id, StemPin}
		if len(n.Fanout) == 0 && !c.IsOutput(id) {
			continue
		}
		switch n.Op {
		case logic.OpBuf:
			uf.union(Fault{Site{id, 0}, logic.Zero}, Fault{stem, logic.Zero})
			uf.union(Fault{Site{id, 0}, logic.One}, Fault{stem, logic.One})
		case logic.OpNot:
			uf.union(Fault{Site{id, 0}, logic.Zero}, Fault{stem, logic.One})
			uf.union(Fault{Site{id, 0}, logic.One}, Fault{stem, logic.Zero})
		case logic.OpAnd:
			for pin := range n.Fanin {
				uf.union(Fault{Site{id, pin}, logic.Zero}, Fault{stem, logic.Zero})
			}
		case logic.OpNand:
			for pin := range n.Fanin {
				uf.union(Fault{Site{id, pin}, logic.Zero}, Fault{stem, logic.One})
			}
		case logic.OpOr:
			for pin := range n.Fanin {
				uf.union(Fault{Site{id, pin}, logic.One}, Fault{stem, logic.One})
			}
		case logic.OpNor:
			for pin := range n.Fanin {
				uf.union(Fault{Site{id, pin}, logic.One}, Fault{stem, logic.Zero})
			}
		}
	}
	repOf = make(map[Fault]Fault, len(u))
	classes := make(map[Fault][]Fault)
	for _, f := range u {
		r := uf.find(f)
		classes[r] = append(classes[r], f)
	}
	for _, members := range classes {
		sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
		rep := members[0]
		for _, m := range members {
			repOf[m] = rep
		}
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Less(reps[j]) })
	return reps, repOf
}

// mapUnionFind is the oracle's disjoint-set forest over faults.
type mapUnionFind struct {
	parent map[Fault]Fault
}

func newMapUnionFind(all []Fault) *mapUnionFind {
	uf := &mapUnionFind{parent: make(map[Fault]Fault, len(all))}
	for _, f := range all {
		uf.parent[f] = f
	}
	return uf
}

func (uf *mapUnionFind) find(f Fault) Fault {
	p, ok := uf.parent[f]
	if !ok {
		uf.parent[f] = f
		return f
	}
	if p == f {
		return f
	}
	root := uf.find(p)
	uf.parent[f] = root
	return root
}

func (uf *mapUnionFind) union(a, b Fault) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf.parent[ra] = rb
	}
}
