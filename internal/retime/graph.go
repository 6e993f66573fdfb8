// Package retime implements the Leiserson-Saxe retiming model used by
// the paper: a circuit is a finite edge-weighted directed graph whose
// vertices are primary inputs, primary outputs, single-output
// combinational gates and explicit fanout stems, and whose edge weights
// count the flip-flops along each interconnection.
//
// The package converts gate-level netlists to retiming graphs and back
// (tracking which fault sites lie on which graph edge, the provenance
// the paper's corresponding-fault construction needs), computes exact
// minimum-clock-period retimings with the W/D-matrix algorithm (the
// FEAS iteration for graphs beyond MaxWDVertices), reduces
// register counts with a legal-move hill climber, and decomposes any
// retiming into counts of atomic forward/backward moves per vertex --
// the quantity that determines the paper's prefix-sequence length.
package retime

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// VertKind discriminates retiming-graph vertices.
type VertKind uint8

// Vertex kinds. Input and output vertices are fixed: a legal retiming
// never moves registers across the circuit boundary.
const (
	VInput VertKind = iota
	VOutput
	VGate
	VStem
)

// String returns a short kind name.
func (k VertKind) String() string {
	switch k {
	case VInput:
		return "input"
	case VOutput:
		return "output"
	case VGate:
		return "gate"
	case VStem:
		return "stem"
	}
	return fmt.Sprintf("VertKind(%d)", uint8(k))
}

// Vert is one retiming-graph vertex.
type Vert struct {
	Kind  VertKind
	Name  string   // original node name; synthesized for stems/outputs
	Op    logic.Op // gate operation (VGate only)
	Delay int      // propagation delay: fanin count for gates, 0 otherwise
}

// Fixed reports whether the vertex must keep retiming value zero.
func (v *Vert) Fixed() bool { return v.Kind == VInput || v.Kind == VOutput }

// Edge is one retiming-graph edge: a connection carrying W flip-flops.
type Edge struct {
	From, To int
	ToPin    int // pin index at a gate target; output index at a VOutput; 0 otherwise
	W        int // register count on the connection
}

// Graph is a retiming graph. Edge and vertex indices are stable across
// Retime, so two graphs derived from the same FromCircuit call share
// line identities; that is what makes fault correspondence between a
// circuit and its retimed version well defined.
type Graph struct {
	Name    string
	Verts   []Vert
	Edges   []Edge
	Out     [][]int // per-vertex out-edge indices
	In      [][]int // per-vertex in-edge indices
	Outputs []int   // VOutput vertex indices in primary-output order
	Inputs  []int   // VInput vertex indices in primary-input order
}

// Retiming assigns an integer lag to every vertex. Positive r(v) moves
// registers backward across v (from its outputs to its inputs);
// negative r(v) moves them forward. Fixed vertices must have r == 0.
type Retiming []int

// Zero returns the identity retiming for the graph.
func (g *Graph) Zero() Retiming { return make(Retiming, len(g.Verts)) }

// WeightAfter returns the weight of edge e under retiming r:
// w'(e) = w(e) + r(head) - r(tail).
func (g *Graph) WeightAfter(r Retiming, e int) int {
	ed := &g.Edges[e]
	return ed.W + r[ed.To] - r[ed.From]
}

// Check reports whether r is a legal retiming: fixed vertices keep lag
// zero and every edge weight stays non-negative.
func (g *Graph) Check(r Retiming) error {
	if len(r) != len(g.Verts) {
		return fmt.Errorf("retime: retiming has %d lags for %d vertices", len(r), len(g.Verts))
	}
	for v := range g.Verts {
		if g.Verts[v].Fixed() && r[v] != 0 {
			return fmt.Errorf("retime: fixed vertex %q has lag %d", g.Verts[v].Name, r[v])
		}
	}
	for e := range g.Edges {
		if w := g.WeightAfter(r, e); w < 0 {
			return fmt.Errorf("retime: edge %s->%s weight %d under retiming",
				g.Verts[g.Edges[e].From].Name, g.Verts[g.Edges[e].To].Name, w)
		}
	}
	return nil
}

// Retime returns a new graph with the same topology and the edge
// weights implied by r. It fails if r is illegal.
func (g *Graph) Retime(r Retiming) (*Graph, error) {
	if err := g.Check(r); err != nil {
		return nil, err
	}
	out := &Graph{
		Name:    g.Name + ".re",
		Verts:   append([]Vert(nil), g.Verts...),
		Edges:   append([]Edge(nil), g.Edges...),
		Out:     g.Out,
		In:      g.In,
		Outputs: g.Outputs,
		Inputs:  g.Inputs,
	}
	for e := range out.Edges {
		out.Edges[e].W = g.WeightAfter(r, e)
	}
	return out, nil
}

// Registers returns the total edge weight: the number of flip-flops the
// graph materializes (stem sharing is modeled by the explicit stem
// vertices, so this matches the DFF count of the materialized netlist).
func (g *Graph) Registers() int {
	total := 0
	for e := range g.Edges {
		total += g.Edges[e].W
	}
	return total
}

// FromCircuit converts a netlist into its retiming graph. Flip-flops
// become edge weights; every signal that fans out to two or more sinks
// (counting primary-output observation as a sink) gets an explicit stem
// vertex. Flip-flops whose output drives nothing are dropped.
func FromCircuit(c *netlist.Circuit) *Graph {
	g := &Graph{Name: c.Name}
	vertOf := make([]int, len(c.Nodes)) // netlist node -> vertex (gates/inputs)
	for i := range vertOf {
		vertOf[i] = -1
	}
	for _, id := range c.Inputs {
		vertOf[id] = g.addVert(Vert{Kind: VInput, Name: c.Nodes[id].Name})
		g.Inputs = append(g.Inputs, vertOf[id])
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.Kind == netlist.KindGate {
			vertOf[id] = g.addVert(Vert{Kind: VGate, Name: n.Name, Op: n.Op, Delay: netlist.GateDelay(n)})
		}
	}
	outVert := make([]int, len(c.Outputs))
	for o := range c.Outputs {
		outVert[o] = g.addVert(Vert{Kind: VOutput, Name: fmt.Sprintf("po%d", o)})
		g.Outputs = append(g.Outputs, outVert[o])
	}

	// sink lists per netlist node: gate/DFF consumers plus output pads.
	type sink struct {
		node int // consumer netlist node, or -1 for an output pad
		pin  int // consumer pin, or output index
	}
	sinks := make([][]sink, len(c.Nodes))
	for id := range c.Nodes {
		for pin, f := range c.Nodes[id].Fanin {
			sinks[f] = append(sinks[f], sink{id, pin})
		}
	}
	for o, id := range c.Outputs {
		sinks[id] = append(sinks[id], sink{-1, o})
	}

	// Walk each driver's fanout web, collapsing DFF chains into weights
	// and inserting stem vertices at multi-sink points.
	var handle func(fromVert, w int, s sink)
	var emit func(fromVert, w, node int)
	emit = func(fromVert, w, node int) {
		ss := sinks[node]
		switch {
		case len(ss) == 0:
			// dangling signal: nothing to connect
		case len(ss) == 1:
			handle(fromVert, w, ss[0])
		default:
			stem := g.addVert(Vert{Kind: VStem, Name: c.Nodes[node].Name + "#stem"})
			g.addEdge(Edge{From: fromVert, To: stem, W: w})
			for _, s := range ss {
				handle(stem, 0, s)
			}
		}
	}
	handle = func(fromVert, w int, s sink) {
		if s.node < 0 {
			g.addEdge(Edge{From: fromVert, To: outVert[s.pin], ToPin: s.pin, W: w})
			return
		}
		n := &c.Nodes[s.node]
		if n.Kind == netlist.KindDFF {
			emit(fromVert, w+1, s.node)
			return
		}
		g.addEdge(Edge{From: fromVert, To: vertOf[s.node], ToPin: s.pin, W: w})
	}
	for id := range c.Nodes {
		if k := c.Nodes[id].Kind; k == netlist.KindInput || k == netlist.KindGate {
			emit(vertOf[id], 0, id)
		}
	}
	return g
}

func (g *Graph) addVert(v Vert) int {
	g.Verts = append(g.Verts, v)
	g.Out = append(g.Out, nil)
	g.In = append(g.In, nil)
	return len(g.Verts) - 1
}

func (g *Graph) addEdge(e Edge) int {
	idx := len(g.Edges)
	g.Edges = append(g.Edges, e)
	g.Out[e.From] = append(g.Out[e.From], idx)
	g.In[e.To] = append(g.In[e.To], idx)
	return idx
}

// LineMap records, for a materialized circuit, which retiming-graph edge
// every fault site lies on. Two circuits materialized from retimings of
// the same graph share edge indices, so composing one circuit's EdgeOf
// with the other's SitesOf yields exactly the paper's corresponding
// faults (Fig. 4).
type LineMap struct {
	EdgeOf  map[fault.Site]int
	SitesOf [][]fault.Site
}

// CorrespondingSites returns the sites in the "to" circuit that lie on
// the same graph edge as the given site of the "from" circuit.
func CorrespondingSites(s fault.Site, from, to *LineMap) []fault.Site {
	e, ok := from.EdgeOf[s]
	if !ok {
		return nil
	}
	return to.SitesOf[e]
}
