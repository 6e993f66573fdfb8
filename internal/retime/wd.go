package retime

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// This file implements the exact minimum-period algorithm of Leiserson
// and Saxe ("OPT1"): all-pairs W and D matrices, candidate periods from
// the D values, and feasibility checking by solving the
// difference-constraint system with Bellman-Ford. It is quadratic in
// memory, so it is guarded to graphs of at most MaxWDVertices vertices;
// MinPeriod uses it for every graph within that cap and falls back to
// the conservative FEAS search beyond it. A probe stops at the first
// negative cycle its predecessor graph shows, and all probes of one
// search share one constraint buffer and one set of Bellman-Ford
// slices.

// MaxWDVertices bounds the graph size for the matrix algorithm: both
// the quadratic memory and the cubic Floyd-Warshall pass stop being
// pleasant around a thousand vertices.
const MaxWDVertices = 1000

// WDMatrices returns the Leiserson-Saxe W and D matrices:
// W[u][v] is the minimum register count over all u->v paths, and
// D[u][v] is the maximum total vertex delay over the minimum-register
// u->v paths (including both endpoints). Unreachable pairs hold
// W = math.MaxInt32 and D = math.MinInt32.
func (g *Graph) WDMatrices() (W [][]int32, D [][]int32, err error) {
	n := len(g.Verts)
	if n > MaxWDVertices {
		return nil, nil, fmt.Errorf("retime: %d vertices exceeds the W/D matrix cap of %d", n, MaxWDVertices)
	}
	const infW = math.MaxInt32
	const negD = math.MinInt32
	W = make([][]int32, n)
	D = make([][]int32, n)
	for u := range W {
		W[u] = make([]int32, n)
		D[u] = make([]int32, n)
		for v := range W[u] {
			W[u][v] = infW
			D[u][v] = negD
		}
		// The empty path: zero registers, just the vertex's own delay.
		W[u][u] = 0
		D[u][u] = int32(g.Verts[u].Delay)
	}
	for e := range g.Edges {
		ed := &g.Edges[e]
		w := int32(ed.W)
		d := int32(g.Verts[ed.From].Delay + g.Verts[ed.To].Delay)
		if w < W[ed.From][ed.To] || (w == W[ed.From][ed.To] && d > D[ed.From][ed.To]) {
			W[ed.From][ed.To] = w
			D[ed.From][ed.To] = d
		}
	}
	// Floyd-Warshall on the lexicographic (register count, -delay) cost.
	for k := 0; k < n; k++ {
		wk, dk := W[k], D[k]
		delayK := int32(g.Verts[k].Delay)
		for u := 0; u < n; u++ {
			wu := W[u]
			if wu[k] == infW {
				continue
			}
			du := D[u]
			wuk, duk := wu[k], du[k]-delayK // k counted twice
			wu, du = wu[:len(wk)], du[:len(wk)]
			for v, wkv := range wk {
				if wkv == infW {
					continue
				}
				w := wuk + wkv
				d := duk + dk[v]
				if w < wu[v] || (w == wu[v] && d > du[v]) {
					wu[v] = w
					du[v] = d
				}
			}
		}
	}
	return W, D, nil
}

// MinPeriodWD computes a minimum-period retiming with the W/D-matrix
// algorithm: binary search over the distinct D values, testing each
// candidate period by solving the difference constraints
//
//	r(u) - r(v) <= w(e)            for every edge u->v
//	r(u) - r(v) <= W(u,v) - 1      whenever D(u,v) > c
//
// with Bellman-Ford (a negative cycle means infeasible). Fixed vertices
// are tied together with zero-difference constraints and normalized to
// lag zero.
func (g *Graph) MinPeriodWD() (Retiming, int, error) {
	return g.minPeriodWD(context.Background())
}

// minPeriodWD is MinPeriodWD with ctx checked before every
// binary-search probe; cancellation returns ctx.Err() unwrapped.
func (g *Graph) minPeriodWD(ctx context.Context) (Retiming, int, error) {
	s, err := g.newWDSolver()
	if err != nil {
		return nil, 0, err
	}
	cands := s.cands
	lo, hi := 0, len(cands)-1
	var best Retiming
	bestPeriod := -1
	for lo <= hi {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		mid := (lo + hi) / 2
		if r, ok := s.feasible(int(cands[mid])); ok {
			best, bestPeriod = r, int(cands[mid])
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("retime: no feasible period found for %q", g.Name)
	}
	if err := g.Check(best); err != nil {
		return nil, 0, err
	}
	// The achieved period can be below the tested candidate.
	if _, p, ok := g.Delta(best); ok && p < bestPeriod {
		bestPeriod = p
	}
	return best, bestPeriod, nil
}

// wdSolver holds the W/D matrices and candidate periods of one
// minimum-period search and the scratch its feasibility probes share.
type wdSolver struct {
	g     *Graph
	W, D  [][]int32
	cands []int32 // attainable clock periods (distinct D values), ascending

	cons []int32 // flattened (u, v, k) triples: r(u) - r(v) <= k
	dist []int64 // Bellman-Ford distances from the virtual source
	pred []int32 // vertex whose constraint last lowered dist; -1 = source
	mark []int32 // predecessor-walk stamps, see predCycle
	walk int32   // last stamp handed out
}

func (g *Graph) newWDSolver() (*wdSolver, error) {
	W, D, err := g.WDMatrices()
	if err != nil {
		return nil, err
	}
	n := len(g.Verts)
	cands := make([]int32, 0, n*n)
	for _, row := range D {
		for _, d := range row {
			if d != math.MinInt32 {
				cands = append(cands, d)
			}
		}
	}
	// The largest system a probe builds: every edge, every finite D
	// entry and two ties per fixed vertex.
	maxCons := len(g.Edges) + len(cands) + 2*n
	slices.Sort(cands)
	return &wdSolver{
		g: g, W: W, D: D,
		cands: slices.Compact(cands),
		cons:  make([]int32, 0, 3*maxCons),
		dist:  make([]int64, n),
		pred:  make([]int32, n),
		mark:  make([]int32, n),
	}, nil
}

// feasible solves the period-c constraint system. Shortest-path
// distances from the virtual source are unique, so the retiming does
// not depend on relaxation order or on how early an infeasible system
// is rejected.
func (s *wdSolver) feasible(c int) (Retiming, bool) {
	g := s.g
	n := len(g.Verts)
	cons := s.cons[:0]
	for e := range g.Edges {
		ed := &g.Edges[e]
		cons = append(cons, int32(ed.From), int32(ed.To), int32(ed.W))
	}
	for u := 0; u < n; u++ {
		wu, du := s.W[u], s.D[u]
		for v := 0; v < n; v++ {
			if wu[v] != math.MaxInt32 && du[v] != math.MinInt32 && int(du[v]) > c {
				cons = append(cons, int32(u), int32(v), wu[v]-1)
			}
		}
	}
	// Tie all fixed vertices together at equal lag.
	fixed := -1
	for v := range g.Verts {
		if !g.Verts[v].Fixed() {
			continue
		}
		if fixed >= 0 {
			cons = append(cons, int32(fixed), int32(v), 0, int32(v), int32(fixed), 0)
		} else {
			fixed = v
		}
	}
	s.cons = cons
	// Bellman-Ford from a virtual source connected to every vertex.
	dist, pred := s.dist, s.pred
	for v := range dist {
		dist[v], pred[v] = 0, -1
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for i := 0; i+2 < len(cons); i += 3 {
			u, v := cons[i], cons[i+1]
			if d := dist[v] + int64(cons[i+2]); d < dist[u] {
				dist[u], pred[u] = d, v
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n-1 || s.predCycle() {
			return nil, false // negative cycle
		}
	}
	r := make(Retiming, n)
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

// predCycle reports whether the predecessor graph holds a cycle. Every
// pred link was set by a strict relaxation, so such a cycle has
// negative weight and the system is infeasible. Each walk follows pred
// links from a vertex no walk of this call has visited, stamping what
// it passes with its own id: meeting its own stamp closes a cycle;
// meeting an earlier walk's stamp, or the source, ends the walk. Stamps
// from earlier calls are at most base and count as unvisited.
func (s *wdSolver) predCycle() bool {
	base := s.walk
	for v := range s.pred {
		if s.mark[v] > base {
			continue
		}
		s.walk++
		id := s.walk
		for u := int32(v); u >= 0; u = s.pred[u] {
			if m := s.mark[u]; m == id {
				return true
			} else if m > base {
				break
			}
			s.mark[u] = id
		}
	}
	return false
}
