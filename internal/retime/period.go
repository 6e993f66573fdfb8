package retime

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Delta computes, for every vertex, the longest combinational (zero
// weight) path delay ending at and including that vertex under retiming
// r, plus the resulting clock period. ok is false when the zero-weight
// subgraph has a cycle (which a legal retiming of a well-formed circuit
// can never produce).
func (g *Graph) Delta(r Retiming) (delta []int, period int, ok bool) {
	delta = make([]int, len(g.Verts))
	indeg := make([]int, len(g.Verts))
	for e := range g.Edges {
		if g.WeightAfter(r, e) == 0 {
			indeg[g.Edges[e].To]++
		}
	}
	queue := make([]int, 0, len(g.Verts))
	for v := range g.Verts {
		if indeg[v] == 0 {
			queue = append(queue, v)
			delta[v] = g.Verts[v].Delay
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		if delta[v] > period {
			period = delta[v]
		}
		for _, e := range g.Out[v] {
			if g.WeightAfter(r, e) != 0 {
				continue
			}
			to := g.Edges[e].To
			if d := delta[v] + g.Verts[to].Delay; d > delta[to] {
				delta[to] = d
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if seen != len(g.Verts) {
		return nil, 0, false
	}
	return delta, period, true
}

// Period returns the clock period of the graph as weighted (identity
// retiming): the longest zero-weight path delay.
func (g *Graph) Period() int {
	_, p, ok := g.Delta(g.Zero())
	if !ok {
		return math.MaxInt
	}
	return p
}

// FEAS runs the Leiserson-Saxe feasibility iteration for clock period c
// and returns a legal retiming achieving period <= c, or ok == false
// when the iteration cannot certify the period. Fixed vertices (primary
// inputs and outputs) keep lag 0; when an excessive arrival lands on a
// fixed vertex the iteration gives up, which makes FEAS *conservative*
// in this multi-fixed-vertex setting: it never accepts an infeasible
// period, but it can reject feasible ones whose solutions require
// parking registers on I/O edges. MinPeriod therefore prefers the exact
// W/D-matrix algorithm and falls back to FEAS only for graphs too large
// for quadratic matrices.
func (g *Graph) FEAS(c int) (Retiming, bool) {
	r := g.Zero()
	for iter := 0; iter <= len(g.Verts); iter++ {
		delta, period, ok := g.Delta(r)
		if !ok {
			return nil, false
		}
		if period <= c {
			return r, true
		}
		for v := range g.Verts {
			if delta[v] > c && g.Verts[v].Fixed() {
				return nil, false
			}
		}
		for v := range g.Verts {
			if delta[v] > c {
				r[v]++
			}
		}
	}
	return nil, false
}

// MinPeriod finds the minimum feasible clock period and a retiming
// achieving it. For graphs of moderate size it runs the exact
// Leiserson-Saxe W/D-matrix algorithm; beyond that it binary-searches
// integer periods with the (conservative) FEAS iteration, which can
// overestimate the optimum on pathological I/O-bound structures but
// always returns a legal retiming.
func (g *Graph) MinPeriod() (Retiming, int, error) {
	return g.MinPeriodContext(context.Background())
}

// MinPeriodContext is MinPeriod with cooperative cancellation, checked
// before the W/D matrices are built, before every binary-search probe
// of the W/D search and once per binary-search round of the FEAS
// fallback. A cancelled W/D search returns ctx's error; it never falls
// back to FEAS.
func (g *Graph) MinPeriodContext(ctx context.Context) (Retiming, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if len(g.Verts) <= MaxWDVertices {
		r, p, err := g.minPeriodWD(ctx)
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return r, p, err
		}
	}
	return g.minPeriodFEAS(ctx)
}

// minPeriodFEAS is the binary-search-over-FEAS fallback.
func (g *Graph) minPeriodFEAS(ctx context.Context) (Retiming, int, error) {
	hi := g.Period()
	if hi == math.MaxInt {
		return nil, 0, fmt.Errorf("retime: graph %q has a zero-weight cycle", g.Name)
	}
	lo := 0
	for v := range g.Verts {
		if d := g.Verts[v].Delay; d > lo {
			lo = d
		}
	}
	best, bestPeriod := g.Zero(), hi
	for lo < bestPeriod {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		mid := (lo + bestPeriod) / 2
		if r, ok := g.FEAS(mid); ok {
			// FEAS guarantees period <= mid; take the achieved period.
			_, p, _ := g.Delta(r)
			best, bestPeriod = r, p
		} else {
			lo = mid + 1
		}
	}
	if err := g.Check(best); err != nil {
		return nil, 0, err
	}
	return best, bestPeriod, nil
}
