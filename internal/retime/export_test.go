package retime

import "context"

// Test-only handles on unexported solvers for the external retime_test
// package, whose tests import experiments (which imports retime).

// MinPeriodFEAS runs the binary-search-over-FEAS fallback directly.
func (g *Graph) MinPeriodFEAS() (Retiming, int, error) {
	return g.minPeriodFEAS(context.Background())
}

// WDProbe returns the W/D search's candidate periods and its
// per-period feasibility probe.
func (g *Graph) WDProbe() ([]int32, func(c int) (Retiming, bool), error) {
	s, err := g.newWDSolver()
	if err != nil {
		return nil, nil, err
	}
	return s.cands, s.feasible, nil
}
