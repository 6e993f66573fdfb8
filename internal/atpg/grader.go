package atpg

import (
	"context"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// grader abstracts the fault-dropping backend of Run. Both phases of
// the generator (random grading and post-generation dropping) simulate
// a sequence from the all-X state over the surviving faults and retire
// the detected ones. The incremental simGrader is the production path;
// the tests add a full-sweep oracle grader to benchmark the old
// re-simulate-everything cost model and to cross-check the incremental
// engine.
type grader interface {
	// grade simulates seq from the unknown initial state over the
	// surviving faults, retires the detected ones, and returns them. A
	// cancelled context stops the simulation within one fsim block; the
	// detections of the processed prefix are still retired and returned
	// alongside the context error.
	grade(ctx context.Context, seq sim.Seq) ([]fault.Fault, error)
	// drop retires a fault out of band (generated, aborted, redundant).
	drop(f fault.Fault)
	// liveCount returns the number of surviving faults.
	liveCount() int
	// remaining returns the surviving faults in fault-list order.
	remaining() []fault.Fault
	// stats returns accumulated fault-simulation work counters.
	stats() fsim.Stats
}

// graderFunc builds a grader over the fault list.
type graderFunc func(c *netlist.Circuit, faults []fault.Fault) grader

// simGrader is the incremental event-driven backend: one persistent
// fsim.Simulator reused across every sequence, so detected faults are
// never packed or simulated again and sparse groups are repacked.
type simGrader struct{ s *fsim.Simulator }

func newSimGrader(c *netlist.Circuit, faults []fault.Fault) grader {
	return &simGrader{s: fsim.NewSimulator(c, faults)}
}

func (g *simGrader) grade(ctx context.Context, seq sim.Seq) ([]fault.Fault, error) {
	g.s.Reset()
	return g.s.SimulateContext(ctx, seq)
}

func (g *simGrader) drop(f fault.Fault)       { g.s.Drop(f) }
func (g *simGrader) liveCount() int           { return g.s.LiveCount() }
func (g *simGrader) remaining() []fault.Fault { return g.s.Remaining() }
func (g *simGrader) stats() fsim.Stats        { return g.s.Stats() }
