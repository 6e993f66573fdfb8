package fsim

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Stats counts the work an engine or Simulator performed. All counters
// are deterministic for a given circuit, fault list and stimulus, so
// they double as a portable effort measure.
type Stats struct {
	// Cycles is the number of group-cycles simulated (one group
	// advancing one clock counts once; the shared good-machine pass
	// counts as one group).
	Cycles int64
	// Evals is the number of word-parallel gate evaluations performed.
	// The event-driven engine evaluates only scheduled gates, so
	// Evals/Cycles is the events-per-cycle figure of merit.
	Evals int64
	// Drops is the number of fault machines masked out of the injection
	// tables (detected mid-run or dropped through the API).
	Drops int64
	// Repacks is the number of group repacking passes performed.
	Repacks int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Evals += other.Evals
	s.Drops += other.Drops
	s.Repacks += other.Repacks
}

// EventsPerCycle returns the average number of gate evaluations per
// simulated group-cycle (the full-sweep engine would report the gate
// count of the circuit).
func (s Stats) EventsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Evals) / float64(s.Cycles)
}

// group is one word-pair batch of faulty machines: up to GroupWidth
// faults packed next to the good machine in bit 0. A group owns its
// flip-flop state words, so it can be carried across Simulate calls and
// simulated independently of every other group. Retired groups are
// recycled through the Simulator's group pool, so steady-state
// repacking allocates nothing.
type group struct {
	faults []fault.Fault // fault k drives bit k+1; group-owned storage
	state  []logic.W     // per-DFF two-rail words
	live   uint64        // mask of not-yet-detected, not-dropped fault bits
}

// liveCount returns the number of live faults in the group.
func (g *group) liveCount() int { return bits.OnesCount64(g.live) }

// detection is one (fault bit, cycle) event produced by a group run.
type detection struct {
	k int // index into group.faults
	t int // absolute cycle of first detection
}

// ovCell is one node's overlay entry: the diverged word and the epoch
// that validates it, packed side by side so the hot loop's "did this
// fanin diverge, and what is its word" check touches one cache line
// instead of two parallel slices.
type ovCell struct {
	w     logic.W // diverged word, meaningful only when stamp == epoch
	stamp int64   // epoch of last divergence
}

// eventEngine simulates one group against a precomputed good-machine
// trajectory. Because bit 0 of every word is the good machine and
// injections never touch bit 0, a group's word at a node can differ
// from the broadcast good word only inside the propagation cone of its
// fault-injection sites. The engine exploits that: each cycle it seeds
// events at the injection sites and at flip-flops whose state diverged,
// then evaluates only the diverging cone level by level against an
// epoch-stamped overlay. Nodes outside the cone are never touched --
// their word is the good word, read straight from the shared
// trajectory. One engine serves many groups in turn; all scratch state
// is sized once at construction and reused across cycles, groups and
// sequences -- invalidation is an epoch bump, never a reallocation or a
// clear.
//
// When the cone covers most of the circuit -- the few hard faults that
// survive the early sequences keep faulty machines that differ from the
// good one almost everywhere -- the event bookkeeping costs more than it
// saves. A cycle whose predecessor in the same run evaluated more than
// denseAt gates is therefore a dense cycle: every gate is swept in
// topological order into a full faulty row, no events are scheduled,
// and Evals still counts exactly the gates the event-driven cycle would
// have evaluated (injection sites plus gates with a diverged fanin), so
// every Stats counter and detection is the same in both modes.
type eventEngine struct {
	c       *netlist.Circuit
	order   []int               // gates in topological order (the dense sweep)
	level   []int               // per-node level from netlist.Levels
	gateOut [][]netlist.GateRef // shared per-node gate fanouts with levels
	prog    *prog               // shared immutable evaluation program
	inj     *injection
	ov      []ovCell // flattened overlay, valid where stamp==epoch
	epoch   int64    // bumped once per group-cycle
	queued  []bool
	buckets [][]int32 // pending gates per level, drained in level order

	// Dense-cycle scratch, per node: the faulty word, whether it differs
	// from the good word, and whether the group injects a fault there.
	row  []logic.W
	div  []bool
	site []bool
	// denseAt is the dense-cycle switch point: a cycle runs dense when
	// the previous cycle of the same run evaluated more than denseAt
	// gates. It is half the gate count; tests pin it to force a mode.
	denseAt int64

	stats Stats
}

// newEventEngine builds a worker engine over the circuit. The
// evaluation program is immutable and shared across every engine of a
// Simulator.
func newEventEngine(c *netlist.Circuit, p *prog) *eventEngine {
	order, level := c.MustLevels()
	max := 0
	for _, id := range order {
		if level[id] > max {
			max = level[id]
		}
	}
	return &eventEngine{
		c:       c,
		order:   order,
		level:   level,
		gateOut: c.GateFanouts(),
		prog:    p,
		inj:     newInjection(len(c.Nodes)),
		ov:      make([]ovCell, len(c.Nodes)),
		queued:  make([]bool, len(c.Nodes)),
		buckets: make([][]int32, max+1),
		row:     make([]logic.W, len(c.Nodes)),
		div:     make([]bool, len(c.Nodes)),
		site:    make([]bool, len(c.Nodes)),
		denseAt: int64(len(order) / 2),
	}
}

// takeStats returns and clears the engine's counters.
func (e *eventEngine) takeStats() Stats {
	s := e.stats
	e.stats = Stats{}
	return s
}

// schedule queues the gate fanouts of id for evaluation this cycle.
func (e *eventEngine) schedule(id int) {
	for _, fo := range e.gateOut[id] {
		if !e.queued[fo.ID] {
			e.queued[fo.ID] = true
			e.buckets[fo.Level] = append(e.buckets[fo.Level], fo.ID)
		}
	}
}

// diverge records the overlay word for id this cycle and propagates the
// event to its gate fanouts.
func (e *eventEngine) diverge(id int, w logic.W) {
	e.ov[id] = ovCell{w: w, stamp: e.epoch}
	e.schedule(id)
}

// run simulates the group over the block against the good trajectory
// (good[t][id] is the good-machine word of node id at block cycle t),
// starting from the group's stored flip-flop state, one event-driven or
// dense cycle at a time. Detections are appended to dets with absolute
// cycle base+t; detected bits are masked out of the live mask
// immediately (fault dropping within the run), and the group's live
// mask and state are updated in place.
func (e *eventEngine) run(g *group, block sim.Seq, good [][]logic.W, base int, dets []detection) []detection {
	c := e.c
	e.inj.reset()
	e.inj.build(c, g.faults)
	for _, id := range e.inj.touched {
		e.site[id] = true
	}
	live := g.live
	var evals, last int64
	for t := range block {
		if live == 0 {
			break
		}
		e.stats.Cycles++
		e.epoch++
		gv := good[t]
		dense := last > e.denseAt
		if dense {
			last = e.denseCycle(g, gv, live)
		} else {
			last = e.eventCycle(g, gv, live)
		}
		evals += last
		// Detection: compare faulty bits against the good bit 0 and drop
		// detected machines from the live mask so they stop forcing
		// injections. An output that did not diverge carries the
		// broadcast good word and yields no difference.
		for _, id := range c.Outputs {
			w := e.word(id, gv, dense)
			var diff uint64
			switch w.Get(0) {
			case logic.One:
				diff = w.Zeros
			case logic.Zero:
				diff = w.Ones
			default:
				continue
			}
			diff &= live
			for diff != 0 {
				bit := diff & -diff
				diff &^= bit
				live &^= bit
				e.stats.Drops++
				dets = append(dets, detection{k: bits.TrailingZeros64(bit) - 1, t: base + t})
			}
		}
		// Latch: next state is the DFF fanin word under any pin-0 branch
		// injection. Non-diverged fanins latch the good word, keeping
		// the state comparison of the next cycle exact.
		for i, id := range c.DFFs {
			w := e.word(c.Nodes[id].Fanin[0], gv, dense)
			if row := e.inj.branch[id]; row != nil {
				w = force(w, row[0].ones&live, row[0].zeros&live)
			}
			g.state[i] = w
		}
	}
	for _, id := range e.inj.touched {
		e.site[id] = false
	}
	e.stats.Evals += evals
	g.live = live
	return dets
}

// word returns the group's faulty word at id this cycle: from the dense
// row after a dense cycle, else from the overlay where the node
// diverged and the good row where it did not.
func (e *eventEngine) word(id int, gv []logic.W, dense bool) logic.W {
	if dense {
		return e.row[id]
	}
	if cell := e.ov[id]; cell.stamp == e.epoch {
		return cell.w
	}
	return gv[id]
}

// eventCycle runs one event-driven cycle into the overlay and returns
// the number of gates it evaluated.
func (e *eventEngine) eventCycle(g *group, gv []logic.W, live uint64) int64 {
	c := e.c
	// Seed: injection sites force bits wherever the stuck value
	// disagrees with the good word, and diverged flip-flop state
	// re-enters the combinational logic. Everything else is exactly the
	// good machine and stays untouched.
	for _, id := range e.inj.touched {
		switch c.Nodes[id].Kind {
		case netlist.KindGate:
			if !e.queued[id] {
				e.queued[id] = true
				e.buckets[e.level[id]] = append(e.buckets[e.level[id]], int32(id))
			}
		case netlist.KindInput:
			w := force(gv[id], e.inj.stem1[id]&live, e.inj.stem0[id]&live)
			if w != gv[id] {
				e.diverge(id, w)
			}
			// DFF sites are covered by the state scan below.
		}
	}
	for i, id := range c.DFFs {
		w := force(g.state[i], e.inj.stem1[id]&live, e.inj.stem0[id]&live)
		if w != gv[id] {
			e.diverge(id, w)
		}
	}
	// Drain: evaluate the diverging cone level by level. A gate that
	// computes the good word again (the fault effect did not propagate)
	// simply does not diverge, and its fanouts never hear about it.
	var evals int64
	for lev := 1; lev < len(e.buckets); lev++ {
		bucket := e.buckets[lev]
		for i := 0; i < len(bucket); i++ {
			id := int(bucket[i])
			e.queued[id] = false
			evals++
			w := e.prog.evalOv(id, gv, e.ov, e.epoch, e.inj.branch[id], live)
			w = force(w, e.inj.stem1[id]&live, e.inj.stem0[id]&live)
			if w != gv[id] {
				e.diverge(id, w)
			}
		}
		e.buckets[lev] = bucket[:0]
	}
	return evals
}

// denseCycle sweeps every gate in topological order into the dense
// faulty row, evaluating exactly the gates the event-driven cycle would
// have evaluated -- the injection sites plus every gate with a diverged
// fanin -- and returns their number. Every other gate takes its good
// word.
func (e *eventEngine) denseCycle(g *group, gv []logic.W, live uint64) int64 {
	c, p, inj := e.c, e.prog, e.inj
	row, div, site := e.row, e.div, e.site
	for _, id := range c.Inputs {
		w := force(gv[id], inj.stem1[id]&live, inj.stem0[id]&live)
		row[id], div[id] = w, w != gv[id]
	}
	for i, id := range c.DFFs {
		w := force(g.state[i], inj.stem1[id]&live, inj.stem0[id]&live)
		row[id], div[id] = w, w != gv[id]
	}
	var evals int64
	for _, id := range e.order {
		var w logic.W
		switch k := p.gates[id]; {
		case site[id]:
			w = p.eval(id, row, inj.branch[id], live)
			w = force(w, inj.stem1[id]&live, inj.stem0[id]&live)
		case k.op != opGeneric && (div[k.a] || div[k.b]):
			w = k.eval(row[k.a], row[k.b])
		case k.op == opGeneric && p.fanDiverged(id, div):
			w = p.eval(id, row, nil, 0)
		default:
			// No injection and no diverged fanin: the good word, which
			// the event-driven cycle would not have evaluated either.
			row[id], div[id] = gv[id], false
			continue
		}
		evals++
		row[id], div[id] = w, w != gv[id]
	}
	return evals
}
