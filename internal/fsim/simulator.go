package fsim

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Simulator is a persistent, event-driven, fault-dropping fault
// simulator. Where Run answers one (fault list, sequence) question from
// scratch, a Simulator carries its bookkeeping across calls: faults
// detected by one Simulate call are dropped from the injection tables
// of the next, sparse groups are repacked into dense words between
// sequences, and the flip-flop state words persist, so
//
//	s := NewSimulator(c, faults)
//	s.Simulate(s1)
//	s.Simulate(s2)
//
// produces exactly the DetectedAt map of Run(c, faults, append(s1,
// s2...)). Call Reset between sequences to restart from the all-X state
// instead (the ATPG fault-dropping pattern, where every test is an
// independent sequence applied to an unsynchronized machine), or Rearm
// to forget every verdict and start over on the full fault list.
//
// Gates with at most two fanins -- every gate of the synthesized
// Table II circuits -- evaluate through the flat gate kernel (prog's
// per-gate op/fanin table) in the good-machine sweep, in event-driven
// cycles and in dense cycles; a group whose previous cycle evaluated
// more than half of the gates sweeps its next cycle densely instead of
// scheduling events (see eventEngine). Neither changes a detection or
// a Stats counter.
//
// All scratch state -- the per-worker event engines and their overlay
// and injection arenas, the good-machine trajectory buffers, the
// per-group detection lists, and the group structures themselves -- is
// owned by the Simulator and recycled across calls. After the first
// Simulate call over a sequence length, steady-state Simulate calls on
// the single-worker path allocate nothing except the returned
// newly-detected slice (nil when nothing new is detected);
// TestSimulateSteadyStateAllocs pins that budget.
//
// A Simulator is not safe for concurrent use; internally it spreads
// independent groups across goroutines when the live fault count is
// large enough to pay for them.
type Simulator struct {
	c      *netlist.Circuit
	faults []fault.Fault

	detectedAt map[fault.Fault]int
	dropped    map[fault.Fault]bool
	groups     []*group
	loc        map[fault.Fault]faultLoc
	prog       *prog          // immutable evaluation program, shared by all engines
	engines    []*eventEngine // one per worker, grown on demand
	cycle      int            // absolute cycle count across Simulate calls
	liveTotal  int
	stats      Stats

	// The good machine's trajectory is identical in every group (bit 0
	// never sees an injection), so it is simulated exactly once per
	// block and shared read-only by all group engines. goodState
	// persists the good flip-flop words across Simulate calls; goodAt
	// is the per-block scratch trajectory, one word row per cycle,
	// carved out of a single flat arena and reused across calls.
	goodState []logic.W
	goodAt    [][]logic.W
	goodOrder []int

	// Recycled scratch: dets is the per-group detection scratch of
	// runGroups (slice-of-slices, lengths reset per call, capacities
	// kept); groupPool holds retired group structures whose faults and
	// state storage pack and repack reuse; keepBuf/donorBuf are
	// repack's classification scratch.
	dets      [][]detection
	groupPool []*group
	keepBuf   []*group
	donorBuf  []*group

	// forceParallel widens the worker pool regardless of the live fault
	// count; tests set it to exercise the parallel path on short lists.
	forceParallel bool
	// maxWorkers caps the internal group-worker pool (0 = automatic
	// GOMAXPROCS sizing); see SetMaxWorkers.
	maxWorkers int
}

// faultLoc addresses one fault inside the current grouping.
type faultLoc struct{ group, bit int }

// NewSimulator creates a persistent simulator over the fault list. All
// flip-flops start at X.
func NewSimulator(c *netlist.Circuit, faults []fault.Fault) *Simulator {
	order, _ := c.MustLevels()
	s := &Simulator{
		c:          c,
		faults:     faults,
		detectedAt: make(map[fault.Fault]int, len(faults)),
		dropped:    make(map[fault.Fault]bool),
		prog:       buildProg(c),
		goodState:  make([]logic.W, len(c.DFFs)),
		goodOrder:  order,
	}
	s.pack(faults)
	return s
}

// newGroup returns a zeroed group, recycling a retired one from the
// pool when available so steady-state pack/repack cycles allocate
// nothing.
func (s *Simulator) newGroup() *group {
	if n := len(s.groupPool); n > 0 {
		g := s.groupPool[n-1]
		s.groupPool[n-1] = nil
		s.groupPool = s.groupPool[:n-1]
		for i := range g.state {
			g.state[i] = logic.W{}
		}
		g.faults = g.faults[:0]
		g.live = 0
		return g
	}
	return &group{state: make([]logic.W, len(s.c.DFFs))}
}

// pack (re)builds the group partition from the given live faults.
// Fault slices are copied into group-owned storage (never aliased into
// the caller's list) so repack can rebuild them in place.
func (s *Simulator) pack(live []fault.Fault) {
	s.groups = s.groups[:0]
	if s.loc == nil {
		s.loc = make(map[fault.Fault]faultLoc, len(live))
	} else {
		clear(s.loc)
	}
	for start := 0; start < len(live); start += GroupWidth {
		end := min(start+GroupWidth, len(live))
		g := s.newGroup()
		g.faults = append(g.faults, live[start:end]...)
		for k, f := range g.faults {
			g.live |= uint64(1) << uint(k+1)
			s.loc[f] = faultLoc{group: len(s.groups), bit: k + 1}
		}
		s.groups = append(s.groups, g)
	}
	s.liveTotal = len(live)
}

// Reset returns every flip-flop of every machine to X, so the next
// Simulate call starts a fresh sequence from the unknown initial state.
// Detection bookkeeping, dropped faults and the absolute cycle counter
// are preserved.
func (s *Simulator) Reset() {
	for _, g := range s.groups {
		for i := range g.state {
			g.state[i] = logic.W{}
		}
	}
	for i := range s.goodState {
		s.goodState[i] = logic.W{}
	}
}

// Rearm forgets every verdict and returns the simulator to its
// just-constructed state over the original fault list: no detections,
// no drops, all flip-flops X, cycle zero. Unlike building a fresh
// Simulator it reuses every internal buffer -- the engines with their
// overlay and injection arenas, the good-trajectory rows, the group
// structures -- so a caller replaying many independent test sets over
// the same circuit (cmd/faultsim -repeat, soak loops, benchmarks) pays
// the construction cost once.
func (s *Simulator) Rearm() {
	clear(s.detectedAt)
	clear(s.dropped)
	s.cycle = 0
	s.stats = Stats{}
	for i := range s.goodState {
		s.goodState[i] = logic.W{}
	}
	s.groupPool = append(s.groupPool, s.groups...)
	s.pack(s.faults)
}

// SetMaxWorkers caps the number of goroutines Simulate spreads groups
// across; 0 restores the automatic GOMAXPROCS sizing. Callers running
// many Simulators side by side -- the parallel ATPG's per-shard
// graders -- set 1 so each shard stays single-threaded and the outer
// engine owns the parallelism instead of oversubscribing it.
func (s *Simulator) SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.maxWorkers = n
}

// Alive reports whether the fault is still being simulated: in the
// fault list and neither detected nor dropped. Unknown faults report
// false, so a caller deciding to skip work on a dead fault (the
// parallel ATPG shards) can never skip one this simulator has no
// verdict on.
func (s *Simulator) Alive(f fault.Fault) bool {
	if _, det := s.detectedAt[f]; det {
		return false
	}
	if s.dropped[f] {
		return false
	}
	_, ok := s.loc[f]
	return ok
}

// Drop removes the fault from further simulation (its injection bit is
// masked out and it will never be reported detected). Dropping an
// already-detected or unknown fault is a no-op. This is the hook for
// callers that dispose of faults by other means -- a deterministic test
// generator that just produced a test for it, or a redundancy proof.
func (s *Simulator) Drop(f fault.Fault) {
	if _, det := s.detectedAt[f]; det || s.dropped[f] {
		return
	}
	l, ok := s.loc[f]
	if !ok {
		return
	}
	g := s.groups[l.group]
	bit := uint64(1) << uint(l.bit)
	if g.live&bit == 0 {
		return
	}
	g.live &^= bit
	s.dropped[f] = true
	s.liveTotal--
	s.stats.Drops++
}

// Simulate applies the sequence to every live machine, continuing from
// the current flip-flop state, and returns the newly detected faults in
// fault-list order. Detection cycles (see DetectedAt) are absolute: the
// t-th vector of this call is cycle Cycles()+t.
func (s *Simulator) Simulate(seq sim.Seq) []fault.Fault {
	newly, _ := s.SimulateContext(context.Background(), seq)
	return newly
}

// SimulateContext is Simulate with cooperative cancellation: the context
// is checked once per 128-cycle good-machine block, so a cancelled or
// expired simulation stops within one block. On early stop it returns
// the context error; the simulator remains consistent, behaving exactly
// as if only the processed prefix of seq had been applied (detections
// within that prefix are recorded and Cycles advances by its length).
func (s *Simulator) SimulateContext(ctx context.Context, seq sim.Seq) ([]fault.Fault, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(seq) == 0 || s.liveTotal == 0 {
		s.cycle += len(seq)
		return nil, nil
	}
	s.repack()
	dets, processed, err := s.runGroups(ctx, seq)
	total := 0
	for _, d := range dets {
		total += len(d)
	}
	var newly []fault.Fault
	if total > 0 {
		newly = make([]fault.Fault, 0, total)
		for gi, g := range s.groups {
			for _, d := range dets[gi] {
				f := g.faults[d.k]
				s.detectedAt[f] = d.t
				s.liveTotal--
				newly = append(newly, f)
			}
		}
		slices.SortFunc(newly, func(a, b fault.Fault) int {
			switch {
			case a.Less(b):
				return -1
			case b.Less(a):
				return 1
			default:
				return 0
			}
		})
	}
	s.cycle += processed
	return newly, err
}

// goodBlock is the number of cycles of good-machine trajectory
// materialized at a time. Blocking bounds the trajectory scratch to
// goodBlock word rows regardless of sequence length.
const goodBlock = 128

// ensureGoodRows grows the good-trajectory scratch to at least rows
// rows, backed by one flat arena so the rows of a block sit
// contiguously in memory. Growth is monotone and capped at goodBlock
// rows, so after the first full-sized block every call is a no-op.
func (s *Simulator) ensureGoodRows(rows int) {
	if rows <= len(s.goodAt) {
		return
	}
	n := len(s.c.Nodes)
	arena := make([]logic.W, rows*n)
	goodAt := make([][]logic.W, rows)
	for r := range goodAt {
		goodAt[r] = arena[r*n : (r+1)*n : (r+1)*n]
	}
	s.goodAt = goodAt
}

// computeGood simulates the good machine over the block with a full
// topological sweep per cycle, filling s.goodAt[t] with the broadcast
// word of every node and advancing s.goodState. This runs once per
// block and is amortized over every group.
func (s *Simulator) computeGood(block sim.Seq) {
	c := s.c
	s.ensureGoodRows(len(block))
	p := s.prog
	for t, in := range block {
		row := s.goodAt[t]
		for i, id := range c.Inputs {
			row[id] = logic.WAll(in[i])
		}
		for i, id := range c.DFFs {
			row[id] = s.goodState[i]
		}
		for _, id := range s.goodOrder {
			row[id] = p.evalGood(id, row)
		}
		for i, id := range c.DFFs {
			s.goodState[i] = row[c.Nodes[id].Fanin[0]]
		}
	}
	s.stats.Cycles += int64(len(block))
	s.stats.Evals += int64(len(block)) * int64(len(s.goodOrder))
}

// parBlock is one good-trajectory block handed to the worker pool.
type parBlock struct {
	block sim.Seq
	base  int
}

// runGroups runs the sequence over every group in good-trajectory
// blocks, spreading groups across workers when the workload pays for
// it, and returns per-group detection lists plus the number of cycles
// actually processed. The context is checked once per block; on
// cancellation the remaining blocks are skipped and the context error
// returned, with every detection from the processed prefix intact.
//
// The returned detection lists alias the Simulator's recycled scratch
// and are valid until the next Simulate call. Workers are spawned once
// per call (not once per block): each block is broadcast to the pool
// and the groups are claimed from a shared atomic index, so the
// steady-state allocation cost is zero on the single-worker path and
// O(workers) per call on the parallel one.
func (s *Simulator) runGroups(ctx context.Context, seq sim.Seq) ([][]detection, int, error) {
	for len(s.dets) < len(s.groups) {
		s.dets = append(s.dets, nil)
	}
	dets := s.dets[:len(s.groups)]
	for i := range dets {
		dets[i] = dets[i][:0]
	}
	processed := 0
	var ctxErr error
	workers := 1
	if procs := runtime.GOMAXPROCS(0); procs > 1 &&
		(s.forceParallel || s.liveTotal > ParallelThreshold) {
		workers = procs
	}
	if s.maxWorkers > 0 && workers > s.maxWorkers {
		workers = s.maxWorkers
	}
	if workers > len(s.groups) {
		workers = len(s.groups)
	}
	if workers < 1 {
		workers = 1
	}
	for len(s.engines) < workers {
		s.engines = append(s.engines, newEventEngine(s.c, s.prog))
	}

	if workers > 1 {
		// The parallel path lives in its own method so its coordination
		// state (channel, wait groups, closures) never escapes to the
		// heap on the zero-alloc serial path.
		return s.runGroupsParallel(ctx, seq, dets, workers)
	}

	eng := s.engines[0]
	for start := 0; start < len(seq); start += goodBlock {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		end := min(start+goodBlock, len(seq))
		block := seq[start:end]
		processed = end
		s.computeGood(block)
		base := s.cycle + start
		for gi, g := range s.groups {
			if g.live != 0 {
				dets[gi] = eng.run(g, block, s.goodAt, base, dets[gi])
			}
		}
	}
	s.stats.Add(eng.takeStats())
	return dets, processed, ctxErr
}

// runGroupsParallel is runGroups' multi-worker tail: the worker pool is
// spawned once for the whole call, each block is broadcast to it, and
// workers claim groups from a shared atomic index. Coordination costs
// O(workers) allocations per call, independent of block and group
// counts.
func (s *Simulator) runGroupsParallel(ctx context.Context, seq sim.Seq, dets [][]detection, workers int) ([][]detection, int, error) {
	processed := 0
	var ctxErr error
	var (
		next atomic.Int64
		done sync.WaitGroup // per-block barrier
		exit sync.WaitGroup // pool teardown
	)
	work := make(chan parBlock)
	exit.Add(workers)
	for w := 0; w < workers; w++ {
		eng := s.engines[w]
		go func() {
			defer exit.Done()
			for pb := range work {
				for {
					gi := int(next.Add(1)) - 1
					if gi >= len(s.groups) {
						break
					}
					if g := s.groups[gi]; g.live != 0 {
						dets[gi] = eng.run(g, pb.block, s.goodAt, pb.base, dets[gi])
					}
				}
				done.Done()
			}
		}()
	}

	for start := 0; start < len(seq); start += goodBlock {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		end := min(start+goodBlock, len(seq))
		block := seq[start:end]
		processed = end
		s.computeGood(block)
		base := s.cycle + start
		// Broadcast the block: every worker receives one token, claims
		// groups from the shared index until they run out, then reports
		// done. The barrier below makes the next computeGood safe (it
		// overwrites the rows the workers are reading).
		next.Store(0)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			work <- parBlock{block: block, base: base}
		}
		done.Wait()
	}
	close(work)
	exit.Wait()
	for _, eng := range s.engines {
		s.stats.Add(eng.takeStats())
	}
	return dets, processed, ctxErr
}

// repack consolidates sparse groups before a sequence: every group
// whose live count has fallen below half of GroupWidth donates its
// survivors to new, densely packed groups. Survivor state words are
// remapped bit by bit, so repacking is invisible to the simulation
// semantics; it only shrinks the number of group passes and tightens
// the injection masks. Retired groups return to the pool, so a
// steady-state Drop/repack churn reuses the same storage.
func (s *Simulator) repack() {
	keep := s.keepBuf[:0]
	donors := s.donorBuf[:0]
	dead := 0
	for _, g := range s.groups {
		switch {
		case g.live == 0:
			// fully detected/dropped; recycle (never read again)
			s.groupPool = append(s.groupPool, g)
			dead++
		case g.liveCount() < GroupWidth/2:
			donors = append(donors, g)
		default:
			keep = append(keep, g)
		}
	}
	s.keepBuf, s.donorBuf = keep[:0], donors[:0]
	if len(donors) == 0 && dead == 0 {
		return // nothing to do
	}
	// Only repack when it merges groups or drops dead ones; repacking a
	// single sparse group in isolation buys nothing once its injection
	// masks are already live-masked.
	if len(donors) == 1 && dead == 0 {
		return
	}
	s.stats.Repacks++
	newGroups := append(s.groups[:0], keep...)
	var cur *group
	var curBit int
	for _, g := range donors {
		for k, f := range g.faults {
			bit := uint64(1) << uint(k+1)
			if g.live&bit == 0 {
				continue
			}
			if cur == nil || curBit > GroupWidth {
				cur = s.newGroup()
				// The good machine's trajectory is identical in every
				// group (it never sees an injection), so any donor's bit
				// 0 seeds the new group's good state.
				for i := range cur.state {
					cur.state[i] = cur.state[i].Set(0, g.state[i].Get(0))
				}
				newGroups = append(newGroups, cur)
				curBit = 1
			}
			cur.faults = append(cur.faults, f)
			cur.live |= uint64(1) << uint(curBit)
			for i := range cur.state {
				cur.state[i] = cur.state[i].Set(uint(curBit), g.state[i].Get(uint(k+1)))
			}
			curBit++
		}
	}
	// Donors were read during the rebuild above; only now are they safe
	// to recycle.
	s.groupPool = append(s.groupPool, donors...)
	s.groups = newGroups
	clear(s.loc)
	for gi, g := range s.groups {
		for k, f := range g.faults {
			if g.live&(uint64(1)<<uint(k+1)) != 0 {
				s.loc[f] = faultLoc{group: gi, bit: k + 1}
			}
		}
	}
}

// DetectedAt returns the detection map: fault to absolute first
// detection cycle. The returned map is the simulator's own; treat it as
// read-only.
func (s *Simulator) DetectedAt() map[fault.Fault]int { return s.detectedAt }

// Detected returns the number of detected faults so far.
func (s *Simulator) Detected() int { return len(s.detectedAt) }

// Cycles returns the number of vectors simulated so far across all
// Simulate calls.
func (s *Simulator) Cycles() int { return s.cycle }

// LiveCount returns the number of faults still being simulated
// (neither detected nor dropped).
func (s *Simulator) LiveCount() int { return s.liveTotal }

// Remaining returns the faults neither detected nor dropped, in
// fault-list order.
func (s *Simulator) Remaining() []fault.Fault {
	var out []fault.Fault
	for _, f := range s.faults {
		if _, det := s.detectedAt[f]; !det && !s.dropped[f] {
			out = append(out, f)
		}
	}
	return out
}

// Stats returns the accumulated work counters.
func (s *Simulator) Stats() Stats { return s.stats }

// Result snapshots the simulator into the Result shape Run returns.
func (s *Simulator) Result() *Result {
	det := make(map[fault.Fault]int, len(s.detectedAt))
	for f, t := range s.detectedAt {
		det[f] = t
	}
	return &Result{Circuit: s.c, Faults: s.faults, DetectedAt: det, Stats: s.stats}
}
