package atpg

import (
	"context"
	"slices"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// engine is the per-circuit PODEM machinery. One engine is reused for
// every target fault; generate resets the per-fault state. All search
// scratch -- frame rows, event queues, error sets, visited marks, the
// backtrace stacks -- is owned by the engine and reused across
// decisions, frame counts and faults, so a warmed engine allocates only
// the test sequences it returns. The immutable structural tables live
// in the shared program.
type engine struct {
	*program

	// per-fault search state
	f          fault.Fault
	frames     int
	free       bool        // free-state (redundancy check) mode
	pi         [][]logic.V // rows from frames on are spares kept for reuse
	state      []logic.V
	val        [][]logic.C
	evals      int64
	backtracks int64
	budget     int64
	stack      []decision

	// Implication. Each simulate call is charged the historical
	// full-sweep cost, (frames-dirty)*len(order) gate evaluations, so
	// budgets and Effort keep their meaning, but it evaluates only the
	// gates whose inputs changed.
	//
	// dirty is the first frame touched by the assignments made since the
	// last implication (an assignment at frame t cannot change earlier
	// frames).
	dirty int
	// swept is false until the first implication after reset, which
	// evaluates every frame; later implications are event-driven.
	swept bool
	// pending[t] lists the source nodes of frame t whose value may have
	// changed: assigned inputs, free-state flip-flops (frame 0 only) and
	// flip-flops whose data input changed in frame t-1.
	pending   [][]int32
	queued    []bool    // gate already scheduled in the frame being drained
	buckets   [][]int32 // scheduled gates per level
	scheduled int       // gates scheduled in the frame being drained
	// denseAt is the scheduled-gate count past which drain sweeps the
	// rest of a frame densely.
	denseAt int

	// errs[t] lists the nodes carrying a fault effect in frame t, in no
	// particular order; errAt[t*len(c.Nodes)+id] is 1 + the node's
	// position in errs[t], or 0 when it carries none.
	errs  [][]int32
	errAt []int32

	// frontier holds D-frontier candidates as positions in order;
	// frontierMark deduplicates them per frame.
	frontier     []int32
	frontierMark stamps
	// xmark (frames*nodes) and xstack are the visited set and DFS stack
	// of the X-path check.
	xmark  stamps
	xstack []int32
	// btFail memoizes backtrace dead ends, indexed by (frame, node,
	// value), within one top-level call; without it the
	// alternative-input DFS is exponential on reconvergent logic whose
	// paths all end at the uncontrollable initial state.
	btFail stamps
	// unknowns is the backtrace's stack of candidate fanins: each
	// recursion level pushes its candidates and pops them on return.
	unknowns []int

	// ctx enables cooperative cancellation of the search (nil = never
	// cancelled). It is polled every 256 PODEM decisions via ctxCtr, a
	// granularity coarse enough to stay off the profile; cancelled
	// latches the outcome so the iterative-deepening loop and any
	// remaining generate calls unwind immediately.
	ctx       context.Context
	ctxCtr    uint
	cancelled bool
}

// stamps is an epoch-stamped set of slots: a slot is a member when it
// holds the current epoch, so emptying the set is one increment.
type stamps struct {
	mark  []uint32
	epoch uint32
}

// reset empties the set and makes room for n slots.
func (s *stamps) reset(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: old marks would alias the new epoch
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *stamps) has(k int) bool { return s.mark[k] == s.epoch }

func (s *stamps) add(k int) { s.mark[k] = s.epoch }

// visit adds slot k and reports whether it was absent.
func (s *stamps) visit(k int) bool {
	if s.mark[k] == s.epoch {
		return false
	}
	s.mark[k] = s.epoch
	return true
}

// excitable reports whether the fault site's good rail is still unknown
// in some frame, i.e. a new fault effect can still be created.
func (e *engine) excitable() bool {
	drv := e.siteDriver()
	for t := 0; t < e.frames; t++ {
		if e.val[t][drv].Good == logic.X {
			return true
		}
	}
	return false
}

// decision is one PODEM decision: a primary input of some frame, or
// (frame == -1) a free-state variable.
type decision struct {
	frame   int
	idx     int
	v       logic.V
	flipped bool
}

// generate runs the full per-fault flow: optional redundancy check,
// then iterative deepening PODEM. It returns the test sequence when one
// is found.
func (e *engine) generate(f fault.Fault) (sim.Seq, FaultStatus) {
	e.f = f
	e.evals, e.backtracks = 0, 0
	e.budget = e.opt.MaxEvalsPerFault
	if e.cancelled {
		return nil, StatusAborted
	}

	if e.opt.IdentifyRedundant {
		found, exhausted := e.podem(1, true)
		if !found && exhausted {
			return nil, StatusRedundant
		}
	}
	for n := 1; n <= e.opt.MaxFrames; n++ {
		found, _ := e.podem(n, false)
		if found {
			return e.extractTest(), StatusDetected
		}
		if e.cancelled {
			break
		}
		if e.budget > 0 && e.evals >= e.budget {
			break
		}
	}
	return nil, StatusAborted
}

// podem runs the branch-and-bound search over n frames. It reports
// whether a test was found and, if not, whether the search space was
// exhausted (as opposed to hitting a limit).
func (e *engine) podem(n int, free bool) (found, exhausted bool) {
	e.reset(n, free)
	e.stack = e.stack[:0]
	backtracksLeft := int64(e.opt.MaxBacktracks)
	for {
		if e.budget > 0 && e.evals >= e.budget {
			return false, false
		}
		if e.ctx != nil {
			e.ctxCtr++
			if e.cancelled || e.ctxCtr&255 == 0 && e.ctx.Err() != nil {
				e.cancelled = true
				return false, false
			}
		}
		e.simulate()
		if e.detected() {
			return true, false
		}
		if dec, ok := e.nextDecision(); ok {
			e.assign(dec.frame, dec.idx, dec.v)
			e.stack = append(e.stack, dec)
			continue
		}
		// Backtrack.
		for {
			if len(e.stack) == 0 {
				return false, true
			}
			top := &e.stack[len(e.stack)-1]
			if !top.flipped {
				backtracksLeft--
				e.backtracks++
				if backtracksLeft < 0 {
					return false, false
				}
				top.flipped = true
				top.v = logic.Not(top.v)
				e.assign(top.frame, top.idx, top.v)
				break
			}
			e.assign(top.frame, top.idx, logic.X)
			e.stack = e.stack[:len(e.stack)-1]
		}
	}
}

// reset sizes the frame expansion for a search over n decision frames
// (plus the synchronizing seed outside free mode), clears the
// assignment, and schedules a full evaluation as the next implication.
// Rows and scratch grow to the largest expansion seen and are reused.
func (e *engine) reset(n int, free bool) {
	// The synchronizing seed occupies extra leading frames; the search
	// space (decision variables) stays the n requested frames.
	nSeed := 0
	if !free && e.seed != nil {
		nSeed = len(e.seed)
	}
	e.frames = nSeed + n
	e.free = free
	nodes := len(e.c.Nodes)
	for len(e.val) < e.frames {
		e.val = append(e.val, make([]logic.C, nodes))
		e.pi = append(e.pi, make([]logic.V, len(e.c.Inputs)))
		e.pending = append(e.pending, nil)
		e.errs = append(e.errs, nil)
	}
	if need := e.frames * nodes; len(e.errAt) < need {
		e.errAt = append(e.errAt, make([]int32, need-len(e.errAt))...)
	}
	for t := 0; t < e.frames; t++ {
		if t < nSeed {
			copy(e.pi[t], e.seed[t])
			continue
		}
		for i := range e.pi[t] {
			e.pi[t][i] = logic.X
		}
	}
	for i := range e.state {
		e.state[i] = logic.X
	}
	e.dirty = 0
	e.swept = false
}

// assign sets one decision variable and queues its node as a pending
// source of the next implication.
func (e *engine) assign(frame, idx int, v logic.V) {
	if frame < 0 {
		e.state[idx] = v
		e.pending[0] = append(e.pending[0], int32(e.c.DFFs[idx]))
		e.dirty = 0
		return
	}
	e.pi[frame][idx] = v
	e.pending[frame] = append(e.pending[frame], int32(e.c.Inputs[idx]))
	if frame < e.dirty {
		e.dirty = frame
	}
}

// inject applies the target fault to the value on the given site: the
// faulty rail is forced to the stuck value, the good rail is untouched.
func (e *engine) inject(site fault.Site, c logic.C) logic.C {
	if site == e.f.Site {
		c.Faulty = e.f.SA
	}
	return c
}

// simulate implies the current assignment over the frame expansion.
// The first call after reset is a full sweep; every later call is
// event-driven: it re-evaluates the pending sources frame by frame,
// propagates each value change through the gate fanouts in level
// order, and hands changed flip-flop data inputs to the next frame as
// pending sources. A gate is evaluated only when one of its fanins
// changed, so the result equals a full sweep at a fraction of the
// work. Effort is charged as the full sweep from the dirty frame on.
func (e *engine) simulate() {
	e.evals += int64(e.frames-e.dirty) * int64(len(e.order))
	start := e.dirty
	e.dirty = e.frames
	if !e.swept {
		e.sweep()
		e.swept = true
		return
	}
	for t := start; t < e.frames; t++ {
		if len(e.pending[t]) == 0 {
			continue
		}
		for _, id := range e.pending[t] {
			if v := e.sourceValue(t, int(id)); v != e.val[t][id] {
				e.update(t, int(id), v)
			}
		}
		e.pending[t] = e.pending[t][:0]
		e.drain(t)
	}
}

// sweep evaluates every frame from scratch and rebuilds the per-frame
// error sets: the first implication of a search, when the rows still
// hold another fault's or frame count's values.
func (e *engine) sweep() {
	c := e.c
	nodes := len(c.Nodes)
	for t := 0; t < e.frames; t++ {
		e.pending[t] = e.pending[t][:0]
		vals := e.val[t]
		for _, id := range c.Inputs {
			vals[id] = e.sourceValue(t, id)
		}
		for _, id := range c.DFFs {
			vals[id] = e.sourceValue(t, id)
		}
		e.sweepFrom(t, 0)
		for _, id := range e.errs[t] {
			e.errAt[t*nodes+int(id)] = 0
		}
		e.errs[t] = e.errs[t][:0]
		for id, v := range vals {
			if v.IsError() {
				e.setError(t, id, true)
			}
		}
	}
}

// sourceValue computes the value of a primary input or flip-flop at
// frame t from the assignment and the previous frame.
func (e *engine) sourceValue(t, id int) logic.C {
	stem := fault.Site{Node: id, Pin: fault.StemPin}
	n := &e.c.Nodes[id]
	if n.Kind == netlist.KindInput {
		return e.inject(stem, logic.CFromV(e.pi[t][e.index[id]]))
	}
	var in logic.C
	switch {
	case t > 0:
		in = e.inject(fault.Site{Node: id, Pin: 0}, e.val[t-1][n.Fanin[0]])
	case e.free:
		in = logic.CFromV(e.state[e.index[id]])
	default:
		in = logic.CX
	}
	return e.inject(stem, in)
}

// evalGate evaluates gate id over the frame's values, both rails in
// one pass over the fanins (logic.EvalC would allocate per call). Only
// the faulty node's own evaluation consults the fault site. drain and
// sweepFrom take it for the fault-site gate, wide gates and constants,
// and the one-lookup flat kernel (kgate.eval) for every other gate.
func (e *engine) evalGate(vals []logic.C, id int) logic.C {
	n := &e.c.Nodes[id]
	pin := -1 // the faulted input pin of this gate, if any
	if e.f.Node == id && !e.f.IsStem() {
		pin = e.f.Pin
	}
	var out logic.C
	switch n.Op {
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		// One controlling input decides the base function; otherwise
		// any unknown input leaves it unknown.
		cv, _ := n.Op.ControllingValue()
		var goodCtl, goodX, faultyCtl, faultyX bool
		for p, fi := range n.Fanin {
			v := vals[fi]
			if p == pin {
				v.Faulty = e.f.SA
			}
			goodCtl = goodCtl || v.Good == cv
			goodX = goodX || v.Good == logic.X
			faultyCtl = faultyCtl || v.Faulty == cv
			faultyX = faultyX || v.Faulty == logic.X
		}
		out = logic.C{Good: controlled(cv, goodCtl, goodX), Faulty: controlled(cv, faultyCtl, faultyX)}
	case logic.OpXor, logic.OpXnor:
		out = logic.C0
		for p, fi := range n.Fanin {
			v := vals[fi]
			if p == pin {
				v.Faulty = e.f.SA
			}
			out = logic.C{Good: logic.Xor(out.Good, v.Good), Faulty: logic.Xor(out.Faulty, v.Faulty)}
		}
	case logic.OpBuf, logic.OpNot:
		out = vals[n.Fanin[0]]
		if pin == 0 {
			out.Faulty = e.f.SA
		}
	case logic.OpConst0:
		out = logic.C0
	case logic.OpConst1:
		out = logic.C1
	default:
		panic("atpg: unknown gate op " + n.Op.String())
	}
	if n.Op.Inverting() {
		out = logic.C{Good: logic.Not(out.Good), Faulty: logic.Not(out.Faulty)}
	}
	if e.f.Node == id && e.f.IsStem() {
		out.Faulty = e.f.SA
	}
	return out
}

// controlled is the value of an AND/OR-family base function (AND for
// cv = 0, OR for cv = 1) whose inputs include the controlling value
// (ctl) or an unknown (x).
func controlled(cv logic.V, ctl, x bool) logic.V {
	switch {
	case ctl:
		return cv
	case x:
		return logic.X
	}
	return logic.Not(cv)
}

// set stores a changed value for node id at frame t, keeps the
// frame's error set current and queues the node's flip-flop fanouts as
// pending sources of frame t+1.
func (e *engine) set(t, id int, v logic.C) {
	row := e.val[t]
	old := row[id]
	row[id] = v
	if isErr := v.IsError(); isErr != old.IsError() {
		e.setError(t, id, isErr)
	}
	if lo, hi := e.dffStart[id], e.dffStart[id+1]; lo < hi && t+1 < e.frames {
		e.pending[t+1] = append(e.pending[t+1], e.dffID[lo:hi]...)
	}
}

// update is set plus scheduling the node's gate fanouts for the
// frame's drain. Callers skip unchanged values.
func (e *engine) update(t, id int, v logic.C) {
	e.set(t, id, v)
	for k, end := e.outStart[id], e.outStart[id+1]; k < end; k++ {
		if g := e.outID[k]; !e.queued[g] {
			e.queued[g] = true
			e.scheduled++
			e.buckets[e.outLevel[k]] = append(e.buckets[e.outLevel[k]], g)
		}
	}
}

// drain evaluates the gates scheduled in frame t in level order. A gate
// only schedules fanouts of a higher level, so one pass suffices. Once
// more than denseAt gates have been scheduled, the rest of the frame
// is swept densely instead: every gate from the current level on, in
// level order, without the event bookkeeping. An unscheduled gate's
// fanins did not change, so re-evaluating it returns its stored value
// and both paths imply the same frame. Both loops spell out the
// kernel-or-evalGate choice: a method holding it does not inline.
func (e *engine) drain(t int) {
	vals := e.val[t]
	site := int32(e.f.Node)
	for l, bucket := range e.buckets {
		if e.scheduled > e.denseAt {
			e.sweepFrom(t, l)
			break
		}
		for _, id := range bucket {
			e.queued[id] = false
			var v logic.C
			if k := e.kern[id]; k.op != opGeneric && id != site {
				v = k.eval(vals)
			} else {
				v = e.evalGate(vals, int(id))
			}
			if v != vals[id] {
				e.update(t, int(id), v)
			}
		}
		e.buckets[l] = bucket[:0]
	}
	e.scheduled = 0
}

// sweepFrom drops the gates still scheduled at levels l and above and
// re-evaluates every gate of those levels of frame t in level order.
// sweep runs it from level 0 on every frame.
func (e *engine) sweepFrom(t, l int) {
	for k, bucket := range e.buckets[l:] {
		for _, id := range bucket {
			e.queued[id] = false
		}
		e.buckets[l+k] = bucket[:0]
	}
	vals := e.val[t]
	site := int32(e.f.Node)
	for _, k := range e.byLevel[e.levelStart[l]:] {
		var v logic.C
		if k.op != opGeneric && k.id != site {
			v = k.eval(vals)
		} else {
			v = e.evalGate(vals, int(k.id))
		}
		if v != vals[k.id] {
			e.set(t, int(k.id), v)
		}
	}
}

// setError adds node id to, or removes it from, the error set of frame
// t.
func (e *engine) setError(t, id int, on bool) {
	row := t * len(e.c.Nodes)
	list := e.errs[t]
	if on {
		e.errAt[row+id] = int32(len(list)) + 1
		e.errs[t] = append(list, int32(id))
		return
	}
	p := e.errAt[row+id] - 1
	last := list[len(list)-1]
	list[p] = last
	e.errAt[row+int(last)] = p + 1
	e.errAt[row+id] = 0
	e.errs[t] = list[:len(list)-1]
}

// detected reports whether a fault effect reaches an observation point:
// a primary output in any frame, plus (free mode) the pseudo outputs --
// the flip-flop data inputs of the final frame.
func (e *engine) detected() bool {
	for t := 0; t < e.frames; t++ {
		for _, id := range e.c.Outputs {
			if e.val[t][id].IsError() {
				return true
			}
		}
	}
	if e.free {
		last := e.frames - 1
		for _, id := range e.c.DFFs {
			v := e.inject(fault.Site{Node: id, Pin: 0}, e.val[last][e.c.Nodes[id].Fanin[0]])
			if v.IsError() {
				return true
			}
		}
	}
	return false
}

// siteValue returns the composite value on the fault site's line at
// frame t (after injection).
func (e *engine) siteValue(t int) logic.C {
	if e.f.IsStem() {
		return e.val[t][e.f.Node]
	}
	drv := e.c.Nodes[e.f.Node].Fanin[e.f.Pin]
	return e.inject(e.f.Site, e.val[t][drv])
}

// siteDriver returns the node whose output value feeds the fault site.
func (e *engine) siteDriver() int {
	if e.f.IsStem() {
		return e.f.Node
	}
	return e.c.Nodes[e.f.Node].Fanin[e.f.Pin]
}

// open reports whether node id at frame t can still pass a fault
// effect on: a rail is unknown, or it already carries one.
func (e *engine) open(t, id int) bool {
	v := e.val[t][id]
	return v.Good == logic.X || v.Faulty == logic.X || v.IsError()
}

// xpush marks node id at frame t visited by the X-path check and
// stacks it, unless it was visited already.
func (e *engine) xpush(t, id int) {
	k := t*len(e.c.Nodes) + id
	if e.xmark.visit(k) {
		e.xstack = append(e.xstack, int32(k))
	}
}

// xpathExists is the classical X-path check: it reports whether some
// existing fault effect can still reach an observation point through
// nodes whose value is not yet fully determined. Both rails being known
// is monotone under refinement, so a failed check soundly prunes the
// whole subtree. Without this check PODEM keeps chasing D-frontier
// gates whose errors are blocked everywhere downstream.
func (e *engine) xpathExists() bool {
	c := e.c
	n := len(c.Nodes)
	e.xmark.reset(e.frames * n)
	e.xstack = e.xstack[:0]
	// Seeds: every node already carrying an error, plus -- for a branch
	// fault -- the consuming node of the faulted input line, whose error
	// is only visible on the injected line, not on any node output.
	for t := 0; t < e.frames; t++ {
		for _, id := range e.errs[t] {
			e.xpush(t, int(id))
		}
		if !e.f.IsStem() && e.siteValue(t).IsError() {
			id := e.f.Node
			if c.Nodes[id].Kind == netlist.KindDFF {
				if t+1 < e.frames {
					e.xpush(t+1, id)
				} else if e.free {
					return true
				}
			} else if e.open(t, id) {
				e.xpush(t, id)
			}
		}
	}
	for len(e.xstack) > 0 {
		k := e.xstack[len(e.xstack)-1]
		e.xstack = e.xstack[:len(e.xstack)-1]
		t, id := int(k)/n, int(k)%n
		if e.isOut[id] {
			return true
		}
		for _, s := range c.Nodes[id].Fanout {
			if c.Nodes[s].Kind == netlist.KindDFF {
				if t+1 < e.frames {
					e.xpush(t+1, s) // the register forwards any value
				} else if e.free {
					return true // pseudo output in redundancy mode
				}
				continue
			}
			if e.open(t, s) {
				e.xpush(t, s)
			}
		}
	}
	return false
}

// frontierCandidates returns the gates of frame t that may be on the
// D-frontier, as positions in e.order, ascending: the gate fanouts of
// the frame's error-carrying nodes, plus the consuming gate of a branch
// fault, whose error lives on the injected input line only. Every gate
// with an erroneous input is among them, and visiting them in order
// position reproduces the decisions of a scan over all gates.
func (e *engine) frontierCandidates(t int) []int32 {
	e.frontierMark.reset(len(e.c.Nodes))
	cand := e.frontier[:0]
	for _, id := range e.errs[t] {
		for _, g := range e.outID[e.outStart[id]:e.outStart[id+1]] {
			if e.frontierMark.visit(int(g)) {
				cand = append(cand, e.orderPos[g])
			}
		}
	}
	if id := e.f.Node; !e.f.IsStem() && e.orderPos[id] >= 0 && e.frontierMark.visit(id) {
		cand = append(cand, e.orderPos[id])
	}
	slices.Sort(cand)
	e.frontier = cand
	return cand
}

// nextDecision finds an objective (propagation first, then excitation)
// and backtraces it to an unassigned input; ok is false when no
// objective remains, which triggers a backtrack.
func (e *engine) nextDecision() (decision, bool) {
	excited := false
	for t := 0; t < e.frames; t++ {
		if e.siteValue(t).IsError() {
			excited = true
			break
		}
	}
	if excited && !e.xpathExists() {
		// An effect exists but can no longer reach any observation
		// point: every extension of this assignment is futile unless a
		// different frame can still be excited, which the excitation
		// loop below would need an un-excited X site for -- covered by
		// falling through when the site is saturated.
		if !e.excitable() {
			return decision{}, false
		}
	}
	// Propagation: drive an error through a D-frontier gate.
	for t := e.frames - 1; t >= 0; t-- {
		for _, p := range e.frontierCandidates(t) {
			id := e.order[p]
			n := &e.c.Nodes[id]
			out := e.val[t][id]
			if out.IsError() || !out.MaybeError() {
				continue
			}
			hasError := false
			for pin, fi := range n.Fanin {
				if e.inject(fault.Site{Node: id, Pin: pin}, e.val[t][fi]).IsError() {
					hasError = true
					break
				}
			}
			if !hasError {
				continue
			}
			// Set one unknown side input to the non-controlling value.
			want := logic.One
			if cv, ok := n.Op.ControllingValue(); ok {
				want = logic.Not(cv)
			} else if n.Op == logic.OpXor || n.Op == logic.OpXnor {
				want = logic.Zero
			}
			for _, fi := range n.Fanin {
				if e.val[t][fi].Good != logic.X {
					continue
				}
				if dec, ok := e.backtrace(fi, t, want); ok {
					return dec, true
				}
			}
		}
	}
	// Excitation: make the good rail at the fault site the complement
	// of the stuck value in some frame.
	drv := e.siteDriver()
	for t := 0; t < e.frames; t++ {
		if e.siteValue(t).IsError() {
			continue // already excited here
		}
		if e.val[t][drv].Good != logic.X {
			continue
		}
		if dec, ok := e.backtrace(drv, t, logic.Not(e.f.SA)); ok {
			return dec, true
		}
	}
	return decision{}, false
}

// backtrace walks from an objective (node, frame, desired good value)
// to an unassigned primary input (or free-state variable), flipping the
// desired value through inverting gates and crossing flip-flops into
// earlier frames. It explores alternative unknown inputs depth-first so
// a dead end at the uncontrollable initial state does not hide a
// controllable path; dead ends are memoized per call to keep the
// exploration linear.
func (e *engine) backtrace(node, frame int, v logic.V) (decision, bool) {
	e.btFail.reset(2 * e.frames * len(e.c.Nodes))
	return e.backtraceMemo(node, frame, v)
}

func (e *engine) backtraceMemo(node, frame int, v logic.V) (decision, bool) {
	// Objectives are binary, so each (frame, node) line has two slots.
	key := 2*(frame*len(e.c.Nodes)+node) + int(v)
	if e.btFail.has(key) {
		return decision{}, false
	}
	dec, ok := e.backtraceStep(node, frame, v)
	if !ok {
		e.btFail.add(key)
	}
	return dec, ok
}

func (e *engine) backtraceStep(node, frame int, v logic.V) (decision, bool) {
	n := &e.c.Nodes[node]
	switch n.Kind {
	case netlist.KindInput:
		idx := e.index[node]
		if e.pi[frame][idx] != logic.X {
			return decision{}, false
		}
		return decision{frame: frame, idx: idx, v: v}, true
	case netlist.KindDFF:
		if frame == 0 {
			if !e.free {
				return decision{}, false
			}
			idx := e.index[node]
			if e.state[idx] != logic.X {
				return decision{}, false
			}
			return decision{frame: -1, idx: idx, v: v}, true
		}
		return e.backtraceMemo(n.Fanin[0], frame-1, v)
	}
	// Combinational gate.
	switch n.Op {
	case logic.OpConst0, logic.OpConst1:
		return decision{}, false
	case logic.OpBuf:
		return e.backtraceMemo(n.Fanin[0], frame, v)
	case logic.OpNot:
		return e.backtraceMemo(n.Fanin[0], frame, logic.Not(v))
	case logic.OpXor, logic.OpXnor:
		want := v
		if n.Op == logic.OpXnor {
			want = logic.Not(want)
		}
		// Desired value for the chosen unknown input assumes the other
		// unknowns stay at 0; complements are explored by backtracking.
		parity := logic.Zero
		base := len(e.unknowns)
		for _, fi := range n.Fanin {
			g := e.val[frame][fi].Good
			if g == logic.X {
				e.unknowns = append(e.unknowns, fi)
			} else {
				parity = logic.Xor(parity, g)
			}
		}
		return e.backtraceInputs(base, frame, logic.Xor(want, parity))
	}
	// AND/OR family.
	want := v
	if n.Op.Inverting() {
		want = logic.Not(want)
	}
	return e.backtraceInputs(e.unknownInputs(n, frame, want), frame, want)
}

// backtraceInputs tries the candidate fanins e.unknowns[base:] in order
// and pops them before returning. Deeper levels push above them and pop
// their own before they return, so the candidates stay in place.
func (e *engine) backtraceInputs(base, frame int, v logic.V) (decision, bool) {
	end := len(e.unknowns)
	for i := base; i < end; i++ {
		if dec, ok := e.backtraceMemo(e.unknowns[i], frame, v); ok {
			e.unknowns = e.unknowns[:base]
			return dec, true
		}
	}
	e.unknowns = e.unknowns[:base]
	return decision{}, false
}

// unknownInputs pushes the gate's X-valued fanins onto e.unknowns,
// ordered by the backtrace heuristic: cheapest-to-control first when
// guidance is on. It returns the stack position of the first one.
func (e *engine) unknownInputs(n *netlist.Node, frame int, want logic.V) int {
	base := len(e.unknowns)
	for _, fi := range n.Fanin {
		if e.val[frame][fi].Good == logic.X {
			e.unknowns = append(e.unknowns, fi)
		}
	}
	unknowns := e.unknowns[base:]
	if !e.opt.GuidedBacktrace || len(unknowns) < 2 {
		return base
	}
	cost := e.cost1
	if want == logic.Zero {
		cost = e.cost0
	}
	// insertion sort by cost; fanin lists are short
	for i := 1; i < len(unknowns); i++ {
		for j := i; j > 0 && cost[unknowns[j-1]] > cost[unknowns[j]]; j-- {
			unknowns[j-1], unknowns[j] = unknowns[j], unknowns[j-1]
		}
	}
	return base
}

// extractTest renders the current PI assignment as a test sequence,
// filling unassigned inputs with the configured fill value.
func (e *engine) extractTest() sim.Seq {
	fill := e.opt.FillValue
	if fill == logic.X {
		fill = logic.Zero
	}
	// One backing array for all vectors: two allocations per test.
	width := len(e.c.Inputs)
	flat := make(sim.Vec, e.frames*width)
	seq := make(sim.Seq, e.frames)
	for t := range seq {
		v := flat[t*width : (t+1)*width : (t+1)*width]
		for i := range v {
			if e.pi[t][i] == logic.X {
				v[i] = fill
			} else {
				v[i] = e.pi[t][i]
			}
		}
		seq[t] = v
	}
	return seq
}
