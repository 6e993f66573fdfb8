package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/resultcache"
	"repro/internal/retime"
	"repro/internal/service"
	"repro/internal/sim"
)

// layerCounts accumulates the work counters of a replay.
type layerCounts struct {
	Jobs         int
	ATPGTargets  int64 // targets the merge loop asked a candidate for
	ATPGDetected int64 // of those, candidates that detected their target
	ATPGEvals    int64
	Backtracks   int64
	CkWrites     int64 // checkpoints the merge wrote successfully
	Speculated   int64 // parallel engine counters, from the references
	Wasted       int64
	Fsim         fsim.Stats
}

// replayer re-runs generated requests in-process through the public
// function of each layer servd's pipeline passes through, recording a
// span around every call. With a nil tracer it runs the same calls
// untraced.
type replayer struct {
	tr     *tracer
	cache  *resultcache.Cache
	ckDir  string
	counts *layerCounts
	nck    int
}

// errReplayMismatch marks a replay that did not reproduce the program's
// output.
var errReplayMismatch = errors.New("replay does not reproduce the reference")

// job replays one request and checks that the decomposition reproduces
// the reference: the same result digest and, for ATPG-bearing kinds,
// the same ATPG payload bytes and derived test set.
func (r *replayer) job(ctx context.Context, j *job, ref reference) error {
	root := r.tr.start("job", j.Label, 0)
	defer r.tr.end(root)
	r.counts.Jobs++
	req := &j.Req

	sp := r.tr.start("netlist.parse", j.Label, root)
	c, err := netlist.ParseBenchString("job", req.Bench)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	var faults []fault.Fault
	if req.Kind != service.KindRetime {
		faults = r.collapse(j, root, c)
	}

	sp = r.tr.start("resultcache.lookup", j.Label, root)
	key := requestKey(req, c, faults)
	payload, _, hit := r.cache.Get(key)
	var res *service.Result
	if hit {
		res = &service.Result{}
		err = json.Unmarshal(payload, res)
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if !hit {
		if res, err = r.compute(ctx, j, root, c, ref); err != nil {
			return err
		}
	}
	d, _, err := resultDigest(res)
	if err != nil {
		return err
	}
	if d != ref.Digest {
		return fmt.Errorf("%w: %s result digest %s, want %s", errReplayMismatch, j.Label, d, ref.Digest)
	}
	return nil
}

func (r *replayer) collapse(j *job, parent int, c *netlist.Circuit) []fault.Fault {
	sp := r.tr.start("fault.collapse", j.Label, parent)
	defer r.tr.end(sp)
	faults, _ := fault.Collapse(c)
	return faults
}

// compute runs the kind's pipeline the way the service's dispatch does,
// with the ATPG leg decomposed by replayATPG.
func (r *replayer) compute(ctx context.Context, j *job, root int, c *netlist.Circuit, ref reference) (*service.Result, error) {
	req := &j.Req
	opt := req.ATPG.Options()
	switch req.Kind {
	case service.KindRetime:
		sp := r.tr.start("retime.min_period", j.Label, root)
		pair, before, after, err := core.MinPeriodPairContext(ctx, c)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &service.Result{Retime: &service.RetimeResult{
			Bench:        netlist.BenchString(pair.Retimed),
			PeriodBefore: before,
			PeriodAfter:  after,
			PrefixTests:  pair.PrefixLengthTests(),
			PrefixSync:   pair.PrefixLengthFaultFree(),
		}}, nil
	case service.KindATPG:
		faults := r.collapse(j, root, c)
		res, err := r.replayATPG(ctx, j, root, c, faults, opt, ref)
		if err != nil {
			return nil, err
		}
		out := atpgResult(res, len(faults))
		// The decomposition runs the merge serially; servd's parallel
		// engine echoes the worker count it was asked for.
		if opt.Workers > 1 {
			out.Workers = opt.Workers
		}
		return &service.Result{ATPG: out}, nil
	case service.KindFaultSim:
		seq := sim.ParseSeq(req.Tests)
		faults := r.collapse(j, root, c)
		res, err := r.fsim(ctx, j, root, c, faults, seq)
		if err != nil {
			return nil, err
		}
		return &service.Result{FaultSim: faultSimResult(c, res, len(faults), len(seq))}, nil
	case service.KindDeriveTests:
		return r.fig6(ctx, j, root, c, opt, ref)
	}
	return nil, fmt.Errorf("job kind %q: %w", req.Kind, errUnsupported)
}

// fig6 replays core.Fig6FlowContext step by step: register-minimal
// retiming (greedy fallback included), ATPG on the easy circuit, the
// Theorem 4 prefix, and fault simulation on the implementation.
func (r *replayer) fig6(ctx context.Context, j *job, root int, impl *netlist.Circuit, opt atpg.Options, ref reference) (*service.Result, error) {
	sp := r.tr.start("retime.min_registers", j.Label, root)
	g := retime.FromCircuit(impl)
	rmin, _, err := g.MinRegistersContext(ctx)
	if err != nil {
		if ctx.Err() != nil {
			r.tr.end(sp)
			return nil, ctx.Err()
		}
		rmin = g.ReduceRegisters(g.Zero(), math.MaxInt)
	}
	easyGraph, err := g.Retime(rmin)
	var pair *core.RetimedPair
	if err == nil {
		pair, err = core.BuildPair(easyGraph, retime.Invert(rmin), impl.Name+".min", impl.Name)
	}
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	easyFaults := r.collapse(j, root, pair.Original)
	easy, err := r.replayATPG(ctx, j, root, pair.Original, easyFaults, opt, ref)
	if err != nil {
		return nil, err
	}
	derived := pair.DeriveTestSet(easy.TestSet, core.FillZeros, 0)
	if d := seqDigest(derived); d != ref.Derived {
		return nil, fmt.Errorf("%w: %s derived vectors %s, want %s", errReplayMismatch, j.Label, d, ref.Derived)
	}
	implFaults := r.collapse(j, root, pair.Retimed)
	implRes, err := r.fsim(ctx, j, root, pair.Retimed, implFaults, derived)
	if err != nil {
		return nil, err
	}
	return &service.Result{Derive: deriveResult(pair, easy, derived, implFaults, implRes)}, nil
}

func (r *replayer) fsim(ctx context.Context, j *job, parent int, c *netlist.Circuit, faults []fault.Fault, seq sim.Seq) (*fsim.Result, error) {
	sp := r.tr.start("fsim.run", j.Label, parent)
	res, err := fsim.RunContext(ctx, c, faults, seq)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.counts.Fsim.Add(res.Stats)
	return res, nil
}

// replayATPG decomposes atpg.RunContext: the random phase timed through
// RandomSurvivors, then the deterministic merge through
// RunContextWithCandidates with a lookup that times GenerateShard on
// each single target. The merge's self time is the grading, bookkeeping
// and checkpoint writes around the PODEM calls. The result's payload
// must be byte-identical to RunContext's.
func (r *replayer) replayATPG(ctx context.Context, j *job, parent int, c *netlist.Circuit, faults []fault.Fault, opt atpg.Options, ref reference) (*atpg.Result, error) {
	run := r.tr.start("atpg.run", j.Label, parent)
	defer r.tr.end(run)

	sp := r.tr.start("atpg.random", j.Label, run)
	_, err := atpg.RandomSurvivors(ctx, c, faults, opt)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}

	shardOpt := opt
	shardOpt.Checkpoint = atpg.CheckpointConfig{}
	merge := r.tr.start("atpg.merge", j.Label, run)
	var lookupErr error
	lookup := func(f fault.Fault) (atpg.DecidedFault, bool) {
		sp := r.tr.start("atpg.podem", j.Label, merge)
		d, err := atpg.GenerateShard(ctx, c, []fault.Fault{f}, shardOpt)
		r.tr.end(sp)
		if err != nil || len(d) != 1 {
			lookupErr = errors.Join(lookupErr, err, fmt.Errorf("GenerateShard returned %d decisions", len(d)))
			return atpg.DecidedFault{}, false
		}
		r.counts.ATPGTargets++
		if d[0].Status == atpg.StatusDetected {
			r.counts.ATPGDetected++
		}
		return d[0], true
	}
	r.nck++
	ckPath := filepath.Join(r.ckDir, "replay-"+strconv.Itoa(r.nck)+".ckpt")
	opt.Checkpoint = atpg.CheckpointConfig{Path: ckPath, OnWrite: func(_ *atpg.Checkpoint, err error) {
		if err == nil {
			r.counts.CkWrites++
		}
	}}
	res, err := atpg.RunContextWithCandidates(ctx, c, faults, opt, lookup)
	r.tr.end(merge)
	os.Remove(ckPath)
	if err = errors.Join(err, lookupErr); err != nil {
		return nil, err
	}
	if p := digest(atpg.EncodeResultPayload(res)); p != ref.ATPGPayload {
		return nil, fmt.Errorf("%w: %s ATPG payload %s, RunContext gave %s", errReplayMismatch, j.Label, p, ref.ATPGPayload)
	}
	r.counts.ATPGEvals += res.Effort.Evals
	r.counts.Backtracks += res.Effort.Backtracks
	r.counts.Fsim.Add(res.FsimStats)
	return res, nil
}

// requestKey derives a request's result-cache key the way the service
// does: circuit and collapsed fault list through the checkpoint
// identity hashes, the kind and result-affecting knobs folded into the
// options slot.
func requestKey(req *service.Request, c *netlist.Circuit, faults []fault.Fault) resultcache.Key {
	opt := req.ATPG.Options()
	ch, fh, oh := atpg.IdentityHashes(c, faults, opt)
	parts := []string{"service.v1", string(req.Kind)}
	switch req.Kind {
	case service.KindRetime:
		mode := req.Mode
		if mode == "" {
			mode = "period"
		}
		parts = append(parts, mode)
	case service.KindATPG:
		workers := opt.Workers
		if workers <= 1 {
			workers = 0
		}
		parts = append(parts, strconv.FormatUint(oh, 16), strconv.Itoa(workers))
	case service.KindFaultSim:
		parts = append(parts, req.Tests)
	case service.KindDeriveTests:
		parts = append(parts, strconv.FormatUint(oh, 16), "zeros", "0")
	}
	return resultcache.Key{Circuit: ch, Faults: fh, Options: resultcache.ParamsHash(parts...)}
}

// jobKey parses a job's circuit and derives its cache key.
func jobKey(j *job) (resultcache.Key, error) {
	c, err := netlist.ParseBenchString("job", j.Req.Bench)
	if err != nil {
		return resultcache.Key{}, err
	}
	var faults []fault.Fault
	if j.Req.Kind != service.KindRetime {
		faults, _ = fault.Collapse(c)
	}
	return requestKey(&j.Req, c, faults), nil
}
