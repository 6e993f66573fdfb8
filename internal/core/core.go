// Package core implements the paper's contribution: test set and
// synchronizing-sequence preservation under retiming.
//
// The central objects are retimed pairs -- an original circuit K and a
// retimed version K' materialized from one shared retiming graph, so
// that the paper's corresponding-fault relation (Fig. 4) is defined by
// construction -- and derived test sets: the original test set prefixed
// with a pre-determined number of arbitrary vectors (Theorem 4). The
// prefix length is the maximum number of forward retiming moves across
// any node of the graph; the fault-free synchronization variant
// (Theorem 2) only counts fanout stems.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
)

// RetimedPair couples an original circuit with a retimed version that
// share a retiming graph, giving line-level fault correspondence.
type RetimedPair struct {
	Graph    *retime.Graph   // topology with the original weights
	R        retime.Retiming // the retiming taking Original to Retimed
	Moves    retime.Moves
	Original *netlist.Circuit
	Retimed  *netlist.Circuit
	LMOrig   *retime.LineMap
	LMRet    *retime.LineMap
}

// BuildPair materializes both sides of the retiming r over graph g.
func BuildPair(g *retime.Graph, r retime.Retiming, origName, retName string) (*RetimedPair, error) {
	if err := g.Check(r); err != nil {
		return nil, err
	}
	orig, lmo, err := g.Materialize(origName)
	if err != nil {
		return nil, err
	}
	rg, err := g.Retime(r)
	if err != nil {
		return nil, err
	}
	ret, lmr, err := rg.Materialize(retName)
	if err != nil {
		return nil, err
	}
	return &RetimedPair{
		Graph: g, R: r, Moves: g.AnalyzeMoves(r),
		Original: orig, Retimed: ret, LMOrig: lmo, LMRet: lmr,
	}, nil
}

// MinPeriodPair retimes the circuit for minimum clock period -- the
// paper's performance-driven direction that Table II targets -- and
// returns the pair plus the old and new periods.
func MinPeriodPair(c *netlist.Circuit) (*RetimedPair, int, int, error) {
	return MinPeriodPairContext(context.Background(), c)
}

// MinPeriodPairContext is MinPeriodPair with cooperative cancellation,
// threaded into the retiming solver.
func MinPeriodPairContext(ctx context.Context, c *netlist.Circuit) (*RetimedPair, int, int, error) {
	g := retime.FromCircuit(c)
	before := g.Period()
	r, after, err := g.MinPeriodContext(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	pair, err := BuildPair(g, r, c.Name, c.Name+".re")
	if err != nil {
		return nil, 0, 0, err
	}
	return pair, before, after, nil
}

// RandomPair applies a random legal retiming; it drives the
// property-based checks of Corollary 1.
func RandomPair(c *netlist.Circuit, rng *rand.Rand, steps int) (*RetimedPair, error) {
	g := retime.FromCircuit(c)
	r := g.RandomRetiming(rng, steps)
	return BuildPair(g, r, c.Name, c.Name+".re")
}

// PrefixLengthTests is the paper's Theorem 3/4 prefix: the maximum
// number of forward retiming moves across any node when Original is
// retimed to Retimed.
func (p *RetimedPair) PrefixLengthTests() int { return p.Moves.MaxForward }

// PrefixLengthFaultFree is the Theorem 2 prefix for fault-free
// functional synchronizing sequences: forward moves across fanout stems
// only.
func (p *RetimedPair) PrefixLengthFaultFree() int { return p.Moves.MaxForwardStem }

// PrefixFill selects how the arbitrary prefix vectors are filled.
// Theorem 4 allows any values; the ablation benchmarks exercise all of
// these to demonstrate that.
type PrefixFill uint8

// Prefix fill modes.
const (
	FillZeros PrefixFill = iota
	FillOnes
	FillRandom
)

// PrefixVectors builds n prefix vectors of the given input width.
func PrefixVectors(n, inputs int, fill PrefixFill, seed int64) sim.Seq {
	rng := rand.New(rand.NewSource(seed))
	seq := make(sim.Seq, n)
	for t := range seq {
		v := make(sim.Vec, inputs)
		for i := range v {
			switch fill {
			case FillOnes:
				v[i] = logic.One
			case FillRandom:
				v[i] = logic.FromBool(rng.Intn(2) == 1)
			default:
				v[i] = logic.Zero
			}
		}
		seq[t] = v
	}
	return seq
}

// DeriveTestSet implements Theorem 4's construction: the test set for
// the retimed circuit is the original test set with the prefix
// prepended.
func (p *RetimedPair) DeriveTestSet(t sim.Seq, fill PrefixFill, seed int64) sim.Seq {
	prefix := PrefixVectors(p.PrefixLengthTests(), len(p.Retimed.Inputs), fill, seed)
	out := make(sim.Seq, 0, len(prefix)+len(t))
	out = append(out, prefix...)
	out = append(out, t...)
	return out
}

// MapSyncSequence maps a synchronizing sequence of the original circuit
// onto the retimed circuit per Theorem 2 (fault-free) or Theorem 3
// (faulty; set faulty to true), by prepending the appropriate prefix.
func (p *RetimedPair) MapSyncSequence(seq sim.Seq, faulty bool, fill PrefixFill, seed int64) sim.Seq {
	n := p.PrefixLengthFaultFree()
	if faulty {
		n = p.PrefixLengthTests()
	}
	prefix := PrefixVectors(n, len(p.Retimed.Inputs), fill, seed)
	out := make(sim.Seq, 0, n+len(seq))
	out = append(out, prefix...)
	out = append(out, seq...)
	return out
}

// CorrespondingInOriginal returns the faults of the original circuit
// corresponding to a fault of the retimed circuit: every fault with the
// same stuck value on the same retiming-graph edge (Fig. 4).
//
// The result can be empty in one well-defined situation: the fault sits
// on a register occupying an interior edge between two fanout points
// whose counterpart edge carries no register. The merged segment then
// has no single stuck-at site in the other circuit -- its effect there
// is a multiple stuck-at fault, the phenomenon the paper's Example 2
// points out. Preservation checks skip such faults, exactly as the
// paper's single-fault statements do.
func (p *RetimedPair) CorrespondingInOriginal(f fault.Fault) []fault.Fault {
	return mapFault(f, p.LMRet, p.LMOrig)
}

// CorrespondingInRetimed returns the faults of the retimed circuit
// corresponding to a fault of the original.
func (p *RetimedPair) CorrespondingInRetimed(f fault.Fault) []fault.Fault {
	return mapFault(f, p.LMOrig, p.LMRet)
}

func mapFault(f fault.Fault, from, to *retime.LineMap) []fault.Fault {
	sites := retime.CorrespondingSites(f.Site, from, to)
	out := make([]fault.Fault, 0, len(sites))
	for _, s := range sites {
		out = append(out, fault.Fault{Site: s, SA: f.SA})
	}
	return out
}

// PreservationReport summarizes a test-set preservation check.
type PreservationReport struct {
	Prefix   int
	Original *fsim.Result // original test set on the original circuit
	Retimed  *fsim.Result // derived test set on the retimed circuit
	// Expected counts the retimed faults whose original corresponding
	// faults were all detected; Violations lists those among them the
	// derived set failed to detect. Theorem 4 predicts no violations.
	Expected   int
	Violations []fault.Fault
}

// CheckPreservation fault-simulates the test set on the original and
// its derived version on the retimed circuit, then verifies Theorem 4:
// every retimed fault all of whose corresponding original faults are
// detected must itself be detected.
func (p *RetimedPair) CheckPreservation(testSet sim.Seq, fill PrefixFill, seed int64) (*PreservationReport, error) {
	origFaults, repOrig := fault.Collapse(p.Original)
	retFaults, repRet := fault.Collapse(p.Retimed)
	derived := p.DeriveTestSet(testSet, fill, seed)

	origRes := fsim.Run(p.Original, origFaults, testSet)
	retRes := fsim.Run(p.Retimed, retFaults, derived)

	// Detection status of every original fault (not just representatives):
	// a fault is detected exactly when its representative is.
	detectedOrig := func(f fault.Fault) (bool, error) {
		r, ok := repOrig.Rep(f)
		if !ok {
			return false, fmt.Errorf("core: fault %s not in original universe", f.Name(p.Original))
		}
		_, det := origRes.DetectedAt[r]
		return det, nil
	}

	rep := &PreservationReport{Prefix: p.PrefixLengthTests(), Original: origRes, Retimed: retRes}
	// Check the theorem over the full retimed fault universe, resolving
	// detection through class representatives.
	for _, f := range fault.Universe(p.Retimed) {
		corr := p.CorrespondingInOriginal(f)
		if len(corr) == 0 {
			continue
		}
		all := true
		for _, of := range corr {
			det, err := detectedOrig(of)
			if err != nil {
				return nil, err
			}
			if !det {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		rep.Expected++
		r, _ := repRet.Rep(f)
		if _, det := retRes.DetectedAt[r]; !det {
			rep.Violations = append(rep.Violations, f)
		}
	}
	return rep, nil
}
