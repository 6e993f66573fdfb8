// Benchmarks regenerating the paper's tables and figures. Each table
// and figure of the evaluation has a benchmark that exercises exactly
// the code path the experiment harness uses; the Ablation* benchmarks
// measure the design choices DESIGN.md calls out. cmd/experiments runs
// the full sixteen-variant tables; the benchmarks use a representative
// subset per table so `go test -bench=.` completes in minutes.
package retest

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/fsmgen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
	"repro/internal/stg"
)

// benchVariants is the representative Table II/III subset benchmarked
// here: the smallest machine, a prefix-carrying one, a rugged-script
// one, and the largest.
var benchVariants = []string{"dk16.ji.sd", "pma.jo.sd", "s820.jc.sr", "scf.ji.sd"}

func benchOptions() atpg.Options {
	opt := atpg.DefaultOptions()
	opt.RandomCount = 16
	opt.RandomLength = 64
	opt.MaxEvalsPerFault = 200_000
	opt.MaxEvalsTotal = 20_000_000
	return opt
}

// variantCache memoizes the expensive synthesize+retime+ATPG pipeline
// so every benchmark measures only its own phase.
var variantCache sync.Map

type cachedVariant struct {
	pair       *core.RetimedPair
	origFaults []fault.Fault
	retFaults  []fault.Fault
	origATPG   *atpg.Result
}

func getVariant(b *testing.B, name string) *cachedVariant {
	b.Helper()
	if v, ok := variantCache.Load(name); ok {
		return v.(*cachedVariant)
	}
	var variant experiments.Variant
	found := false
	for _, v := range experiments.TableIIVariants() {
		if v.Name() == name {
			variant, found = v, true
		}
	}
	if !found {
		b.Fatalf("unknown variant %s", name)
	}
	c, err := variant.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(name))
	if err != nil {
		b.Fatal(err)
	}
	cv := &cachedVariant{pair: pair}
	cv.origFaults, _ = fault.Collapse(pair.Original)
	cv.retFaults, _ = fault.Collapse(pair.Retimed)
	cv.origATPG = atpg.Run(pair.Original, cv.origFaults, benchOptions())
	variantCache.Store(name, cv)
	return cv
}

// BenchmarkTable1Synthesis regenerates Table I: the six benchmark FSMs
// and their synthesized circuits.
func BenchmarkTable1Synthesis(b *testing.B) {
	for _, spec := range fsmgen.Benchmarks {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, s, err := fsmgen.Benchmark(spec.Name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fsmgen.Synthesize(f, fsmgen.SynthOptions{Reset: s.Reset}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2ATPG regenerates Table II rows: sequential ATPG on the
// original and the performance-retimed circuit of each variant.
func BenchmarkTable2ATPG(b *testing.B) {
	for _, name := range benchVariants {
		name := name
		b.Run("original/"+name, func(b *testing.B) {
			cv := getVariant(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := atpg.Run(cv.pair.Original, cv.origFaults, benchOptions())
				b.ReportMetric(res.FaultCoverage(), "%FC")
				b.ReportMetric(float64(res.Effort.Evals), "evals")
			}
		})
		b.Run("retimed/"+name, func(b *testing.B) {
			cv := getVariant(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := atpg.Run(cv.pair.Retimed, cv.retFaults, benchOptions())
				b.ReportMetric(res.FaultCoverage(), "%FC")
				b.ReportMetric(float64(res.Effort.Evals), "evals")
			}
		})
	}
}

// BenchmarkTable3FaultSim regenerates Table III rows: the derived
// (prefixed) test set fault-simulated on the retimed circuit, including
// the Theorem 4 preservation verdict.
func BenchmarkTable3FaultSim(b *testing.B) {
	for _, name := range benchVariants {
		name := name
		b.Run(name, func(b *testing.B) {
			cv := getVariant(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := cv.pair.CheckPreservation(cv.origATPG.TestSet, core.FillZeros, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					b.Fatalf("Theorem 4 violated: %d faults", len(rep.Violations))
				}
				b.ReportMetric(float64(len(rep.Retimed.Faults)-rep.Retimed.Detected()), "undetected")
			}
		})
	}
}

// BenchmarkFig1Correspondence measures the atomic-move fault
// correspondence construction of Fig. 1.
func BenchmarkFig1Correspondence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := retime.FromCircuit(netlist.Fig1K1())
		r := g.Zero()
		for v := range g.Verts {
			if g.Verts[v].Kind == retime.VGate && g.Verts[v].Name == "G" {
				r[v] = -1
			}
		}
		pair, err := core.BuildPair(g, r, "K1", "K2")
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fault.Universe(pair.Retimed) {
			if len(pair.CorrespondingInOriginal(f)) == 0 {
				b.Fatal("missing correspondence")
			}
		}
	}
}

// BenchmarkFig2Equivalence measures the Lemma 1 verification of Fig. 2:
// STG extraction and space-equivalence of C1 and C2.
func BenchmarkFig2Equivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m1 := stg.MustExtract(netlist.Fig2C1(), nil)
		m2 := stg.MustExtract(netlist.Fig2C2(), nil)
		eq, err := stg.SpaceEquivalent(m1, m2)
		if err != nil || !eq {
			b.Fatalf("eq=%v err=%v", eq, err)
		}
	}
}

// BenchmarkFig3Sync measures the Fig. 3 synchronizing-sequence
// machinery: the subset-construction search plus the Theorem 2 check.
func BenchmarkFig3Sync(b *testing.B) {
	l2 := stg.MustExtract(netlist.Fig3L2(), nil)
	seq := sim.ParseSeq("00,11")
	for i := 0; i < b.N; i++ {
		if _, ok, err := stg.FunctionalSync(l2, 4); err != nil || !ok {
			b.Fatal("no sync sequence")
		}
		if ok, _ := stg.IsFunctionalSync(l2, seq); !ok {
			b.Fatal("Theorem 2 instance failed")
		}
	}
}

// BenchmarkFig5FaultySync measures the Fig. 5 faulty-machine
// synchronization checks (Observation 2 / Theorem 3).
func BenchmarkFig5FaultySync(b *testing.B) {
	n1, n2 := netlist.Fig5N1(), netlist.Fig5N2()
	f1 := fault.Fault{Site: fault.Site{Node: n1.MustNodeID("G2"), Pin: 0}, SA: logic.One}
	f2 := fault.Fault{Site: fault.Site{Node: n2.MustNodeID("Q12"), Pin: 0}, SA: logic.One}
	for i := 0; i < b.N; i++ {
		if !stg.IsStructuralSync(n1, &f1, sim.ParseSeq("001,000")) {
			b.Fatal("N1 faulty sync failed")
		}
		if stg.IsStructuralSync(n2, &f2, sim.ParseSeq("001,000")) {
			b.Fatal("Observation 2 violated")
		}
		if !stg.IsStructuralSync(n2, &f2, sim.ParseSeq("000,001,000")) {
			b.Fatal("Theorem 3 violated")
		}
	}
}

// BenchmarkFig6Flow regenerates the Fig. 6 experiment: direct ATPG on a
// performance-retimed circuit vs the retime-for-testability flow.
func BenchmarkFig6Flow(b *testing.B) {
	cv := getVariant(b, "dk16.ji.sd")
	impl := cv.pair.Retimed
	implFaults, _ := fault.Collapse(impl)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := atpg.Run(impl, implFaults, benchOptions())
			b.ReportMetric(res.FaultCoverage(), "%FC")
			b.ReportMetric(float64(res.Effort.Evals), "evals")
		}
	})
	b.Run("flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := core.Fig6Flow(impl, benchOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(out.ImplCoverage(), "%FC")
			b.ReportMetric(float64(out.EasyATPG.Effort.Evals), "evals")
		}
	})
}

// BenchmarkAblationFaultParallelism compares the 63-wide fault-parallel
// simulator against serial single-fault simulation on one workload.
func BenchmarkAblationFaultParallelism(b *testing.B) {
	cv := getVariant(b, "dk16.ji.sd")
	c := cv.pair.Original
	seq := cv.origATPG.TestSet
	if len(seq) > 256 {
		seq = seq[:256]
	}
	faults := cv.origFaults
	if len(faults) > 256 {
		faults = faults[:256]
	}
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsim.Run(c, faults, seq)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				fsim.DetectsSerial(c, f, seq)
			}
		}
	})
}

// BenchmarkAblationBacktrace compares guided (SCOAP-cost) and naive
// backtrace input selection in the test generator.
func BenchmarkAblationBacktrace(b *testing.B) {
	cv := getVariant(b, "dk16.ji.sd")
	for _, guided := range []bool{true, false} {
		guided := guided
		b.Run(fmt.Sprintf("guided=%v", guided), func(b *testing.B) {
			opt := benchOptions()
			opt.GuidedBacktrace = guided
			opt.RandomPhase = false
			opt.MaxEvalsTotal = 10_000_000
			for i := 0; i < b.N; i++ {
				res := atpg.Run(cv.pair.Original, cv.origFaults, opt)
				b.ReportMetric(res.FaultCoverage(), "%FC")
			}
		})
	}
}

// BenchmarkAblationPrefixFill verifies and measures Theorem 4's
// "arbitrary vectors" claim: zero, one and random prefix fills must all
// preserve the test set.
func BenchmarkAblationPrefixFill(b *testing.B) {
	cv := getVariant(b, "pma.jo.sd") // carries a 1-vector prefix
	fills := map[string]core.PrefixFill{
		"zeros": core.FillZeros, "ones": core.FillOnes, "random": core.FillRandom,
	}
	for name, fill := range fills {
		name, fill := name, fill
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := cv.pair.CheckPreservation(cv.origATPG.TestSet, fill, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					b.Fatalf("fill %s violates Theorem 4", name)
				}
			}
		})
	}
}

// BenchmarkAblationCompaction measures static test-set compaction: the
// cost of the fixpoint passes and the vectors they save.
func BenchmarkAblationCompaction(b *testing.B) {
	cv := getVariant(b, "dk16.ji.sd")
	for i := 0; i < b.N; i++ {
		tests := append([]sim.Seq(nil), cv.origATPG.Tests...)
		kept := atpg.CompactTests(cv.pair.Original, cv.origFaults, tests)
		before, after := 0, 0
		for _, s := range tests {
			before += len(s)
		}
		for _, s := range kept {
			after += len(s)
		}
		b.ReportMetric(float64(before-after), "vectors-saved")
	}
}

// BenchmarkAblationGenerator compares the three test-generation
// engines on one circuit: structural (HITEC-style), simulation-based
// (GATEST-style genetic) and full-scan (the DFT baseline the paper's
// conclusion argues retiming avoids).
func BenchmarkAblationGenerator(b *testing.B) {
	cv := getVariant(b, "dk16.ji.sd")
	c := cv.pair.Original
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := atpg.Run(c, cv.origFaults, benchOptions())
			b.ReportMetric(res.FaultCoverage(), "%FC")
		}
	})
	b.Run("genetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt := atpg.DefaultGeneticOptions()
			opt.Phases = 20
			res := atpg.RunGenetic(c, cv.origFaults, opt)
			b.ReportMetric(res.FaultCoverage(), "%FC")
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := atpg.RunScan(c, cv.origFaults, benchOptions())
			b.ReportMetric(res.FaultCoverage(), "%FC")
			b.ReportMetric(float64(res.ApplicationCycles()), "tester-cycles")
		}
	})
}

// BenchmarkAblationRetimeObjective compares plain FEAS minimum-period
// retiming against the full speed retimer (FEAS + slack balancing +
// forward stem moves) on register growth and runtime.
func BenchmarkAblationRetimeObjective(b *testing.B) {
	variant := experiments.TableIIVariants()[0]
	c, err := variant.Synthesize()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("feas-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := retime.FromCircuit(c)
			r, _, err := g.MinPeriod()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(g.RegistersAfter(r)), "registers")
		}
	})
	b.Run("speed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pair, _, _, err := experiments.SpeedRetime(c, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(pair.Retimed.DFFs)), "registers")
		}
	})
	b.Run("min-registers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := retime.FromCircuit(c)
			r := g.ReduceRegisters(g.Zero(), math.MaxInt)
			b.ReportMetric(float64(g.RegistersAfter(r)), "registers")
		}
	})
}
