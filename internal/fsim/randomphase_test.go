package fsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The random-phase workloads live in an external test package: the
// speed-retimed Table II circuits come from internal/experiments, which
// imports fsim itself.

// randomPhaseCircuits are the speed-retimed Table II circuits of the
// end-to-end table2_flow benchmark.
var randomPhaseCircuits = []string{"dk16.ji.sd", "s510.jo.sr", "s820.jo.sd"}

// randomPhaseDigests pins, per circuit, the SHA-256 of the random
// phase's per-sequence newly-detected lists plus the final Stats (see
// runRandomPhase). They were produced by the event-driven engine
// before the flat gate kernel and the dense cycle; any evaluation
// speed-up must reproduce them bit for bit.
var randomPhaseDigests = map[string]string{
	"dk16.ji.sd": "e67e1c145de14f085b0b53d45f50a5341b0f0fcf2980d6331eaa499312df048e",
	"s510.jo.sr": "8220e7f12891fe65cbc97c5d40b769421d149e18af91e269d19acbcd7ee7326a",
	"s820.jo.sd": "865e70dee1706356c57bbc587b553de2dba60cd26891b3ad37ccbefee0e59d49",
}

// randomPhaseWorkload is one circuit's random phase: the collapsed
// fault list and the exact stimuli atpg.Run grades first.
type randomPhaseWorkload struct {
	c      *netlist.Circuit
	faults []fault.Fault
	seqs   []sim.Seq
}

var randomPhaseCache sync.Map // name -> *randomPhaseWorkload

func loadRandomPhase(tb testing.TB, name string) *randomPhaseWorkload {
	tb.Helper()
	if w, ok := randomPhaseCache.Load(name); ok {
		return w.(*randomPhaseWorkload)
	}
	for _, v := range experiments.TableIIVariants() {
		if v.Name() != name {
			continue
		}
		orig, err := v.Synthesize()
		if err != nil {
			tb.Fatal(err)
		}
		pair, _, _, err := experiments.SpeedRetime(orig, experiments.ForwardMoves(name))
		if err != nil {
			tb.Fatal(err)
		}
		c := pair.Retimed
		faults, _ := fault.Collapse(c)
		w := &randomPhaseWorkload{
			c:      c,
			faults: faults,
			seqs:   atpg.RandomSequences(len(c.Inputs), atpg.DefaultOptions()),
		}
		randomPhaseCache.Store(name, w)
		return w
	}
	tb.Fatalf("unknown Table II variant %q", name)
	return nil
}

// runRandomPhase grades the sequences the way the ATPG random phase
// does -- Reset, then Simulate, until no fault is left -- and writes
// each sequence's newly-detected faults and the final Stats to out
// (nil skips the rendering, for benchmarks).
func runRandomPhase(s *fsim.Simulator, w *randomPhaseWorkload, out io.Writer) {
	for i, seq := range w.seqs {
		if s.LiveCount() == 0 {
			break
		}
		s.Reset()
		newly := s.Simulate(seq)
		if out == nil {
			continue
		}
		fmt.Fprintf(out, "seq %d:", i)
		for _, f := range newly {
			fmt.Fprintf(out, " %d/%d/%d", f.Node, f.Pin, f.SA)
		}
		fmt.Fprintln(out)
	}
	if out != nil {
		fmt.Fprintf(out, "stats %+v\n", s.Stats())
	}
}

// TestRandomPhasePinnedDigests is the whole-circuit byte-identity gate
// for the fault simulator: the random phase of three Table II circuits
// must detect the same faults in the same sequences and report the same
// Stats counters as the pinned run.
func TestRandomPhasePinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and speed-retimes three Table II circuits")
	}
	for _, name := range randomPhaseCircuits {
		t.Run(name, func(t *testing.T) {
			w := loadRandomPhase(t, name)
			h := sha256.New()
			runRandomPhase(fsim.NewSimulator(w.c, w.faults), w, h)
			got := hex.EncodeToString(h.Sum(nil))
			if want := randomPhaseDigests[name]; got != want {
				t.Fatalf("random-phase digest %s, pinned %s", got, want)
			}
		})
	}
}

// BenchmarkRandomPhase times the ATPG random phase (64 biased sequences
// of 128 vectors over the collapsed fault list) on one core, through a
// Simulator rearmed per iteration.
func BenchmarkRandomPhase(b *testing.B) {
	for _, name := range randomPhaseCircuits {
		b.Run(name, func(b *testing.B) {
			w := loadRandomPhase(b, name)
			s := fsim.NewSimulator(w.c, w.faults)
			s.SetMaxWorkers(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Rearm()
				runRandomPhase(s, w, nil)
			}
		})
	}
}
