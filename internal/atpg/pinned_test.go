package atpg_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// pinnedFile holds the SHA-256 digests of EncodeResultPayload, plus the
// effort counters, for every pinned case. The digests were produced by
// the full-sweep PODEM implication; any implication or D-frontier
// optimisation must reproduce them bit for bit.
const pinnedFile = "testdata/pinned_results.txt"

// pinnedCase is one ATPG run whose result is pinned.
type pinnedCase struct {
	name  string
	slow  bool // a Table II circuit, skipped under -short
	run   func(opt atpg.Options) (*atpg.Result, error)
	tweak func(opt *atpg.Options)
}

// pinnedLine renders one case's digest line.
func pinnedLine(name string, res *atpg.Result) string {
	sum := sha256.Sum256(atpg.EncodeResultPayload(res))
	return fmt.Sprintf("%s %s evals=%d backtracks=%d",
		name, hex.EncodeToString(sum[:]), res.Effort.Evals, res.Effort.Backtracks)
}

// pinnedCases lists direct and Fig. 6 ATPG on two speed-retimed
// Table II circuits and ten seeded random circuits. The random cases
// cap frames and effort so they stay fast under -race, and alternate
// between the default options and a PODEM-heavy setting (no random
// phase, no sync seed, naive backtrace) so seeded and unseeded frames,
// guided and naive backtrace, and budget aborts are all exercised.
func pinnedCases(t testing.TB) []pinnedCase {
	var cases []pinnedCase
	for _, name := range []string{"dk16.ji.sd", "s820.jo.sd"} {
		var impl *netlist.Circuit
		load := func() *netlist.Circuit {
			if impl == nil {
				impl = speedRetimed(t, name)
			}
			return impl
		}
		cases = append(cases,
			pinnedCase{name: name + "/direct", slow: true, run: func(opt atpg.Options) (*atpg.Result, error) {
				c := load()
				faults, _ := fault.Collapse(c)
				return atpg.Run(c, faults, opt), nil
			}},
			pinnedCase{name: name + "/fig6", slow: true, run: func(opt atpg.Options) (*atpg.Result, error) {
				out, err := core.Fig6Flow(load(), opt)
				if err != nil {
					return nil, err
				}
				return out.EasyATPG, nil
			}},
		)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := netlist.Random(rng, netlist.RandomParams{
			Inputs: 3 + rng.Intn(4), Outputs: 2 + rng.Intn(3),
			Gates: 20 + rng.Intn(40), DFFs: 2 + rng.Intn(7), MaxFanin: 3,
		})
		faults, _ := fault.Collapse(c)
		podemHeavy := seed%2 == 0
		cases = append(cases, pinnedCase{
			name: fmt.Sprintf("random-%d", seed),
			run: func(opt atpg.Options) (*atpg.Result, error) {
				return atpg.Run(c, faults, opt), nil
			},
			tweak: func(opt *atpg.Options) {
				opt.MaxFrames = 4
				opt.MaxEvalsPerFault = 50_000
				opt.MaxEvalsTotal = 1_000_000
				if podemHeavy {
					opt.RandomPhase = false
					opt.SyncSeed = false
					opt.GuidedBacktrace = false
				}
			},
		})
	}
	return cases
}

func speedRetimed(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	for _, v := range experiments.TableIIVariants() {
		if v.Name() != name {
			continue
		}
		c, err := v.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(name))
		if err != nil {
			t.Fatal(err)
		}
		return pair.Retimed
	}
	t.Fatalf("unknown Table II variant %q", name)
	return nil
}

func loadPinned(t *testing.T) map[string]string {
	t.Helper()
	return loadPinnedFile(t, pinnedFile)
}

// loadPinnedFile reads a pinned-digest file into a map from each line's
// first field to the whole line; blank and '#' lines are skipped.
func loadPinnedFile(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPinnedResultDigests asserts that every pinned case reproduces its
// committed result digest and effort counters at 1, 2 and 4 workers.
func TestPinnedResultDigests(t *testing.T) {
	want := loadPinned(t)
	for _, pc := range pinnedCases(t) {
		t.Run(pc.name, func(t *testing.T) {
			if pc.slow && testing.Short() {
				t.Skip("Table II circuit; skipped under -short")
			}
			line, ok := want[pc.name]
			if !ok {
				t.Fatalf("no pinned digest for %s in %s", pc.name, pinnedFile)
			}
			for _, workers := range []int{1, 2, 4} {
				opt := atpg.DefaultOptions()
				if pc.tweak != nil {
					pc.tweak(&opt)
				}
				opt.Workers = workers
				res, err := pc.run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := pinnedLine(pc.name, res); got != line {
					t.Fatalf("workers=%d:\n got %s\nwant %s", workers, got, line)
				}
			}
		})
	}
}
