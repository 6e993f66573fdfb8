package retime_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/retime"
)

// minPeriodCases are the Table II circuits the minimum-period solver is
// pinned and benchmarked on: dk16.ji.sd (814 vertices) and pma.jo.sd,
// both inside the W/D matrix cap.
var minPeriodCases = []string{"dk16.ji.sd", "pma.jo.sd"}

// tableIICircuit synthesizes the named Table II variant.
func tableIICircuit(tb testing.TB, name string) *netlist.Circuit {
	tb.Helper()
	for _, v := range experiments.TableIIVariants() {
		if v.Name() != name {
			continue
		}
		c, err := v.Synthesize()
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	tb.Fatalf("no Table II variant %q", name)
	return nil
}

// TestMinPeriodPinnedDigests pins the minimum period and the SHA-256 of
// the materialized min-period circuit of two Table II circuits. Any
// change to which optimal retiming the solver returns -- not just to
// the period -- moves the digest.
func TestMinPeriodPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II synthesis and retiming are slow; skipped under -short")
	}
	want := map[string]struct {
		period int
		digest string
	}{
		"dk16.ji.sd": {25, "06fba560d77d2510d38b344b48b83b2b41993cf103b160fd6875f69f222e7c70"},
		"pma.jo.sd":  {25, "a1575414dafaeff8d8a40b017a9be77f5cce6fcf39a13c6d571e942637f003d5"},
	}
	for _, name := range minPeriodCases {
		c := tableIICircuit(t, name)
		g := retime.FromCircuit(c)
		r, period, err := g.MinPeriod()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rg, err := g.Retime(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc, _, err := rg.Materialize(c.Name + ".re")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(netlist.BenchString(mc)))
		got := hex.EncodeToString(sum[:])
		if w := want[name]; period != w.period || got != w.digest {
			t.Errorf("%s: period %d digest %s, want period %d digest %s", name, period, got, w.period, w.digest)
		}
	}
}

// BenchmarkMinPeriod times the exact minimum-period search end to end
// (W/D matrices, candidate periods, binary-search probes, final check)
// on the pinned Table II circuits.
func BenchmarkMinPeriod(b *testing.B) {
	for _, name := range minPeriodCases {
		g := retime.FromCircuit(tableIICircuit(b, name))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := g.MinPeriod(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinPeriodAlgorithm compares the exact W/D-matrix
// minimum-period algorithm against the conservative FEAS iteration.
func BenchmarkAblationMinPeriodAlgorithm(b *testing.B) {
	g := retime.FromCircuit(netlist.Fig2C1())
	// A mid-sized graph exercises the asymptotics better.
	gBig := retime.FromCircuit(tableIICircuit(b, "pma.jo.sd"))
	b.Run("wd/small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := g.MinPeriodWD(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wd/pma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gBig.MinPeriodWD(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("feas/pma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gBig.MinPeriodFEAS(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
