package atpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// identityFile pins, per Table II circuit, the SHA-256 of its canonical
// bench rendering and the (circuit, fault list, options) identity hashes
// at DefaultOptions. Checkpoints and result-cache entries are keyed by
// these hashes, so a moved line means entries written by an earlier
// build would silently miss or stop resuming.
const identityFile = "testdata/pinned_identities.txt"

// tableIICase is one Table II circuit: a synthesized original or its
// speed-retimed implementation.
type tableIICase struct {
	name string
	c    *netlist.Circuit
}

var tableII struct {
	once  sync.Once
	cases []tableIICase
	err   error
}

// tableIICircuits returns the 16 Table II originals and their 16
// speed-retimed implementations, synthesized once per test binary.
func tableIICircuits(tb testing.TB) []tableIICase {
	tb.Helper()
	tableII.once.Do(func() {
		for _, v := range experiments.TableIIVariants() {
			c, err := v.Synthesize()
			if err != nil {
				tableII.err = err
				return
			}
			pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(v.Name()))
			if err != nil {
				tableII.err = fmt.Errorf("%s: %v", v.Name(), err)
				return
			}
			tableII.cases = append(tableII.cases,
				tableIICase{v.Name(), c},
				tableIICase{v.Name() + "/retimed", pair.Retimed})
		}
	})
	if tableII.err != nil {
		tb.Fatal(tableII.err)
	}
	return tableII.cases
}

// identityLine renders one circuit's pinned identity line.
func identityLine(name string, c *netlist.Circuit) string {
	faults, _ := fault.Collapse(c)
	ch, fh, oh := atpg.IdentityHashes(c, faults, atpg.DefaultOptions())
	sum := sha256.Sum256([]byte(netlist.BenchString(c)))
	return fmt.Sprintf("%s bench=%s circuit=%016x faults=%016x options=%016x",
		name, hex.EncodeToString(sum[:]), ch, fh, oh)
}

// TestPinnedIdentities asserts every Table II circuit reproduces its
// committed bench digest and identity hashes.
func TestPinnedIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II synthesis and retiming are slow; skipped under -short")
	}
	want := loadPinnedFile(t, identityFile)
	for _, tc := range tableIICircuits(t) {
		got := identityLine(tc.name, tc.c)
		if line, ok := want[tc.name]; !ok || got != line {
			t.Errorf("identity moved:\n got %s\nwant %s", got, line)
		}
	}
}

// BenchmarkIdentityHashes times the cache-key fingerprint of every
// Table II circuit: bench rendering hashed into FNV-1a, the collapsed
// fault list and the options.
func BenchmarkIdentityHashes(b *testing.B) {
	cases := tableIICircuits(b)
	faults := make([][]fault.Fault, len(cases))
	for i, tc := range cases {
		faults[i], _ = fault.Collapse(tc.c)
	}
	opt := atpg.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tc := range cases {
			atpg.IdentityHashes(tc.c, faults[j], opt)
		}
	}
}
