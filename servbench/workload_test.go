package main

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/netlist"
	"repro/internal/service"
)

// testCircuits stands distinct copies of a tiny paper-figure circuit in
// for the Table II variants, so plans can be generated without
// synthesis.
func testCircuits() []circuit {
	bench := netlist.BenchString(netlist.Fig1K1())
	names := []string{"dk16.ji.sd", "pma.jo.sd", "s510.jo.sr", "s820.jo.sd", "scf.jo.sd"}
	out := make([]circuit, len(names))
	for i, n := range names {
		b := renameBench(bench, "c"+strconv.Itoa(i))
		out[i] = circuit{Name: n, Orig: b, Impl: b, Inputs: 2}
	}
	return out
}

func testRequest() service.Request {
	return service.Request{Kind: service.KindRetime, Bench: netlist.BenchString(netlist.Fig1K1())}
}

// mixOf lists the keys of the first n requests of every stream.
func mixOf(t *testing.T, name string, seed int64, n int) [][]string {
	t.Helper()
	wl, err := plan(name, seed, 15, testCircuits(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, st := range wl.Streams {
		var keys []string
		for i := 0; i < n; i++ {
			keys = append(keys, st.gen(i).Key)
		}
		out = append(out, keys)
	}
	return out
}

func TestWorkloadMixIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mixOf(t, name, 7, 12), mixOf(t, name, 7, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different mixes", name)
		}
		if c := mixOf(t, name, 8, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same mix", name)
		}
	}
}

func TestMissWorkloadsNeverRepeatARequest(t *testing.T) {
	for _, name := range []string{wlTable2, wlSimRetime} {
		seen := map[string]bool{}
		for _, keys := range mixOf(t, name, 3, 40) {
			for _, k := range keys {
				if seen[k] {
					t.Fatalf("%s: request %s repeats, so it would hit the cache", name, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestRenameKeepsStructure(t *testing.T) {
	orig := netlist.Fig1K1()
	renamed, err := netlist.ParseBenchString("r", renameBench(netlist.BenchString(orig), "x1"))
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Stats() != orig.Stats() {
		t.Fatalf("stats %+v, want %+v", renamed.Stats(), orig.Stats())
	}
	if renamed.NodeID(orig.Nodes[0].Name+"_x1") < 0 {
		t.Fatal("renamed node missing")
	}
}

func TestStreamRunsWholePasses(t *testing.T) {
	st := &stream{gen: func(i int) *job { return nil }, pass: 3, passes: 2}
	var n int
	for _, ok := st.next(zeroTime, zeroTime); ok; _, ok = st.next(zeroTime, zeroTime) {
		n++
	}
	if n != 6 {
		t.Fatalf("ran %d requests, want 2 passes of 3 whatever the deadline", n)
	}
}

var zeroTime time.Time
