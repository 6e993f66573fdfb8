package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/service"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlTable2    = "table2_flow"
	wlSimRetime = "sim_retime"
	wlCached    = "cached_hits"
)

var workloadNames = []string{wlTable2, wlSimRetime, wlCached}

// table2Subset is the Table II subset table2_flow submits. scf is left
// out: its direct ATPG runs for minutes. dk16.ji.sd and s510.jo.sr are
// the circuits on which the Fig. 6 flow beats direct ATPG.
var table2Subset = []string{"dk16.ji.sd", "s510.jo.sr", "s820.jo.sd"}

// feasCircuits are the original circuits sim_retime retimes. FEAS
// minimum-period retiming takes 0.6s on dk16.ji.sd and 1.0s on
// pma.jo.sd, and milliseconds on every other Table II circuit, where a
// job would measure little but polling under load. pma.jo.sd is left
// out too: its slow jobs moved the run's median job across a gap in the
// mix, so the median jumped between runs.
var feasCircuits = []string{"dk16.ji.sd"}

// fsimVectors is the length of every generated fault_sim sequence.
const fsimVectors = 2000

// circuit is one Table II variant in the two forms the workloads submit.
type circuit struct {
	Name   string // paper-style variant name, e.g. "dk16.ji.sd"
	Orig   string // bench text of the synthesized circuit
	Impl   string // bench text of its performance-retimed implementation
	Inputs int
}

// synthesize builds the named Table II variants (all of them for an
// empty list) and speed-retimes each with experiments.SpeedRetime, the
// harness's stand-in for a production performance retimer.
func synthesize(names []string) ([]circuit, error) {
	byName := make(map[string]experiments.Variant)
	var all []string
	for _, v := range experiments.TableIIVariants() {
		byName[v.Name()] = v
		all = append(all, v.Name())
	}
	if len(names) == 0 {
		names = all
	}
	out := make([]circuit, 0, len(names))
	for _, name := range names {
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown Table II variant %q", name)
		}
		c, err := v.Synthesize()
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", name, err)
		}
		pair, _, _, err := experiments.SpeedRetime(c, experiments.ForwardMoves(name))
		if err != nil {
			return nil, fmt.Errorf("speed-retime %s: %w", name, err)
		}
		out = append(out, circuit{
			Name:   name,
			Orig:   netlist.BenchString(c),
			Impl:   netlist.BenchString(pair.Retimed),
			Inputs: len(c.Inputs),
		})
	}
	return out, nil
}

// job is one request a client submits.
type job struct {
	Label string // "<kind>/<circuit>", the group it is reported under
	Key   string // digest of Body; names the request in the reference store
	Req   service.Request
	Body  []byte
}

func newJob(circuitName string, req service.Request) *job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a service.Request always marshals
	}
	sum := sha256.Sum256(body)
	return &job{
		Label: string(req.Kind) + "/" + circuitName,
		Key:   hex.EncodeToString(sum[:16]),
		Req:   req,
		Body:  body,
	}
}

// stream is one closed-loop client's request sequence. Its i-th request
// depends only on the seed, never on timing.
type stream struct {
	gen func(i int) *job
	// pass is the length of one pass over the stream's circuits and
	// passes the number of whole passes the client runs; with passes 0
	// the client runs until the deadline instead. Whole passes keep the
	// mix of heterogeneous jobs the same in every run.
	pass, passes int

	i int
}

// next returns the client's next request, or false when it should stop.
func (s *stream) next(now, deadline time.Time) (*job, bool) {
	if s.passes > 0 && s.i >= s.pass*s.passes || s.passes == 0 && !now.Before(deadline) {
		return nil, false
	}
	j := s.gen(s.i)
	s.i++
	return j, true
}

// passesFor sizes a fixed-work stream: the number of whole passes that
// take about seconds, given how long one pass took on the reference
// host (2 vCPUs; see METRICS.md), and at least one.
func passesFor(seconds int, nominal float64) int {
	return max(1, int(math.Round(float64(seconds)/nominal)))
}

// workload is a generated traffic mix: one stream per client, plus the
// requests setup submits once to warm servd's result cache.
type workload struct {
	Streams []*stream
	Warm    []*job
	// WantHits is the result-cache hit ratio every timed job must show:
	// 1 where setup warmed the cache, 0 where every request is new.
	WantHits bool
}

// workloadCircuits names the variants a workload needs (nil = all).
func workloadCircuits(name string) []string {
	switch name {
	case wlTable2:
		return table2Subset
	case wlCached:
		return []string{"dk16.ji.sd", "s510.jo.sr", "s820.jo.sd"}
	}
	return nil
}

// plan generates the workload's requests for a seed over synthesized
// circuits, sized for a timed window of seconds. workers is the ATPG
// worker count requested by ATPG-bearing jobs.
func plan(name string, seed int64, seconds int, circuits []circuit, workers int) (*workload, error) {
	byName := make(map[string]circuit, len(circuits))
	for _, c := range circuits {
		byName[c.Name] = c
	}
	get := func(n string) circuit { return byName[n] }
	atpgSpec := &service.ATPGSpec{Workers: workers}
	switch name {
	case wlTable2:
		// One client; a pass submits every subset circuit's
		// implementation as a direct atpg job and as a derive_tests
		// (Fig. 6) job, in a seeded order. Passes after the first rename
		// the nets so every request stays a cache miss while the work is
		// unchanged.
		kinds := []service.Kind{service.KindATPG, service.KindDeriveTests}
		n := len(circuits) * len(kinds)
		gen := func(i int) *job {
			pass := i / n
			k := perm(seed, 0, pass, n)[i%n]
			c := circuits[k/len(kinds)]
			bench := c.Impl
			if pass > 0 {
				bench = renameBench(bench, fmt.Sprintf("p%d", pass))
			}
			return newJob(c.Name, service.Request{Kind: kinds[k%len(kinds)], Bench: bench, ATPG: atpgSpec})
		}
		return &workload{Streams: []*stream{{gen: gen, pass: n, passes: passesFor(seconds, 16)}}}, nil
	case wlSimRetime:
		// Client 1 fault-simulates a fresh random sequence against each
		// implementation circuit in turn; client 2 retimes for minimum
		// period the original circuits on which FEAS does real work, its
		// nets renamed per request so that every request is a cache miss.
		n := len(circuits)
		fs := func(i int) *job {
			c := circuits[perm(seed, 1, i/n, n)[i%n]]
			rng := rand.New(rand.NewSource(mix(seed, 1, i)))
			return newJob(c.Name, service.Request{Kind: service.KindFaultSim, Bench: c.Impl,
				Tests: randomTests(rng, c.Inputs, fsimVectors)})
		}
		nr := len(feasCircuits)
		rt := func(i int) *job {
			c := byName[feasCircuits[perm(seed, 2, i/nr, nr)[i%nr]]]
			bench := renameBench(c.Orig, fmt.Sprintf("s%dn%d", seed, i))
			return newJob(c.Name, service.Request{Kind: service.KindRetime, Bench: bench, Mode: "period"})
		}
		return &workload{Streams: []*stream{
			{gen: fs, pass: n, passes: passesFor(seconds, 8)},
			{gen: rt, pass: nr, passes: passesFor(seconds, 0.75)},
		}}, nil
	case wlCached:
		// A fixed set of all four kinds, computed once during setup;
		// two clients re-submit it in their own seeded orders. servd
		// keeps every job it accepted, so a fixed number of passes also
		// fixes the memory the run leaves resident. Passes are sized as
		// if one took 0.15s, about twice what it takes: twice the passes
		// keep twice the jobs resident, and servd's garbage collection
		// then sets the tail.
		rng := rand.New(rand.NewSource(mix(seed, 3, 0)))
		set := []*job{
			newJob("s820.jo.sd", service.Request{Kind: service.KindATPG, Bench: get("s820.jo.sd").Impl, ATPG: atpgSpec}),
			newJob("dk16.ji.sd", service.Request{Kind: service.KindDeriveTests, Bench: get("dk16.ji.sd").Impl, ATPG: atpgSpec}),
			newJob("s510.jo.sr", service.Request{Kind: service.KindFaultSim, Bench: get("s510.jo.sr").Impl,
				Tests: randomTests(rng, get("s510.jo.sr").Inputs, fsimVectors)}),
			newJob("s820.jo.sd", service.Request{Kind: service.KindFaultSim, Bench: get("s820.jo.sd").Impl,
				Tests: randomTests(rng, get("s820.jo.sd").Inputs, fsimVectors)}),
			newJob("dk16.ji.sd", service.Request{Kind: service.KindRetime, Bench: get("dk16.ji.sd").Orig, Mode: "period"}),
			newJob("s510.jo.sr", service.Request{Kind: service.KindRetime, Bench: get("s510.jo.sr").Orig, Mode: "period"}),
			newJob("s820.jo.sd", service.Request{Kind: service.KindRetime, Bench: get("s820.jo.sd").Orig, Mode: "period"}),
		}
		for _, j := range set {
			if j.Req.Bench == "" {
				return nil, fmt.Errorf("%s: circuit for %s not synthesized", name, j.Label)
			}
		}
		n := len(set)
		client := func(c int64) *stream {
			return &stream{gen: func(i int) *job { return set[perm(seed, 4+c, i/n, n)[i%n]] },
				pass: n, passes: passesFor(seconds, 0.15)}
		}
		return &workload{Streams: []*stream{client(0), client(1)}, Warm: set, WantHits: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// mix folds a seed, a stream number and an index into one PRNG seed.
func mix(seed, stream int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)*0xbf58476d1ce4e5b9 ^ uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// perm is the seeded order of n items for one cycle of one stream.
func perm(seed, stream int64, cycle, n int) []int {
	return rand.New(rand.NewSource(mix(seed, stream, cycle))).Perm(n)
}

// randomTests renders n random vectors of the given width in
// sim.ParseSeq notation.
func randomTests(rng *rand.Rand, width, n int) string {
	var sb strings.Builder
	sb.Grow(n * (width + 1))
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		for j := 0; j < width; j++ {
			sb.WriteByte(byte('0' + rng.Intn(2)))
		}
	}
	return sb.String()
}

// renameBench appends a suffix to every net name of a bench circuit.
// The renamed circuit is structurally identical, so servd does the same
// work for it, but its canonical text -- and so its cache key -- differs.
func renameBench(bench, suffix string) string {
	c, err := netlist.ParseBenchString("rename", bench)
	if err != nil {
		panic(fmt.Sprintf("rename: generated circuit does not parse: %v", err))
	}
	name := func(id int) string { return c.Nodes[id].Name + "_" + suffix }
	b := netlist.NewBuilder(c.Name)
	for _, id := range c.Inputs {
		b.Input(name(id))
	}
	for id, n := range c.Nodes {
		fanin := make([]string, len(n.Fanin))
		for i, f := range n.Fanin {
			fanin[i] = name(f)
		}
		switch n.Kind {
		case netlist.KindDFF:
			b.DFF(name(id), fanin[0])
		case netlist.KindGate:
			b.Gate(name(id), n.Op, fanin...)
		}
	}
	for _, id := range c.Outputs {
		b.Output(name(id))
	}
	out, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("rename: %v", err))
	}
	return netlist.BenchString(out)
}
