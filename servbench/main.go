// Command servbench is the repository's end-to-end benchmark. It starts
// a real cmd/servd on loopback with production-default flags and a
// fresh journal and cache directory, drives one generated workload as
// closed-loop HTTP clients, checks every result against the in-process
// library path, and prints each metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 1 the run also replays the same generated requests
// in-process through the public function of each layer, recording
// spans around every call, and reports per-layer metrics instead of
// end-to-end ones. Run it through run.sh, which builds both binaries:
//
//	bash servbench/run.sh --workload sim_retime --seed 7 --seconds 15 --trace 0
//
// METRICS.md lists the workloads, the metrics and which end-to-end
// metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/resultcache"
	"repro/internal/service"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// runLimit bounds a whole run, so a wedged server or library call fails
// the run instead of hanging it.
const runLimit = 170 * time.Second

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	servd    string
	work     string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced in-process replay and per-layer metrics")
	fs.StringVar(&o.servd, "servd", "", "path of the servd binary")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for run files, references and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !slices.Contains(workloadNames, o.workload) || o.servd == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "servbench: need -workload (%s), -servd, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if err := run(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "servbench:", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	nproc := runtime.NumCPU()
	work, err := filepath.Abs(o.work)
	if err != nil {
		return err
	}
	runDir := filepath.Join(work, "run", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	logHost(stdout, nproc)

	// Set up several times; the last setup's servd serves the timed run.
	var (
		srv      *server
		wl       *workload
		setups   []float64
		warmRuns []sample
	)
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		circuits, err := synthesize(workloadCircuits(o.workload))
		if err != nil {
			return err
		}
		if wl, err = plan(o.workload, o.seed, o.seconds, circuits, nproc); err != nil {
			return err
		}
		s, err := startServd(o.servd, filepath.Join(runDir, fmt.Sprintf("setup%d", rep)))
		if err != nil {
			return err
		}
		warm := runEach(ctx, s.base, wl.Warm, nproc)
		setups = append(setups, time.Since(t0).Seconds())
		for _, w := range warm {
			if w.Outcome != outcomeDone {
				s.kill()
				return fmt.Errorf("warming %s: %s: %s", w.Job.Label, w.Outcome, w.Err)
			}
		}
		if rep < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv, warmRuns = s, warm
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	// The timed window.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	journal0 := srv.journalBytes()
	start := time.Now()
	samples := closedLoop(ctx, srv.base, wl.Streams, start.Add(time.Duration(o.seconds)*time.Second), tr)
	window := time.Since(start)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	journal1 := srv.journalBytes()
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}

	// Check every result against the library path.
	refDir := ""
	if o.workload == wlTable2 {
		refDir = filepath.Join(work, "refs")
	}
	store, err := newReferenceStore(refDir)
	if err != nil {
		return err
	}
	var t tally
	var done []sample
	for _, s := range samples {
		t.add(s.Outcome)
		if s.Outcome == outcomeDone {
			done = append(done, s)
		} else {
			fmt.Fprintf(stderr, "servbench: %s attempt %s: %s\n", s.Job.Label, s.Outcome, s.Err)
		}
	}
	if len(done) == 0 {
		return errors.New("no job completed in the timed window")
	}
	checked := append(append([]sample(nil), warmRuns...), done...)
	if err := store.ensure(ctx, sampleJobs(checked), nproc); err != nil {
		return err
	}
	correct := true
	for _, s := range checked {
		if err := checkSample(s, store); err != nil {
			fmt.Fprintln(stderr, "servbench:", err)
			correct = false
		}
	}
	// Every timed job of a warmed workload is a cache hit, every job of
	// the others a miss; anything else means the workload is not the
	// one it claims to be.
	for _, s := range done {
		if isHit(s.View.Cache) != wl.WantHits {
			fmt.Fprintf(stderr, "servbench: %s (%s): cache source %q breaks the workload's design\n", s.Job.Label, s.View.ID, s.View.Cache)
			correct = false
		}
	}

	rep := report{Correct: correct, Attempted: t.Attempted, Failed: t.Failed(), Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(stdout, "metric %-32s %14.6f %s\n", name, v, unit)
	}
	if !o.trace {
		endToEnd(stdout, put, done, t, setups, window, cpu1-cpu0, rss)
	} else {
		lc := &layerCounts{}
		overhead, err := replayAll(ctx, stdout, wl, done, store, filepath.Join(runDir, "replay"), time.Duration(o.seconds)*time.Second, tr, lc)
		if err != nil {
			if !errors.Is(err, errReplayMismatch) {
				return err
			}
			fmt.Fprintln(stderr, "servbench:", err)
			rep.Correct = false
		}
		perLayer(put, tr.snapshot(), samples, done, lc, overhead, journal1-journal0)
		spanDir := filepath.Join(work, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runEach submits every job once, with up to parallel clients.
func runEach(ctx context.Context, base string, jobs []*job, parallel int) []sample {
	if len(jobs) == 0 {
		return nil
	}
	streams := make([]*stream, 0, parallel)
	for c := 0; c < parallel && c < len(jobs); c++ {
		var mine []*job
		for i := c; i < len(jobs); i += parallel {
			mine = append(mine, jobs[i])
		}
		streams = append(streams, &stream{gen: func(i int) *job { return mine[i] }, pass: len(mine), passes: 1})
	}
	return closedLoop(ctx, base, streams, time.Now(), nil)
}

func sampleJobs(ss []sample) []*job {
	out := make([]*job, len(ss))
	for i, s := range ss {
		out[i] = s.Job
	}
	return out
}

// checkSample compares a completed job's result with its reference.
func checkSample(s sample, store *referenceStore) error {
	ref, ok := store.get(s.Job)
	if !ok {
		return fmt.Errorf("%s: no reference", s.Job.Label)
	}
	if s.View.Result == nil {
		return fmt.Errorf("%s (%s): done without a result", s.Job.Label, s.View.ID)
	}
	d, _, err := resultDigest(s.View.Result)
	if err != nil {
		return err
	}
	if d != ref.Digest {
		return fmt.Errorf("%s (%s): result digest %s, reference %s", s.Job.Label, s.View.ID, d, ref.Digest)
	}
	return nil
}

func isHit(src string) bool { return src == "hit" || src == "hit-disk" }

// endToEnd reports the user-facing metrics of the timed window.
func endToEnd(stdout io.Writer, put func(string, float64, string), done []sample, t tally, setups []float64, window time.Duration, cpu, rss float64) {
	var all []float64
	byKind := map[service.Kind][]float64{}
	coverage := map[string][]float64{}
	for _, s := range done {
		lat := s.Latency.Seconds()
		all = append(all, lat)
		byKind[s.Job.Req.Kind] = append(byKind[s.Job.Req.Kind], lat)
		if c, ok := reportedCoverage(s.View.Result); ok {
			coverage[s.Job.Label] = append(coverage[s.Job.Label], c)
		}
	}
	tl := reportedTail(all)
	put("setup_s", median(setups), "s")
	put("job_p50_s", median(all), "s")
	put("job_tail_s", tl.Value, "s")
	put("jobs_per_s", float64(len(done))/window.Seconds(), "1/s")
	put("completed_frac", 1-t.FailedFrac(), "ratio")
	put("fault_coverage_pct", meanOfMeans(coverage), "%")
	put("server_cpu_s_per_job", cpu/float64(len(done)), "s")
	put("server_peak_rss_mib", rss, "MiB")

	fmt.Fprintf(stdout, "info job_tail_s is p%.1f of %d jobs with %d beyond\n", tl.Pct, tl.Samples, tl.Beyond)
	fmt.Fprintf(stdout, "info failed_frac %.4f (%d of %d attempts: %v)\n", t.FailedFrac(), t.Failed(), t.Attempted, t.ByOutcome)
	fmt.Fprintf(stdout, "info setup_s runs %v, timed window %.3fs\n", setups, window.Seconds())
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := byKind[service.Kind(k)]
		name := k + "_job_p50_s"
		switch service.Kind(k) {
		case service.KindDeriveTests:
			name = "fig6_job_p50_s"
		case service.KindATPG:
			name = "direct_atpg_job_p50_s"
		}
		fmt.Fprintf(stdout, "info %-32s %14.6f s (%d jobs)\n", name, median(xs), len(xs))
	}
}

// reportedCoverage is the fault coverage a result reports, if its kind
// reports one.
func reportedCoverage(r *service.Result) (float64, bool) {
	switch {
	case r == nil:
	case r.ATPG != nil:
		return r.ATPG.FaultCoverage, true
	case r.FaultSim != nil:
		return r.FaultSim.Coverage, true
	case r.Derive != nil:
		return r.Derive.ImplCoverage, true
	}
	return 0, false
}

// meanOfMeans averages per-group means, so the figure does not depend
// on how many jobs of each group a timed window happened to finish.
func meanOfMeans(groups map[string][]float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed summation order gives the same digits every run
	var sum float64
	for _, k := range keys {
		xs := groups[k]
		var s float64
		for _, x := range xs {
			s += x
		}
		sum += s / float64(len(xs))
	}
	return sum / float64(len(groups))
}

// replayAll replays the timed window's completed requests, alternating
// an untraced and a traced replay of each, until the replays have taken
// budget. It returns the tracing overhead: traced minus untraced replay
// time, per job.
func replayAll(ctx context.Context, stdout io.Writer, wl *workload, done []sample, store *referenceStore, ckDir string, budget time.Duration, tr *tracer, lc *layerCounts) (time.Duration, error) {
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return 0, err
	}
	// The warmed workload's replay cache holds the same payloads
	// servd's did; the others start empty, like servd's.
	cache := resultcache.New(resultcache.Config{})
	if wl.WantHits {
		for _, j := range wl.Warm {
			ref, _ := store.get(j)
			key, err := jobKey(j)
			if err != nil {
				return 0, err
			}
			cache.Put(key, ref.Result)
		}
	}
	order := replayOrder(done)
	traced := &replayer{tr: tr, cache: cache, ckDir: ckDir, counts: lc}
	plain := &replayer{cache: cache, ckDir: ckDir, counts: &layerCounts{}}
	start := time.Now()
	var tracedTime, plainTime time.Duration
	n := 0
	for i, s := range order {
		if i > 0 && time.Since(start) >= budget {
			break
		}
		ref, _ := store.get(s.Job)
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		for _, r := range []*replayer{first, second} {
			t0 := time.Now()
			if err := r.job(ctx, s.Job, ref); err != nil {
				return 0, err
			}
			if r == traced {
				tracedTime += time.Since(t0)
			} else {
				plainTime += time.Since(t0)
			}
		}
		lc.Speculated += ref.Speculated
		lc.Wasted += ref.Wasted
		n++
	}
	overhead := (tracedTime - plainTime) / time.Duration(n)
	fmt.Fprintf(stdout, "info replayed %d of %d completed jobs; traced %.3fs, untraced %.3fs, overhead %.4f%%\n",
		n, len(done), tracedTime.Seconds(), plainTime.Seconds(), 100*(tracedTime-plainTime).Seconds()/plainTime.Seconds())
	return overhead, nil
}

// replayOrder deals the completed jobs round-robin over their labels,
// the labels with the quickest median job first, so that a replay cut
// short by its budget still covers as many kinds and circuits as it can.
func replayOrder(done []sample) []sample {
	byLabel := map[string][]sample{}
	var labels []string
	for _, s := range done {
		if byLabel[s.Job.Label] == nil {
			labels = append(labels, s.Job.Label)
		}
		byLabel[s.Job.Label] = append(byLabel[s.Job.Label], s)
	}
	cost := map[string]float64{}
	for l, ss := range byLabel {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.Latency.Seconds()
		}
		cost[l] = median(xs)
	}
	sort.SliceStable(labels, func(a, b int) bool { return cost[labels[a]] < cost[labels[b]] })
	out := make([]sample, 0, len(done))
	for round := 0; len(out) < len(done); round++ {
		for _, l := range labels {
			if round < len(byLabel[l]) {
				out = append(out, byLabel[l][round])
			}
		}
	}
	return out
}

// perLayer reports the traced run's per-layer metrics.
func perLayer(put func(string, float64, string), spans []span, samples, done []sample, lc *layerCounts, overhead time.Duration, journalBytes int64) {
	self, count := selfByName(spans)
	perSpan := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return self[name] / float64(count[name])
	}
	jobs := float64(lc.Jobs)
	perJob := func(name string) float64 { return self[name] / jobs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var polls, viewBytes, queue, runT, hits float64
	for _, s := range done {
		polls += float64(s.Polls)
		viewBytes += float64(s.ViewBytes)
		if s.View.Started != nil && s.View.Finished != nil {
			queue += s.View.Started.Sub(s.View.Created).Seconds()
			runT += s.View.Finished.Sub(*s.View.Started).Seconds()
		}
		if isHit(s.View.Cache) {
			hits++
		}
	}
	nd := float64(len(done))
	put("http.submit_s", perSpan("http.submit"), "s")
	put("http.poll_s", perSpan("http.poll"), "s")
	put("http.polls_per_job", polls/nd, "count")
	put("http.view_bytes", ratio(viewBytes, polls), "bytes")
	put("service.queue_wait_s", queue/nd, "s")
	put("service.run_s", runT/nd, "s")
	put("service.journal_bytes_per_job", float64(journalBytes)/float64(len(samples)), "bytes")
	put("netlist.parse_s", perJob("netlist.parse"), "s")
	put("fault.collapse_s", perJob("fault.collapse"), "s")
	put("resultcache.lookup_s", perJob("resultcache.lookup"), "s")
	put("resultcache.hit_ratio", hits/nd, "ratio")
	put("retime.min_period_s", perJob("retime.min_period"), "s")
	put("retime.min_registers_s", perJob("retime.min_registers"), "s")
	put("atpg.random_s", perJob("atpg.random"), "s")
	put("atpg.podem_s", perJob("atpg.podem"), "s")
	put("atpg.grade_s", perJob("atpg.merge"), "s")
	put("atpg.targets", float64(lc.ATPGTargets)/jobs, "count")
	put("atpg.evals", float64(lc.ATPGEvals)/jobs, "count")
	put("atpg.backtracks", float64(lc.Backtracks)/jobs, "count")
	put("atpg.podem_yield", ratio(float64(lc.ATPGDetected), float64(lc.ATPGTargets)), "ratio")
	put("atpg.parallel.waste_ratio", ratio(float64(lc.Wasted), float64(lc.Speculated)), "ratio")
	put("atpg.checkpoint_writes", float64(lc.CkWrites)/jobs, "count")
	put("fsim.run_s", perJob("fsim.run"), "s")
	put("fsim.evals", float64(lc.Fsim.Evals)/jobs, "count")
	put("fsim.events_per_cycle", lc.Fsim.EventsPerCycle(), "count")
	put("fsim.drops", float64(lc.Fsim.Drops)/jobs, "count")
	put("trace.overhead_s", overhead.Seconds(), "s")
}

// logHost prints the host facts a reader needs to compare runs.
func logHost(w io.Writer, nproc int) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	fmt.Fprintf(w, "info host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), model)
}
