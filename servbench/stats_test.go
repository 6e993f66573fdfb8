package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailOf(xs); ok {
		t.Fatal("10 samples: no value has 10 beyond it, want no tail")
	}
	tl, ok := tailOf(append(xs, 10))
	if !ok || tl.Value != 0 || tl.Beyond != 10 || tl.Samples != 11 {
		t.Fatalf("11 samples: got %+v ok=%v, want the minimum with 10 beyond", tl, ok)
	}
	xs = make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i) // unsorted input
	}
	tl, ok = tailOf(xs)
	if !ok || tl.Value != 89 || tl.Pct != 90 {
		t.Fatalf("100 samples: got %+v, want p90 = 89", tl)
	}
	if rt := reportedTail([]float64{3, 1, 2}); rt.Value != 3 || rt.Pct != 100 || rt.Beyond != 0 {
		t.Fatalf("short run: got %+v, want the slowest job at p100", rt)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
}

func TestTallyCountsEveryNonDoneAsFailed(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeDone, outcomeDone, outcomeFailed, outcomeCancelled, outcomeRejected, outcomeTransport} {
		tl.add(o)
	}
	if tl.Attempted != 6 || tl.Completed() != 2 || tl.Failed() != 4 {
		t.Fatalf("got attempted=%d completed=%d failed=%d, want 6/2/4", tl.Attempted, tl.Completed(), tl.Failed())
	}
	if f := tl.FailedFrac(); f != 4.0/6 {
		t.Fatalf("failed frac = %v, want 4/6", f)
	}
}

// A 429 at submit and an unreachable server are classified as rejected
// and transport attempts, which the tally counts as failed.
func TestClientClassifiesRefusalsAndTransportErrors(t *testing.T) {
	j := newJob("x", testRequest())
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer busy.Close()
	if s := newClient(busy.URL, nil).run(context.Background(), j); s.Outcome != outcomeRejected {
		t.Fatalf("429: outcome %v, want rejected", s.Outcome)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	url := gone.URL
	gone.Close()
	if s := newClient(url, nil).run(context.Background(), j); s.Outcome != outcomeTransport {
		t.Fatalf("closed server: outcome %v, want transport", s.Outcome)
	}
}

func TestParseStatCPU(t *testing.T) {
	line := "4242 (serv d) S 1 2 3 4 5 6 7 8 9 10 250 130 0 0 20 0 1 0 100 0 0"
	got, err := parseStatCPU(line)
	if err != nil || got != 3.8 {
		t.Fatalf("got %v, %v; want 3.8s (380 ticks)", got, err)
	}
}

func TestReplayOrderCoversEveryLabelQuickestFirst(t *testing.T) {
	mk := func(label string, secs float64) sample {
		return sample{Job: &job{Label: label}, Latency: time.Duration(secs * float64(time.Second))}
	}
	done := []sample{mk("slow", 9), mk("fast", 1), mk("slow", 8), mk("mid", 3), mk("fast", 2)}
	var got []string
	for _, s := range replayOrder(done) {
		got = append(got, s.Job.Label)
	}
	want := []string{"fast", "mid", "slow", "fast", "slow"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("order %v, want %v", got, want)
	}
}
