package main

import "sort"

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const tailBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample with at least tailBeyond
// samples beyond it.
type tail struct {
	Value   float64
	Pct     float64 // percentile of Value, 0..100
	Beyond  int     // samples strictly after Value in sorted order
	Samples int
}

// tailOf applies the tail rule: sorted ascending, the value at index
// n-1-tailBeyond has exactly tailBeyond samples beyond it, and its
// percentile is the share of samples at or below it. ok is false when
// the sample has no such value (fewer than tailBeyond+1 samples).
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{Samples: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 1 - tailBeyond
	return tail{Value: s[k], Pct: 100 * float64(k+1) / float64(n), Beyond: tailBeyond, Samples: n}, true
}

// reportedTail is the job_tail_s figure: the tail rule where the run has
// enough jobs, otherwise the slowest job (percentile 100, nothing
// beyond), so every workload reports the metric.
func reportedTail(xs []float64) tail {
	if t, ok := tailOf(xs); ok {
		return t
	}
	t := tail{Pct: 100, Samples: len(xs)}
	for _, x := range xs {
		if x > t.Value {
			t.Value = x
		}
	}
	return t
}

// outcome classifies one submission attempt.
type outcome int

const (
	outcomeDone      outcome = iota // terminal status done
	outcomeFailed                   // terminal status failed, or a non-202 submit other than 429
	outcomeCancelled                // terminal status cancelled
	outcomeRejected                 // 429 Too Many Requests at submit
	outcomeTransport                // connection or protocol error talking to servd
)

func (o outcome) String() string {
	return [...]string{"done", "failed", "cancelled", "rejected", "transport"}[o]
}

// tally counts attempts by outcome. Everything but done counts as
// failed: a refused or lost request misses its caller as surely as a
// failed job.
type tally struct {
	Attempted int
	ByOutcome [5]int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	t.ByOutcome[o]++
}

// Completed counts attempts that ended done.
func (t tally) Completed() int { return t.ByOutcome[outcomeDone] }

// Failed counts every attempt that did not end done.
func (t tally) Failed() int { return t.Attempted - t.Completed() }

// FailedFrac is Failed over Attempted; 0 when nothing was attempted.
func (t tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}
