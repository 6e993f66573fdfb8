package main

import "testing"

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},   // grandchild
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 210}, // outside the parent
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	secs, count := selfByName(append(spans, span{ID: 7, Name: "a", Start: 0, End: 1e9}))
	if count["a"] != 2 || secs["a"] != 1+20e-9 {
		t.Errorf("by name: a = %v s over %d spans, want 1.00000002 s over 2", secs["a"], count["a"])
	}
}

func TestTracerRecordsParentsAndNilIsNoop(t *testing.T) {
	var off *tracer
	if id := off.start("x", "j", 0); id != 0 {
		t.Fatalf("nil tracer start = %d, want 0", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.start("job", "j1", 0)
	child := tr.start("http.poll", "j1", root)
	tr.end(child)
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Job != "j1" || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}
