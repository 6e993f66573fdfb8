package retest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// reorderCheckpoint swaps the first two decisions of the checkpoint at
// path and rewrites it. Identity hashes and counts are untouched, so
// the file still passes Validate, but its replay diverges from the live
// fault list at the very first entry.
func reorderCheckpoint(t *testing.T, path string, c *netlist.Circuit, faults []fault.Fault, opt atpg.Options) *atpg.Checkpoint {
	t.Helper()
	ck, err := atpg.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decided) < 2 {
		t.Fatalf("checkpoint holds %d decisions, need 2 to reorder", len(ck.Decided))
	}
	ck.Decided[0], ck.Decided[1] = ck.Decided[1], ck.Decided[0]
	if err := ck.Validate(c, faults, opt); err != nil {
		t.Fatalf("reordered checkpoint no longer validates: %v", err)
	}
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return ck
}

// checkRerunClean asserts a run over a divergent checkpoint recovered:
// nil error, the checkpoint-free payload, the discard reported last to
// OnResume, and the file at path rewritten by the clean rerun with the
// bytes an uninterrupted checkpointed run leaves.
func checkRerunClean(t *testing.T, res *atpg.Result, err error, want []byte, last error, path string, original []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("run over a divergent checkpoint failed: %v", err)
	}
	if !bytes.Equal(atpg.EncodeResultPayload(res), want) {
		t.Fatal("result differs from the checkpoint-free run")
	}
	if !errors.Is(last, atpg.ErrCheckpointMismatch) {
		t.Fatalf("last OnResume error = %v, want ErrCheckpointMismatch", last)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, original) {
		t.Fatalf("checkpoint after the clean rerun differs from an uninterrupted run's (%v)", err)
	}
}

// TestDivergentCheckpointRerunsClean: a checkpoint that validates but
// diverges mid-replay must never wedge a run that owns a checkpoint
// path. Every entry point discards the file, reports the discard and
// reruns clean in the same call, byte-identical to a checkpoint-free
// run.
func TestDivergentCheckpointRerunsClean(t *testing.T) {
	ctx := context.Background()
	c := netlist.Fig5N1()
	faults, _ := fault.Collapse(c)
	opt := atpg.DefaultOptions()
	opt.RandomPhase = false // every fault becomes a logged decision
	opt.MaxFrames = 4
	want := atpg.EncodeResultPayload(atpg.Run(c, faults, opt))
	miss := func(fault.Fault) (atpg.DecidedFault, bool) { return atpg.DecidedFault{}, false }

	for _, tc := range []struct {
		name string
		run  func(opt atpg.Options) (*atpg.Result, error)
	}{
		{"RunContext/workers=1", func(opt atpg.Options) (*atpg.Result, error) {
			opt.Workers = 1
			return atpg.RunContext(ctx, c, faults, opt)
		}},
		{"RunContext/workers=2", func(opt atpg.Options) (*atpg.Result, error) {
			opt.Workers = 2
			return atpg.RunContext(ctx, c, faults, opt)
		}},
		{"RunContextWithCandidates", func(opt atpg.Options) (*atpg.Result, error) {
			return atpg.RunContextWithCandidates(ctx, c, faults, opt, miss)
		}},
		{"ATPGWithCheckpoint", func(opt atpg.Options) (*atpg.Result, error) {
			opt.Checkpoint.ResumeFrom = nil // the facade loads the file itself
			return ATPGWithCheckpoint(ctx, c, faults, opt, opt.Checkpoint.Path, opt.Checkpoint.Every)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			first := opt
			first.Checkpoint = atpg.CheckpointConfig{Path: path, Every: 1}
			if _, err := atpg.RunContext(ctx, c, faults, first); err != nil {
				t.Fatal(err)
			}
			original, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			var last error
			run := opt
			run.Checkpoint = atpg.CheckpointConfig{
				Path:       path,
				Every:      1,
				ResumeFrom: reorderCheckpoint(t, path, c, faults, opt),
				OnResume:   func(_ bool, err error) { last = err },
			}
			res, err := tc.run(run)
			checkRerunClean(t, res, err, want, last, path, original)
		})
	}

	// Without a path the divergent log is still an error: there is no
	// file to discard and the caller asked for this exact resume.
	t.Run("no path", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		first := opt
		first.Checkpoint = atpg.CheckpointConfig{Path: path, Every: 1}
		if _, err := atpg.RunContext(ctx, c, faults, first); err != nil {
			t.Fatal(err)
		}
		run := opt
		run.Checkpoint.ResumeFrom = reorderCheckpoint(t, path, c, faults, opt)
		if _, err := atpg.RunContext(ctx, c, faults, run); !errors.Is(err, atpg.ErrCheckpointMismatch) {
			t.Fatalf("pathless divergent resume: err = %v, want ErrCheckpointMismatch", err)
		}
	})

	t.Run("Fig6FlowContext", func(t *testing.T) {
		pair, _, _, err := core.MinPeriodPair(netlist.Fig2C1())
		if err != nil {
			t.Fatal(err)
		}
		impl := pair.Retimed
		ref, err := core.Fig6FlowContext(ctx, impl, opt)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fig6.ckpt")
		first := opt
		first.Checkpoint = atpg.CheckpointConfig{Path: path, Every: 1}
		if _, err := core.Fig6FlowContext(ctx, impl, first); err != nil {
			t.Fatal(err)
		}
		original, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reorderCheckpoint(t, path, ref.Pair.Original, ref.EasyATPG.Faults, opt)

		var last error
		run := opt
		run.Checkpoint = atpg.CheckpointConfig{
			Path:     path,
			Every:    1,
			OnResume: func(_ bool, err error) { last = err },
		}
		out, err := core.Fig6FlowContext(ctx, impl, run)
		if err != nil {
			t.Fatal(err)
		}
		checkRerunClean(t, out.EasyATPG, err, atpg.EncodeResultPayload(ref.EasyATPG), last, path, original)
	})
}
