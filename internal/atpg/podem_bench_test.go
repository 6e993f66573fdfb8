package atpg_test

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
)

// BenchmarkPODEM times PODEM alone: the faults that survive the random
// phase of three speed-retimed Table II circuits, each targeted on its
// own through GenerateShard (no grading or fault dropping between
// targets) at DefaultOptions with one worker. Circuit synthesis,
// retiming, collapse and the random phase are setup, outside the timer.
func BenchmarkPODEM(b *testing.B) {
	for _, name := range []string{"dk16.ji.sd", "s510.jo.sr", "s820.jo.sd"} {
		b.Run(name, func(b *testing.B) {
			c := speedRetimed(b, name)
			opt := atpg.DefaultOptions()
			faults, _ := fault.Collapse(c)
			ctx := context.Background()
			targets, err := atpg.RandomSurvivors(ctx, c, faults, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := atpg.GenerateShard(ctx, c, targets, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(targets)), "targets/op")
		})
	}
}
