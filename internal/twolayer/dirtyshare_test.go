package twolayer_test

import (
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/twolayer"
)

// TestWarmStepRescoresTheBatch is the point of the carried E-step in one
// number, on the feed the benchmark serves: a 400-record step onto the large
// dataset's 50 000-record head (serve-mixed's shape) re-scores, in its first
// E-step, under 5 % of the statements the graph holds — the batch's own, the
// old ones it reaches through a new extractor pairing or a grown extractor
// list, nothing else. (An external test: internal/exper imports this
// package.)
func TestWarmStepRescoresTheBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesises the large dataset")
	}
	const head, batch, steps = 50_000, 400, 10
	xs := exper.SharedDataset(exper.ScaleLarge, 42).Extractions
	if len(xs) < head+(steps+1)*batch {
		t.Fatalf("large dataset too small: %d extractions", len(xs))
	}
	cfg := twolayer.DefaultConfig()
	warm := cfg
	warm.Rounds = 1
	g := extract.Compile(xs[:head], cfg.SiteLevel)
	_, st, err := twolayer.FuseCompiledWarm(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= steps; i++ {
		g = g.Append(xs[head+i*batch : head+(i+1)*batch])
		if _, st, err = twolayer.FuseCompiledWarm(g, warm, st); err != nil {
			t.Fatal(err)
		}
		scored, total, ok := twolayer.FirstPass(st)
		if !ok {
			t.Fatalf("step %d: a seeded run left no engines on its State", i)
		}
		if i == 0 {
			// The chain's first warm step follows a cold run, which hands on
			// no engines: fresh ones, full pass.
			if scored != total {
				t.Fatalf("first warm step scored %d of %d statements on fresh engines", scored, total)
			}
			continue
		}
		if scored*20 >= total {
			t.Fatalf("step %d: the first E-step scored %d of %d statements (%.1f %%), want under 5 %%", i, scored, total, 100*float64(scored)/float64(total))
		}
	}
}
