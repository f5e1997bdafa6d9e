package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kfio"
	"kfusion/internal/twolayer"
)

// runBatchCold is what kfuse does, once per engine per repetition, from
// bytes on disk to fused JSONL on disk with a fresh reader and fresh graphs
// each time. Parse and compile are most of the work and EM a few percent,
// so kfio and compile changes show here and EM-kernel changes must not.
func runBatchCold(e *env) (*outcome, error) {
	setup := time.Now()
	cal := newCalibrator()
	sc := e.tr.scope(0)
	records, err := countRecords(e.feed)
	if err != nil {
		return nil, err
	}
	outA := filepath.Join(e.dir, "fused-popaccu.jsonl")
	outB := filepath.Join(e.dir, "fused-twolayer.jsonl")
	setupS := time.Since(setup).Seconds()

	var lapsA, lapsB []lap
	var shaA, shaB string
	region := beginTimed(e.tr)
	err = timeBox(e.seconds, minReps, func(rep int) error {
		rs := e.tr.scope(0)
		cal.begin()
		if err := legFusion(rs, cal, e.feed, outA); err != nil {
			return err
		}
		lapsA = append(lapsA, cal.end())
		if err := legTwoLayer(rs, cal, e.feed, outB); err != nil {
			return err
		}
		lapsB = append(lapsB, cal.end())

		// Identical input through fresh graphs must give identical bytes.
		a, err := digestFile(outA)
		if err != nil {
			return err
		}
		b, err := digestFile(outB)
		if err != nil {
			return err
		}
		if rep > 0 && (a != shaA || b != shaB) {
			return checkf("repetition %d wrote different fused bytes than repetition 0", rep)
		}
		shaA, shaB = a, b
		return nil
	})
	if err != nil {
		return nil, err
	}
	region.end()

	// Quality of leg (a)'s file against the gold file, as cmd/kfeval reads them.
	label, err := loadGold(e.gold)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(outA)
	if err != nil {
		return nil, err
	}
	fused, err := kfio.ReadFused(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	m := map[string]sample{}
	evaluate(sc, fused, label).into(m)
	timesA, timesB := cal.unloaded(lapsA), cal.unloaded(lapsB)
	m["fusion_claims_per_s"] = rate(float64(records), timesA)
	m["twolayer_claims_per_s"] = rate(float64(records), timesB)

	return &outcome{
		metrics:   m,
		digest:    digestStrings(shaA, shaB),
		attempted: len(lapsA) + len(lapsB),
		setupS:    setupS,
		region:    region,
		cal:       cal,
		unitS:     median(timesA) + median(timesB),
	}, nil
}

// countRecords counts the feed's lines without parsing them.
func countRecords(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	n := 0
	for {
		k, err := f.Read(buf)
		for _, c := range buf[:k] {
			if c == '\n' {
				n++
			}
		}
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// legFusion: feed file -> ReadBatch -> ClaimStream.Add -> CompileWorkers ->
// Fuse(POPACCU) -> WriteFused.
func legFusion(sc *scope, cal *calibrator, feed, out string) error {
	cfg := fusion.PopAccuConfig()
	f, err := os.Open(feed)
	if err != nil {
		return err
	}
	defer f.Close()
	r := kfio.NewExtractionReader(f)
	stream := fusion.NewClaimStream(cfg.Granularity)
	var claims []fusion.Claim
	for {
		sc.begin("kfio.parse")
		b, rerr := r.ReadBatch(readBatch)
		sc.end()
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return rerr
		}
		sc.add("kfio.parse_records", float64(len(b)))
		sc.begin("fusion.flatten")
		claims = append(claims, stream.Add(b)...)
		sc.end()
		cal.tick()
		if rerr != nil {
			break
		}
	}
	sc.add("kfio.parse_bytes", fileSize(feed))
	sc.add("fusion.flatten_claims", float64(len(claims)))

	sc.begin("fusion.compile")
	c, err := fusion.CompileWorkers(claims, 0, 0)
	sc.end()
	if err != nil {
		return err
	}
	sc.set("fusion.graph_bytes", float64(c.ApproxBytes()))
	cal.tick()
	sc.begin("fusion.fuse")
	res, err := c.Fuse(cfg)
	sc.end()
	if err != nil {
		return err
	}
	cal.tick()
	sc.begin("kfio.write_fused")
	err = writeFused(out, res)
	sc.end()
	sc.add("kfio.write_fused_bytes", fileSize(out))
	return err
}

// legTwoLayer: feed file -> parse -> extract.CompileWorkers ->
// twolayer.FuseCompiled -> WriteFused.
func legTwoLayer(sc *scope, cal *calibrator, feed, out string) error {
	cfg := twolayer.DefaultConfig()
	xs, err := loadFeed(sc, cal, feed, "kfio.parse")
	if err != nil {
		return err
	}
	sc.add("kfio.parse_records", float64(len(xs)))
	sc.add("kfio.parse_bytes", fileSize(feed))
	sc.begin("extract.compile")
	g := extract.CompileWorkers(xs, cfg.SiteLevel, 0)
	sc.end()
	sc.set("extract.graph_statements", float64(g.NumStatements()))
	cal.tick()
	sc.begin("twolayer.fuse")
	res, err := twolayer.FuseCompiled(g, cfg)
	sc.end()
	if err != nil {
		return err
	}
	cal.tick()
	sc.begin("kfio.write_fused")
	err = writeFused(out, res)
	sc.end()
	sc.add("kfio.write_fused_bytes", fileSize(out))
	return err
}
