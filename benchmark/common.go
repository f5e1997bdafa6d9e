package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"kfusion/internal/eval"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

// env is everything one workload run receives: the generated input files, a
// private scratch directory, the run length and (traced runs only) a tracer.
// The program under test never sees the seed, only the files made from it.
type env struct {
	feed, gold string
	dir        string // scratch, removed by the parent
	seconds    float64
	tr         *tracer // nil = tracing off
}

// sizes are the operation counts of the workloads whose state depends on how
// much was fed (stream-sharded, serve-mixed): fixed by the run length and
// the feed, never by how fast the machine is, so result digests repeat.
type sizes struct {
	head         int // records the streaming workloads bulk-load in set-up
	chunk        int // stream-sharded records per step
	streamChunks int // steps per engine
	checkSteps   int // leading steps shadowed by the unsharded engine
	serveBatch   int // records per append
	appends      int // mixed-phase appends to the popaccu daemon
	tlAppends    int // closed-loop appends to the twolayer daemon
}

const (
	minReps     = 2   // batch-cold repetitions at least
	minSweeps   = 3   // sweep-reuse sweeps at least
	prepAppends = 20  // serve-mixed appends that build the prepared state
	boots       = 3   // serve-mixed cold boots
	readRate    = 400 // serve-mixed open-loop reads per second
)

// sizesFor scales the counts with the run length, up to what the feed holds
// after the head: 100 stream steps from 10 s, 230 appends from 15 s.
func sizesFor(seconds float64, records int) sizes {
	sz := sizes{chunk: 1000, serveBatch: 400}
	if records < 100_000 { // unit-test scale: same shape, proportionally small steps
		sz.chunk = records / 200
		sz.serveBatch = records / 500
	}
	sz.head = records / 3
	sz.streamChunks = clamp(int(10*seconds), 2, min((records-sz.head)/sz.chunk, 100))
	sz.checkSteps = min(5, sz.streamChunks)
	room := (records - sz.head - prepAppends*sz.serveBatch) / sz.serveBatch
	sz.appends = clamp(int(16*seconds), 2, room)
	sz.tlAppends = clamp(int(8*seconds), 1, room)
	return sz
}

func clamp(v, lo, hi int) int {
	return max(lo, min(v, hi))
}

// outcome is what a workload hands back; run() turns it into a result.
type outcome struct {
	metrics   map[string]sample // end-to-end, always measured
	digest    string
	attempted int
	failed    int
	setupS    float64 // the child's preparation before the timed region
	region    *timedRegion
	cal       *calibrator
	unitS     float64 // wall per unit of work, what the overhead ratio compares
}

// checkf reports an output check that did not hold: the run exits non-zero
// and prints no metrics.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}

// readBatch is the records per kfio ReadBatch call.
const readBatch = 8192

// timeBox repeats fn until the run length has passed, at least atLeast
// times. It suits the workloads whose repetitions are identical, so the
// count changes no output.
func timeBox(seconds float64, atLeast int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start).Seconds() < seconds; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// loadFeed parses the whole feed the way kfuse streams it: ReadBatch until
// EOF. span names the layer row the time is charged to.
func loadFeed(sc *scope, cal *calibrator, path, span string) ([]extract.Extraction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := kfio.NewExtractionReader(f)
	var xs []extract.Extraction
	for {
		sc.begin(span)
		b, err := r.ReadBatch(readBatch)
		sc.end()
		cal.tick()
		xs = append(xs, b...)
		if errors.Is(err, io.EOF) {
			return xs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
	}
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

func loadGold(path string) (func(kb.Triple) (bool, bool), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	label, _, err := kfio.ReadGold(f)
	if err != nil {
		return nil, fmt.Errorf("read gold %s: %w", path, err)
	}
	return label, nil
}

// writeFused writes a result to disk the way kfuse does.
func writeFused(path string, res *fusion.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := kfio.WriteFused(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quality is what cmd/kfeval prints for a fused result: weighted deviation
// of the 20-bucket calibration curve and the area under the PR curve, over
// the predicted triples the gold file labels.
type quality struct {
	wdev, aucPR float64
	labeled     int
}

func evaluate(sc *scope, res *fusion.Result, label func(kb.Triple) (bool, bool)) quality {
	sc.begin("eval.evaluate")
	defer sc.end()
	var preds []eval.Prediction
	for _, f := range res.Triples {
		if !f.Predicted {
			continue
		}
		if l, ok := label(f.Triple); ok {
			preds = append(preds, eval.Prediction{Prob: f.Probability, Label: l})
		}
	}
	return quality{
		wdev:    eval.Calibration(preds, 20).WeightedDeviation(),
		aucPR:   eval.AUCPR(preds),
		labeled: len(preds),
	}
}

func (q quality) into(m map[string]sample) {
	m["popaccu_wdev"] = sample{Value: q.wdev, Unit: "ratio", N: q.labeled}
	m["popaccu_auc_pr"] = sample{Value: q.aucPR, Unit: "ratio", N: q.labeled}
}

// digestResult fingerprints a fusion result bit for bit: triples in result
// order with their posterior bits and counts, the round count, and the
// provenance accuracies in key order.
func digestResult(res *fusion.Result) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		w.WriteString(s)
	}
	num(uint64(res.Rounds))
	num(uint64(res.Unpredicted))
	for _, t := range res.Triples {
		str(string(t.Triple.Subject))
		str(string(t.Triple.Predicate))
		str(t.Triple.Object.String())
		num(math.Float64bits(t.Probability))
		if t.Predicted {
			num(1)
		} else {
			num(0)
		}
		num(uint64(t.Provenances))
		num(uint64(t.ItemProvenances))
		num(uint64(t.Extractors))
	}
	keys := make([]string, 0, len(res.ProvAccuracy))
	for k := range res.ProvAccuracy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str(k)
		num(math.Float64bits(res.ProvAccuracy[k]))
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// digestStrings folds several digests into one.
func digestStrings(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:])
}

func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// maxAbsDiff compares two results triple by triple; the orders must agree
// up to the (shard-major) permutation, so it matches by triple.
func maxAbsDiff(a, b *fusion.Result) (float64, error) {
	if len(a.Triples) != len(b.Triples) {
		return 0, checkf("results hold %d and %d triples", len(a.Triples), len(b.Triples))
	}
	idx := b.ByTriple()
	worst := 0.0
	for _, t := range a.Triples {
		u, ok := idx[t.Triple]
		if !ok {
			return 0, checkf("triple %v is in one result only", t.Triple)
		}
		if t.Predicted != u.Predicted {
			return 0, checkf("triple %v predicted in one result only", t.Triple)
		}
		worst = math.Max(worst, math.Abs(t.Probability-u.Probability))
	}
	return worst, nil
}

// peakRSSMB is the process's VmHWM: the most resident memory it ever held.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timedRegion brackets a workload's timed part: on the wall clock always,
// and on the tracer's clock and the allocator's counters in a traced run.
type timedRegion struct {
	tr       *tracer
	start    time.Time
	from, to time.Duration // on the tracer's clock
	wallS    float64
	peakMB   float64 // VmHWM when the region closed
	before   runtime.MemStats
}

// beginTimed settles the heap first, so set-up garbage is not collected on
// the clock.
func beginTimed(tr *tracer) *timedRegion {
	runtime.GC()
	r := &timedRegion{tr: tr}
	if tr != nil {
		runtime.ReadMemStats(&r.before)
	}
	r.start, r.from = time.Now(), tr.since()
	return r
}

// end closes the region, reads the peak memory of set-up plus timed work
// before the output checks (which build graphs and daemons of their own) can
// raise it, and records the allocator's work over the region as runtime.*
// rows.
func (r *timedRegion) end() {
	r.wallS, r.to = time.Since(r.start).Seconds(), r.tr.since()
	r.peakMB = peakRSSMB()
	if r.tr == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.tr.set("runtime.alloc_bytes", float64(after.TotalAlloc-r.before.TotalAlloc))
	r.tr.set("runtime.mallocs", float64(after.Mallocs-r.before.Mallocs))
	r.tr.set("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-r.before.PauseTotalNs)/1e6)
}
