package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kfusion/internal/exper"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself as a workload child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{ten, 10.0001, 2},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{nil, 95, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		p         float64
		beyond    int
		supported bool
	}{
		{240, 95, 12, true},
		{200, 95, 10, true},
		{199, 95, 9, false},
		{60, 95, 3, false},
		{6000, 95, 300, true},
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{0, 95, 0, false},
	} {
		got := beyond(tc.n, tc.p)
		if got != tc.beyond || (got >= minBeyond) != tc.supported {
			t.Errorf("beyond(%d, %g) = %d (supported %v), want %d (supported %v)",
				tc.n, tc.p, got, got >= minBeyond, tc.beyond, tc.supported)
		}
	}
}

// The driver judges spread with Python's statistics.quantiles(values, n=4);
// the expected values below were produced by it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 12, 11, 15, 9, 30, 11.5}, [3]float64{10, 11.5, 15}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got, want := spread([]float64{10, 12, 11, 15, 9, 30, 11.5}), 5/11.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "rep", ID: 1, Start: 0, End: 100 * ms},
		{Name: "kfio.parse", ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "json.decode", ID: 3, Parent: 2, Start: 20 * ms, End: 30 * ms},
		{Name: "fusion.fuse", ID: 4, Parent: 1, Start: 50 * ms, End: 70 * ms},
		// A handler caused by a client span on another goroutine.
		{Name: "client.read_rtt", ID: 5, Req: 2, Start: 200 * ms, End: 210 * ms},
		{Name: "server.read_handler", ID: 6, Parent: 5, Req: 3, Start: 202 * ms, End: 206 * ms},
		// Same name twice: rows sum.
		{Name: "fusion.fuse", ID: 7, Start: 300 * ms, End: 305 * ms},
	}
	got := selfTimes(spans, 0, time.Second)
	want := map[string]float64{
		"rep": 0.050, "kfio.parse": 0.020, "json.decode": 0.010, "fusion.fuse": 0.025,
		"client.read_rtt": 0.006, "server.read_handler": 0.004,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	// Only spans inside the window count, but a counted span still loses
	// its children's time.
	win := selfTimes(spans, 5*ms, 45*ms)
	if len(win) != 2 || math.Abs(win["kfio.parse"]-0.020) > 1e-12 || math.Abs(win["json.decode"]-0.010) > 1e-12 {
		t.Errorf("windowed rows = %v", win)
	}
}

func TestScopeNestingAndNilScope(t *testing.T) {
	var off *tracer
	sc := off.scope(0)
	sc.begin("x") // tracing off: all no-ops
	sc.add("n", 1)
	sc.end()
	if sc.current() != 0 || off.since() != 0 {
		t.Fatal("nil tracer should record nothing")
	}

	tr := newTracer()
	a := tr.scope(0)
	a.begin("outer")
	a.begin("inner")
	b := tr.scope(a.current()) // caused by inner, on another goroutine
	b.begin("remote")
	b.end()
	a.end()
	a.end()
	a.add("count", 2)
	a.add("count", 3)
	byName := map[string]span{}
	for _, sp := range tr.spans {
		byName[sp.Name] = sp
	}
	if byName["inner"].Parent != byName["outer"].ID || byName["remote"].Parent != byName["inner"].ID || byName["outer"].Parent != 0 {
		t.Errorf("parents wrong: %+v", tr.spans)
	}
	if byName["remote"].Req == byName["inner"].Req || byName["inner"].Req != byName["outer"].Req {
		t.Errorf("request ids wrong: %+v", tr.spans)
	}
	if tr.counts["count"] != 5 {
		t.Errorf("counter = %g, want 5", tr.counts["count"])
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome trace = %+v", doc.TraceEvents)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	s := schedule{rate: 400}
	if s.due(0) != 0 || s.due(1) != 2500*time.Microsecond || s.due(400) != time.Second {
		t.Errorf("due times: %v %v %v", s.due(0), s.due(1), s.due(400))
	}
	for _, tc := range []struct {
		due, sent, done time.Duration
		late, lat       float64
	}{
		{10 * ms, 10 * ms, 12 * ms, 0, 2},   // on time
		{10 * ms, 35 * ms, 36 * ms, 25, 26}, // queued behind a stall: the wait counts
		{10 * ms, 9 * ms, 11 * ms, 0, 1},    // never early
	} {
		late, lat := account(tc.due, tc.sent, tc.done)
		if late != tc.late || lat != tc.lat {
			t.Errorf("account(%v, %v, %v) = late %g, latency %g; want %g, %g", tc.due, tc.sent, tc.done, late, lat, tc.late, tc.lat)
		}
	}
}

func sampleFile(sha string, claimsPerS float64, digest string) *resultFile {
	return &resultFile{
		Seed: 42, Seconds: 10, Segments: 1,
		Feed:      feedInfo{Records: 214898, Bytes: 42204152, SHA256: sha},
		GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2, Commit: "abc1234",
		Runs: []runResult{{
			Workload: "batch-cold",
			Metrics: map[string]sample{
				"fusion_claims_per_s": {Value: claimsPerS, Unit: "1/s", N: 3},
				"popaccu_auc_pr":      {Value: 0.3, Unit: "ratio", N: 16000},
				"setup_s":             {Value: 9.5, Unit: "s"},
				"failed_ops_ratio":    {Value: 0, Unit: "ratio", N: 6},
			},
			Digest: digest, Attempted: 6, WallS: 10.2, UnitS: 3.3,
		}},
	}
}

func TestResultFileRoundTripAndCompare(t *testing.T) {
	base := sampleFile("aaaa", 100000, "d1")
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeJSON(path, base); err != nil {
		t.Fatal(err)
	}
	var back resultFile
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, &back) {
		t.Fatalf("round trip changed the file:\n%+v\n%+v", base, &back)
	}

	var out bytes.Buffer
	if _, err := compare(&out, base, sampleFile("bbbb", 100000, "d1")); err == nil || !strings.Contains(err.Error(), "feed digests differ") {
		t.Errorf("different feeds must refuse to compare, got %v", err)
	}
	for _, tc := range []struct {
		now    float64
		breach bool
	}{
		{100000, false},
		{90000, false}, // 10% slower: inside the 15% bound
		{80000, true},  // 20% slower
		{150000, false},
	} {
		out.Reset()
		breach, err := compare(&out, base, sampleFile("aaaa", tc.now, "d1"))
		if err != nil || breach != tc.breach {
			t.Errorf("compare %g -> %g: breach %v err %v, want breach %v\n%s", 100000.0, tc.now, breach, err, tc.breach, out.String())
		}
		if !strings.Contains(out.String(), "100000") { // every ratio is printed with its base
			t.Errorf("compare output lacks the base value:\n%s", out.String())
		}
	}
	// A failure ratio may not rise at all, and the quality of one feed's
	// output repeats exactly: both have absolute bounds.
	for _, tc := range []struct {
		metric string
		now    float64
		breach bool
	}{
		{"failed_ops_ratio", 0.01, true},
		{"popaccu_auc_pr", 0.29995, false},
		{"popaccu_auc_pr", 0.2998, true}, // a 0.07% drop: far inside any relative bound
		{"popaccu_auc_pr", 0.35, false},
	} {
		changed := sampleFile("aaaa", 100000, "d1")
		changed.Runs[0].Metrics[tc.metric] = sample{Value: tc.now, Unit: "ratio"}
		if breach, err := compare(&out, base, changed); err != nil || breach != tc.breach {
			t.Errorf("%s -> %g: breach %v err %v, want breach %v", tc.metric, tc.now, breach, err, tc.breach)
		}
	}
}

func TestAASummary(t *testing.T) {
	var out bytes.Buffer
	steady := []*resultFile{sampleFile("a", 100000, "d"), sampleFile("a", 103000, "d"), sampleFile("a", 98000, "d")}
	if summarizeAA(&out, steady) {
		t.Errorf("runs within 3%% of the median breach a 15%% bound:\n%s", out.String())
	}
	wild := []*resultFile{sampleFile("a", 100000, "d"), sampleFile("a", 100000, "d"), sampleFile("a", 60000, "d")}
	if !summarizeAA(&out, wild) {
		t.Error("a run 40% off the median must breach a 15% bound")
	}
	drift := []*resultFile{sampleFile("a", 100000, "d"), sampleFile("a", 100000, "e")}
	if !summarizeAA(&out, drift) {
		t.Error("result digests that do not repeat must breach")
	}
}

// BENCHMARK.json is the driver's view of the catalogue in metrics.go.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.DriverBound > 0 {
			if d.Abs || d.On != nil {
				t.Errorf("%s: the driver gates only relative bounds on metrics every workload has", d.Name)
			}
			gated = append(gated, d)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the program", len(doc.EndToEnd), len(gated))
	}
	for i, d := range gated {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.DriverBound {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v, program has %+v", i, got, d)
		}
	}
}

// TestSmokeAllWorkloads runs the four workloads end to end on a unit-test
// feed, untraced and traced, so the benchmark cannot rot between perf PRs.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	fd, err := synthFeed(dir, exper.ScaleSmall, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Records == 0 || len(fd.SHA256) != 64 {
		t.Fatalf("feed: %+v", fd.feedInfo)
	}
	again, err := synthFeed(t.TempDir(), exper.ScaleSmall, 7, 1)
	if err != nil || again.SHA256 != fd.SHA256 {
		t.Fatalf("the same seed must give the same feed bytes: %v %v %v", err, fd.SHA256, again.SHA256)
	}

	owners := map[string][]string{ // the rows each workload was built to move
		"batch-cold":     {"kfio.parse_busy_s", "fusion.compile_busy_s", "extract.compile_busy_s", "kfio.parse_records"},
		"sweep-reuse":    {"fusion.stage1_busy_s", "fusion.finish_busy_s", "twolayer.infer_truth_busy_s", "fusion.rounds"},
		"stream-sharded": {"shard.fusion_append_busy_s", "shard.twolayer_fusewarm_busy_s", "shard.max_shard_share"},
		"serve-mixed":    {"genstore.journal_busy_s", "server.append_handler_busy_s", "client.read_rtt_busy_s"},
	}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			var digests [2]string
			for k, traced := range []bool{false, true} {
				e := &env{feed: fd.path, gold: fd.gold, dir: t.TempDir(), seconds: 0.3}
				traceFile := ""
				if traced {
					e.tr = newTracer()
					traceFile = filepath.Join(e.dir, "trace.json")
				}
				r, err := measure(wl, e, traceFile)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				digests[k] = r.Digest
				if r.Attempted == 0 || r.Failed != 0 {
					t.Errorf("traced=%v: attempted %d failed %d", traced, r.Attempted, r.Failed)
				}
				for _, d := range endToEnd {
					if s, ok := r.Metrics[d.Name]; d.on(wl.Name) && d.Name != "failed_ops_ratio" && (!ok || !(s.Value > 0)) {
						t.Errorf("traced=%v: %s = %+v, want a positive value", traced, d.Name, s)
					}
				}
				if !traced {
					continue
				}
				for _, row := range owners[wl.Name] {
					if !(r.Layers[row].Value > 0) {
						t.Errorf("traced run lacks %s: %+v", row, r.Layers[row])
					}
				}
				for name, s := range r.Layers {
					if strings.HasPrefix(name, "genstore.") && wl.Name != "serve-mixed" && s.Value != 0 {
						t.Errorf("%s has genstore row %s = %g", wl.Name, name, s.Value)
					}
				}
				if st, err := os.Stat(traceFile); err != nil || st.Size() == 0 {
					t.Errorf("trace file: %v", err)
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("traced and untraced runs disagree: %s vs %s", digests[0], digests[1])
			}
		})
	}
}

// TestDriverContract runs one workload the way the benchmark driver does —
// parent, child process, JSON as the last line — for both trace settings.
func TestDriverContract(t *testing.T) {
	feedScale = exper.ScaleSmall
	t.Cleanup(func() { feedScale = exper.ScaleLarge })
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "stream-sharded", "--seed", "3", "--seconds", "0.3", "--trace", trace,
			"-out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		want := map[string]bool{}
		if trace == "1" {
			for _, d := range perLayer {
				want[d.Name] = true
			}
		} else {
			for _, d := range endToEnd {
				if d.DriverBound > 0 {
					want[d.Name] = true
				}
			}
		}
		for name := range want {
			if m, ok := got.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s missing from the result line", trace, name)
			}
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want exactly %d", trace, len(got.Metrics), len(want))
		}
		// The traced line carries the untraced run's end-to-end values and
		// the ratio of the two runs.
		for _, name := range []string{"e2e.peak_rss_mb", "e2e.popaccu_auc_pr", "trace.overhead_ratio"} {
			if m := got.Metrics[name]; trace == "1" && (m.Value == nil || !(*m.Value > 0)) {
				t.Errorf("trace 1: %s = %v, want a positive value", name, m.Value)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("an unknown workload must fail without a result: exit %d, stdout %q", code, stdout.String())
	}
}
