// Command benchmark is the repository's layered benchmark: one feed
// synthesised from a seed, four workloads that take it from feed bytes to a
// served posterior, end-to-end metrics measured with tracing off and a
// traced run that attributes the time to layers. README.md has the metric
// and workload definitions; BENCHMARK.json at the repository root is the
// contract the benchmark driver runs it under.
//
//	go run ./benchmark -seed 42                      # all workloads, end-to-end table
//	go run ./benchmark -seed 42 -trace 1             # ... plus the traced run and the per-layer table
//	go run ./benchmark -workload serve-mixed -seed 7 -seconds 14 -trace 0
//	go run ./benchmark -aa 5                         # same build five times: spread against the bounds
//	go run ./benchmark -compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"kfusion/internal/exper"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	compare  bool
	segments int
	out      string
	save     string

	// Set by the parent when it re-executes itself as a workload child.
	child             bool
	feed, gold, dir   string
	result, traceFile string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (batch-cold, sweep-reuse, stream-sharded, serve-mixed) and end with the driver's JSON line; default all")
	fs.Int64Var(&o.seed, "seed", 42, "feed seed: the same seed gives the same input bytes")
	fs.Float64Var(&o.seconds, "seconds", 14, "length of each workload's timed region; operation counts scale with it")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats every run with spans recorded around each layer call and prints the per-layer table")
	fs.IntVar(&o.aa, "aa", 0, "run the untraced suite N times on this build and judge the spread against the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare base.json new.json")
	fs.IntVar(&o.segments, "segments", 1, "feed segments of ~215k extractions each, for manual 1M/10M runs")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for scratch files, traces and result files")
	fs.StringVar(&o.save, "o", "", "result file to write (default <out>/result-seed<seed>.json)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload on prepared inputs")
	fs.StringVar(&o.feed, "feed", "", "internal: feed file")
	fs.StringVar(&o.gold, "gold", "", "internal: gold file")
	fs.StringVar(&o.dir, "dir", "", "internal: scratch directory")
	fs.StringVar(&o.result, "result", "", "internal: where the child writes its result")
	fs.StringVar(&o.traceFile, "tracefile", "", "internal: where the child writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.child:
		err = runChild(&o)
	case o.compare:
		err = runCompare(fs.Args(), stdout)
	default:
		err = runParent(&o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

var errBreach = errors.New("a metric is outside its bound")

func runCompare(files []string, stdout io.Writer) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(files))
	}
	var base, now resultFile
	if err := readJSON(files[0], &base); err != nil {
		return err
	}
	if err := readJSON(files[1], &now); err != nil {
		return err
	}
	breach, err := compare(stdout, &base, &now)
	if err != nil {
		return err
	}
	if breach {
		return errBreach
	}
	return nil
}

// runChild is the fresh process one workload runs in, so its peak memory
// and allocator state are its own.
func runChild(o *options) error {
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e := &env{feed: o.feed, gold: o.gold, dir: o.dir, seconds: o.seconds}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	res, err := measure(wl, e, o.traceFile)
	if err != nil {
		return err
	}
	return writeJSON(o.result, res)
}

// measure runs one workload in this process and assembles its result.
func measure(wl *workload, e *env, traceFile string) (*runResult, error) {
	out, err := wl.run(e)
	if err != nil {
		return nil, err
	}
	r := &runResult{
		Workload:  wl.Name,
		Traced:    e.tr != nil,
		Metrics:   out.metrics,
		Digest:    out.digest,
		Attempted: out.attempted,
		Failed:    out.failed,
		WallS:     out.region.wallS,
		UnitS:     out.unitS,
	}
	r.Metrics["setup_s"] = sample{Value: out.setupS, Unit: "s"}
	r.Metrics["peak_rss_mb"] = sample{Value: out.region.peakMB, Unit: "MB"}
	r.Metrics["failed_ops_ratio"] = sample{Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: "ratio", N: out.attempted}
	if e.tr == nil {
		return r, nil
	}
	r.Layers = layerRows(e.tr, out)
	if traceFile != "" {
		if err := writeChrome(traceFile, e.tr.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// layerRows turns the spans and counters of a traced run into the
// per-layer table.
func layerRows(tr *tracer, out *outcome) map[string]sample {
	vals := map[string]float64{}
	covered := 0.0
	for name, v := range selfTimes(tr.spans, out.region.from, out.region.to) {
		if wholeRun(name) || name == "bench.boot" {
			continue
		}
		vals[name+"_busy_s"] = v
		covered += v
	}
	for name, v := range selfTimes(tr.spans, 0, math.MaxInt64) {
		if wholeRun(name) {
			vals[name+"_busy_s"] = v
		}
	}
	for name, v := range tr.counts {
		vals[name] = v
	}
	// The calibration spins run between layer calls, inside the timed wall
	// but outside every lap; what is left uncovered is the harness.
	vals["bench.spin_busy_s"] = out.cal.total
	vals["bench.host_slowdown_ratio"] = out.cal.slowdown()
	wall := out.region.wallS - out.cal.total
	vals["trace.coverage_ratio"] = covered / wall
	vals["bench.harness_busy_s"] = math.Max(0, wall-covered)
	if path, ok := vals["replica.write_path_busy_s"]; ok {
		// Computed, not measured: the live append handlers minus what the
		// replica spent on journal, apply and snapshot for the same batches
		// leaves JSON decode, view rebuild and response encode.
		vals["server.publish_rest_busy_s"] = vals["server.append_handler_busy_s"] - path
	}
	rows := map[string]sample{}
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			rows[d.Name] = sample{Value: v, Unit: d.Unit}
		}
	}
	return rows
}

func runParent(o *options, stdout, stderr io.Writer) error {
	if o.seconds <= 0 || o.segments < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -seconds > 0, -segments >= 1 and -trace 0 or 1")
	}
	selected := workloads
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*wl}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	rounds := max(o.aa, 1)
	files := make([]*resultFile, 0, rounds)
	for round := 0; round < rounds; round++ {
		f, err := suite(o, selected, stdout, stderr)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	last := files[len(files)-1]

	switch {
	case o.aa > 0:
		fmt.Fprintf(stdout, "\nA/A over %d runs of this build (seed %d, %gs):\n", o.aa, o.seed, o.seconds)
		if summarizeAA(stdout, files) {
			return errBreach
		}
	case o.workload != "":
		// The benchmark driver's contract: one JSON object as the last line,
		// from the traced run when there is one.
		return json.NewEncoder(stdout).Encode(driverLine(&last.Runs[len(last.Runs)-1]))
	}
	save := o.save
	if save == "" {
		save = filepath.Join(o.out, fmt.Sprintf("result-seed%d.json", o.seed))
	}
	if err := writeJSON(save, last); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresult file: %s\n", save)
	return nil
}

// feedScale is the dataset every run synthesises; the driver-contract test
// swaps in the unit-test scale.
var feedScale = exper.ScaleLarge

// suite synthesises the feed once and runs every selected workload in a
// fresh child process: untraced for the end-to-end numbers, then (-trace 1)
// traced for the per-layer table.
func suite(o *options, selected []workload, stdout, stderr io.Writer) (*resultFile, error) {
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fd, err := synthFeed(dir, feedScale, o.seed, o.segments)
	if err != nil {
		return nil, err
	}
	file := &resultFile{
		Seed: o.seed, Seconds: o.seconds, Segments: o.segments,
		Feed:       fd.feedInfo,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
	}
	fmt.Fprintf(stdout, "feed: seed %d, %d records, %d bytes, sha256 %s\n", o.seed, fd.Records, fd.Bytes, fd.SHA256)
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, commit %s\n", file.GoVersion, file.NumCPU, file.GOMAXPROCS, file.Commit)

	modes := []bool{false}
	if o.trace == 1 {
		modes = []bool{false, true}
	}
	for _, traced := range modes {
		for _, wl := range selected {
			r, err := spawn(o, fd, dir, wl.Name, traced, stderr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			// Feed synthesis and encoding are set-up every workload pays.
			s := r.Metrics["setup_s"]
			s.Value += fd.synthS + fd.encodeS
			r.Metrics["setup_s"] = s
			if traced {
				r.Layers["exper.synth_busy_s"] = sample{Value: fd.synthS, Unit: "s"}
				r.Layers["kfio.encode_busy_s"] = sample{Value: fd.encodeS, Unit: "s"}
				// End-to-end numbers always come from the untraced run, also
				// the ones that travel to the driver beside the layer rows.
				base := file.untraced(wl.Name)
				r.Layers["trace.overhead_ratio"] = sample{Value: r.UnitS / base.UnitS, Unit: "ratio"}
				for _, d := range endToEnd {
					if s, ok := base.Metrics[d.Name]; ok && d.DriverBound == 0 {
						r.Layers["e2e."+d.Name] = s
					}
				}
			}
			printRun(stdout, r)
			file.Runs = append(file.Runs, *r)
		}
	}
	return file, nil
}

// spawn runs one workload in a child process and reads its result back.
func spawn(o *options, fd *feed, dir, workload string, traced bool, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(dir, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	result := filepath.Join(scratch, "result.json")
	args := []string{"-child", "-workload", workload, "-feed", fd.path, "-gold", fd.gold,
		"-dir", scratch, "-result", result, "-seconds", fmt.Sprint(o.seconds)}
	if traced {
		args = append(args, "-trace", "1", "-tracefile", filepath.Join(o.out, "trace-"+workload+".json"))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r runResult
	if err := readJSON(result, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// driverLine is the object the benchmark driver reads: every gated
// end-to-end metric of an untraced run, every per-layer row of a traced one
// (zero where the workload does not touch the layer).
func driverLine(r *runResult) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{r.Layers[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.DriverBound > 0 {
				metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
			}
		}
	}
	return map[string]any{
		"correct":   true, // a failed output check exits non-zero before this line
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
