package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// sample is one measured value. N is the number of samples behind a median
// or percentile; for a percentile, Pct names it and Beyond counts the
// samples past it — a tail is trusted only from minBeyond up.
type sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Pct    float64 `json:"pct,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

// runResult is one workload run, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Metrics   map[string]sample `json:"metrics"`
	Layers    map[string]sample `json:"layers,omitempty"`
	Digest    string            `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"timed_wall_s"`
	UnitS     float64           `json:"unit_wall_s"`
}

// feedInfo identifies the generated input. Two result files compare only
// when their feeds are byte-identical.
type feedInfo struct {
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Segments   int         `json:"segments"`
	Feed       feedInfo    `json:"feed"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Commit     string      `json:"commit"`
	Runs       []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// untraced returns the file's end-to-end run of one workload.
func (f *resultFile) untraced(workload string) *runResult {
	for i := range f.Runs {
		if f.Runs[i].Workload == workload && !f.Runs[i].Traced {
			return &f.Runs[i]
		}
	}
	return nil
}

// worsening is how far a metric moved in its bad direction (negative when it
// improved): as a share of the base, or for an absolute bound as a plain
// difference.
func worsening(d metricDef, base, now float64) float64 {
	if d.Abs {
		if d.Better == "higher" {
			return base - now
		}
		return now - base
	}
	if base == 0 {
		if now == 0 {
			return 0
		}
		if (d.Better == "lower") == (now > 0) {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	change := (now - base) / math.Abs(base)
	if d.Better == "higher" {
		return -change
	}
	return change
}

// printRun prints one run as `workload metric value unit` rows, the
// end-to-end rows with their sample counts and bounds.
func printRun(w io.Writer, r *runResult) {
	if !r.Traced {
		for _, d := range endToEnd {
			s, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-15s %-28s %14.6g %-6s", r.Workload, d.Name, s.Value, s.Unit)
			if s.N > 0 {
				fmt.Fprintf(w, " n=%d", s.N)
			}
			if s.Pct > 50 {
				fmt.Fprintf(w, " beyond=%d", s.Beyond)
				if s.Beyond < minBeyond {
					fmt.Fprintf(w, " (under %d: lengthen -seconds before trusting it)", minBeyond)
				}
			}
			fmt.Fprintf(w, " bound=%s\n", d.boundText())
		}
		fmt.Fprintf(w, "%-15s %-28s %s\n", r.Workload, "result_digest", r.Digest)
		return
	}
	for _, d := range perLayer {
		if s, ok := r.Layers[d.Name]; ok && s.Value != 0 {
			fmt.Fprintf(w, "%-15s %-34s %14.6g %s\n", r.Workload, d.Name, s.Value, s.Unit)
		}
	}
}

// compare prints one row per workload and end-to-end metric with the base
// of every ratio, and reports whether any metric worsened past its bound.
func compare(w io.Writer, base, now *resultFile) (breach bool, err error) {
	if base.Feed.SHA256 != now.Feed.SHA256 {
		return false, fmt.Errorf("feed digests differ (%.12s… over %d records, %.12s… over %d): the runs did not measure the same input",
			base.Feed.SHA256, base.Feed.Records, now.Feed.SHA256, now.Feed.Records)
	}
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %9s %10s\n", "workload", "metric", "base", "new", "new/base", "bound")
	for _, wl := range workloads {
		b, n := base.untraced(wl.Name), now.untraced(wl.Name)
		if b == nil || n == nil {
			continue
		}
		for _, d := range endToEnd {
			bs, ok1 := b.Metrics[d.Name]
			ns, ok2 := n.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict := ""
			if worsening(d, bs.Value, ns.Value) > d.Bound {
				verdict, breach = "  WORSE", true
			}
			ratio := math.NaN()
			if bs.Value != 0 {
				ratio = ns.Value / bs.Value
			}
			fmt.Fprintf(w, "%-15s %-24s %14.6g %14.6g %9.4f %10s%s\n",
				wl.Name, d.Name, bs.Value, ns.Value, ratio, d.boundText(), verdict)
		}
		if b.Digest != n.Digest {
			fmt.Fprintf(w, "%-15s result digests differ: %.12s… -> %.12s…\n", wl.Name, b.Digest, n.Digest)
		}
	}
	return breach, nil
}

// summarizeAA prints, for every workload and end-to-end metric of repeated
// runs of one build, the median, the quartiles, the driver's spread (IQR
// over median) and the largest deviation from the median, and reports
// whether any deviation exceeds the metric's bound.
func summarizeAA(w io.Writer, files []*resultFile) (breach bool) {
	fmt.Fprintf(w, "%-15s %-24s %12s %12s %12s %8s %10s %10s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "max dev", "bound")
	for _, wl := range workloads {
		digests := map[string]bool{}
		for _, d := range endToEnd {
			var vals []float64
			for _, f := range files {
				if r := f.untraced(wl.Name); r != nil {
					digests[r.Digest] = true
					if s, ok := r.Metrics[d.Name]; ok {
						vals = append(vals, s.Value)
					}
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			dev := 0.0
			for _, v := range vals {
				dev = math.Max(dev, math.Abs(worsening(d, med, v)))
			}
			verdict := ""
			if dev > d.Bound {
				verdict, breach = "  BREACH", true
			}
			devText := fmt.Sprintf("%.2f%%", 100*dev)
			if d.Abs {
				devText = fmt.Sprintf("%.3g abs", dev)
			}
			fmt.Fprintf(w, "%-15s %-24s %12.6g %12.6g %12.6g %7.2f%% %10s %10s%s\n",
				wl.Name, d.Name, med, q1, q3, 100*spread(vals), devText, d.boundText(), verdict)
		}
		if len(digests) > 1 {
			keys := make([]string, 0, len(digests))
			for k := range digests {
				keys = append(keys, fmt.Sprintf("%.12s", k))
			}
			sort.Strings(keys)
			fmt.Fprintf(w, "%-15s result digest did not repeat: %v  BREACH\n", wl.Name, keys)
			breach = true
		}
	}
	return breach
}
