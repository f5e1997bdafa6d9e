// Command kfexper regenerates the paper's evaluation: every table (1-3) and
// figure (3-7, 9-22) over a synthetic dataset, printing paper-style rows and
// HOLDS/VIOLATED notes for the qualitative claims.
//
// Usage:
//
//	kfexper                      # all experiments at small scale
//	kfexper -scale bench         # the reproduction numbers
//	kfexper -exp fig9,fig13      # selected experiments
//	kfexper -seeds 5             # re-run across 5 seeds; report check stability
//	kfexper -list                # list experiment IDs
//
// A single-seed run exits non-zero when any shape check is VIOLATED; a
// -seeds N run exits non-zero when some check held on none of the N seeds (a
// check that held on some of them is reported UNSTABLE and does not fail the
// run — its margin sits inside seed noise).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"kfusion/internal/exper"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfexper: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command behind its flags: args are the command-line arguments
// after the program name, stdout takes the report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kfexper", flag.ContinueOnError)
	var (
		scaleFlag = fs.String("scale", "small", "dataset scale: small or bench")
		seed      = fs.Int64("seed", 42, "generation seed")
		expFlag   = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		seeds     = fs.Int("seeds", 1, "run across this many consecutive seeds and report per-check stability")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, ex := range exper.Registry {
			fmt.Fprintf(stdout, "%-8s %s\n", ex.ID, ex.Title)
		}
		return nil
	}

	scale := exper.ScaleSmall
	switch *scaleFlag {
	case "small":
	case "bench":
		scale = exper.ScaleBench
	default:
		return fmt.Errorf("unknown -scale %q (want small or bench)", *scaleFlag)
	}

	selected := exper.Registry
	if *expFlag != "" {
		selected = nil
		for _, id := range strings.Split(*expFlag, ",") {
			ex := exper.ByID(strings.TrimSpace(id))
			if ex == nil {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, *ex)
		}
	}

	if *seeds > 1 {
		return runMultiSeed(stdout, scale, *seed, *seeds, selected)
	}

	start := time.Now()
	ds := exper.SharedDataset(scale, *seed)
	fmt.Fprintf(stdout, "dataset: %s; %d pages, %d extractions (built in %v)\n\n",
		ds.World.Stats(), len(ds.Corpus.Pages), len(ds.Extractions), time.Since(start).Round(time.Millisecond))

	violations := 0
	for _, ex := range selected {
		t0 := time.Now()
		tb := ex.Run(ds)
		tb.Render(stdout)
		fmt.Fprintf(stdout, "(%v)\n\n", time.Since(t0).Round(time.Millisecond))
		for _, n := range tb.Notes {
			if strings.HasPrefix(n, "VIOLATED") {
				violations++
			}
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d paper-shape check(s) VIOLATED", violations)
	}
	return nil
}

// runMultiSeed re-runs the selected experiments on n consecutive seeds and
// reports, for every HOLDS/VIOLATED shape check, how many seeds it held on —
// the honest way to read checks whose margins sit near seed noise.
func runMultiSeed(stdout io.Writer, scale exper.Scale, baseSeed int64, n int, selected []exper.Experiment) error {
	var st stability
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)*101
		ds := exper.SharedDataset(scale, seed)
		fmt.Fprintf(stdout, "seed %d: %d extractions\n", seed, len(ds.Extractions))
		for _, ex := range selected {
			st.add(ex.ID, ex.Run(ds))
		}
	}
	fmt.Fprintf(stdout, "\nshape-check stability across %d seeds:\n", n)
	return st.report(stdout)
}

// stability tallies, per shape check, the seeds it held on; checks are keyed
// by experiment ID and message and kept in first-seen order.
type stability struct {
	order  []string
	checks map[string]*tally
}

type tally struct{ holds, total int }

// add counts one run's HOLDS/VIOLATED notes.
func (s *stability) add(id string, tb *exper.Table) {
	if s.checks == nil {
		s.checks = map[string]*tally{}
	}
	for _, note := range tb.Notes {
		msg, held := strings.CutPrefix(note, "HOLDS: ")
		if !held {
			var violated bool
			if msg, violated = strings.CutPrefix(note, "VIOLATED: "); !violated {
				continue
			}
		}
		key := id + ": " + msg
		t, ok := s.checks[key]
		if !ok {
			t = &tally{}
			s.checks[key] = t
			s.order = append(s.order, key)
		}
		t.total++
		if held {
			t.holds++
		}
	}
}

// report prints one row per check — stable (held on every seed), UNSTABLE
// (on some) or VIOLATED (on none) — and returns an error when any check held
// on no seed.
func (s *stability) report(w io.Writer) error {
	unstable, violated := 0, 0
	for _, key := range s.order {
		t := s.checks[key]
		marker := "stable  "
		switch {
		case t.holds == 0:
			marker = "VIOLATED"
			violated++
		case t.holds < t.total:
			marker = "UNSTABLE"
			unstable++
		}
		fmt.Fprintf(w, "  %s %d/%d  %s\n", marker, t.holds, t.total, key)
	}
	if unstable+violated > 0 {
		fmt.Fprintf(w, "%d check(s) did not hold on every seed\n", unstable+violated)
	}
	if violated > 0 {
		return fmt.Errorf("%d paper-shape check(s) VIOLATED on every seed", violated)
	}
	return nil
}
