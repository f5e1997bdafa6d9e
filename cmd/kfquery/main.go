// Command kfquery queries a fused knowledge base: the JSONL file kfuse
// writes (its -out, fused.jsonl by default), one fused triple with its
// probability per line.
//
// Usage:
//
//	kfquery -in fused.jsonl -stats
//	kfquery -in fused.jsonl -subject /m/0abc
//	kfquery -in fused.jsonl -min-prob 0.9 -limit 20
//
// The file is streamed and every line checked; a torn or malformed line is
// an error naming its byte offset, and no result is printed. Matching rows
// print in subject, predicate, object order, at most -limit of them followed
// by a count of the rest.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfquery: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command behind its flags: args are the command-line arguments
// after the program name, stdout takes the query's result.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kfquery", flag.ContinueOnError)
	var (
		in      = fs.String("in", "fused.jsonl", "fused JSONL file (kfuse -out)")
		subject = fs.String("subject", "", "list triples of one subject")
		minProb = fs.Float64("min-prob", -1, "list triples with probability >= this")
		limit   = fs.Int("limit", 50, "maximum rows to print")
		stats   = fs.Bool("stats", false, "print knowledge-base statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *limit < 0 {
		return fmt.Errorf("-limit %d is not a non-negative integer", *limit)
	}

	var match func(fusion.FusedTriple) bool
	switch {
	case *stats:
	case *subject != "":
		match = func(f fusion.FusedTriple) bool { return f.Triple.Subject == kb.EntityID(*subject) }
	case *minProb >= 0:
		match = func(f fusion.FusedTriple) bool { return f.Predicted && f.Probability >= *minProb }
	default:
		return errors.New("nothing to do: pass -stats, -subject or -min-prob")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	fr := kfio.NewFusedReader(f)
	var (
		rows                 []fusion.FusedTriple
		triples, predicted   int
		subjects, predicates = map[kb.EntityID]bool{}, map[kb.PredicateID]bool{}
	)
	for {
		t, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
		switch {
		case match == nil:
			triples++
			subjects[t.Triple.Subject] = true
			predicates[t.Triple.Predicate] = true
			if t.Predicted {
				predicted++
			}
		case match(t):
			rows = append(rows, t)
		}
	}

	switch {
	case *stats:
		fmt.Fprintf(stdout, "triples:    %d\n", triples)
		fmt.Fprintf(stdout, "subjects:   %d\n", len(subjects))
		fmt.Fprintf(stdout, "predicates: %d\n", len(predicates))
		fmt.Fprintf(stdout, "predicted:  %d (%.1f%%)\n", predicted, 100*float64(predicted)/float64(max(triples, 1)))
	case *subject != "" && len(rows) == 0:
		fmt.Fprintf(stdout, "no triples for subject %s\n", *subject)
	default:
		printRows(stdout, rows, *limit)
	}
	return nil
}

// printRows sorts rows by subject, predicate and object, prints the first
// limit of them and then how many it left out.
func printRows(w io.Writer, rows []fusion.FusedTriple, limit int) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].Triple, rows[j].Triple
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object.String() < b.Object.String()
	})
	for i, f := range rows {
		if i >= limit {
			fmt.Fprintf(w, "... (%d more)\n", len(rows)-limit)
			return
		}
		prob := "  -  "
		if f.Predicted {
			prob = fmt.Sprintf("%.3f", f.Probability)
		}
		fmt.Fprintf(w, "%s  %-70s provs=%d exts=%d\n", prob, f.Triple, f.Provenances, f.Extractors)
	}
}
