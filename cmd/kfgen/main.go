// Command kfgen synthesizes a knowledge-extraction corpus: a ground-truth
// world, a crawled Web corpus, the output of the 12 simulated extractors
// (written as JSONL extractions) and the LCWA gold standard over the
// extracted triples (written as JSONL labels).
//
// Usage:
//
//	kfgen -scale bench -seed 42 -out extractions.jsonl -gold gold.jsonl
//	kfgen -scale large -records 150000 -out feed.jsonl -gold gold.jsonl
//
// -scale is small, bench or large; -records N keeps the first N extractions
// of the dataset (and labels only their triples), which is how the
// end-to-end benchmark cuts every seed's large feed to one length. Both
// files are written to a temporary name, synced and renamed, so an
// interrupted run never leaves a shorter file under the final name.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command behind its flags: args are the command-line arguments
// after the program name, stdout takes the summary.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kfgen", flag.ContinueOnError)
	var (
		scaleFlag = fs.String("scale", "small", "dataset scale: small, bench or large")
		seed      = fs.Int64("seed", 42, "generation seed")
		records   = fs.Int("records", 0, "keep only the first N extractions (0 = all)")
		out       = fs.String("out", "extractions.jsonl", "extraction output file")
		goldOut   = fs.String("gold", "", "gold-label output file (optional)")
		quiet     = fs.Bool("q", false, "suppress the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := parseScale(*scaleFlag)
	if err != nil {
		return err
	}
	if *records < 0 {
		return fmt.Errorf("-records must be >= 0, got %d", *records)
	}

	ds := exper.NewDataset(scale, *seed)
	xs := ds.Extractions
	if *records > 0 && len(xs) > *records {
		xs = xs[:*records]
	}

	if err := kfio.AtomicWriteFile(*out, func(w io.Writer) error { return kfio.WriteExtractions(w, xs) }); err != nil {
		return err
	}
	if *goldOut != "" {
		if err := kfio.AtomicWriteFile(*goldOut, func(w io.Writer) error { return writeGold(w, ds, xs) }); err != nil {
			return err
		}
	}

	if !*quiet {
		fmt.Fprintf(stdout, "world: %s\n", ds.World.Stats())
		fmt.Fprintf(stdout, "corpus: %d pages on %d sites\n", len(ds.Corpus.Pages), ds.Corpus.NumSites())
		fmt.Fprintf(stdout, "extractions: %d (written to %s)\n", len(xs), *out)
		if *goldOut != "" {
			labeled, trueN := coverage(ds, xs)
			fmt.Fprintf(stdout, "gold: %d labeled, %d true (written to %s)\n", labeled, trueN, *goldOut)
		}
	}
	return nil
}

func parseScale(name string) (exper.Scale, error) {
	switch name {
	case "small":
		return exper.ScaleSmall, nil
	case "bench":
		return exper.ScaleBench, nil
	case "large":
		return exper.ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown -scale %q (want small, bench or large)", name)
}

// writeGold writes the gold labels of the triples xs extracted, each once,
// in first-extraction order.
func writeGold(w io.Writer, ds *exper.Dataset, xs []extract.Extraction) error {
	triples := make([]kb.Triple, 0, len(xs))
	for _, x := range xs {
		triples = append(triples, x.Triple)
	}
	return kfio.WriteGold(w, ds.Gold.Label, triples)
}

func coverage(ds *exper.Dataset, xs []extract.Extraction) (labeled, trueN int) {
	seen := map[kb.Triple]bool{}
	for _, x := range xs {
		if seen[x.Triple] {
			continue
		}
		seen[x.Triple] = true
		if label, ok := ds.Gold.Label(x.Triple); ok {
			labeled++
			if label {
				trueN++
			}
		}
	}
	return labeled, trueN
}
