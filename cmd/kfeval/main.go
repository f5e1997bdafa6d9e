// Command kfeval evaluates fused triples against gold labels: calibration
// curve, deviation, weighted deviation, AUC-PR and the predicted-probability
// distribution.
//
// Usage:
//
//	kfeval -fused fused.jsonl -gold gold.jsonl [-buckets 20]
//
// Both files are read to the end before the report prints; a missing file,
// a torn or malformed fused line, or fewer than one bucket is an error and
// prints nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"kfusion/internal/eval"
	"kfusion/internal/kfio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kfeval: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command behind its flags: args are the command-line arguments
// after the program name, stdout takes the report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kfeval", flag.ContinueOnError)
	var (
		fusedIn = fs.String("fused", "fused.jsonl", "fused triples input")
		goldIn  = fs.String("gold", "gold.jsonl", "gold labels input")
		buckets = fs.Int("buckets", 20, "calibration buckets (the paper uses 20)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *buckets < 1 {
		return fmt.Errorf("-buckets %d: need at least one calibration bucket", *buckets)
	}

	gf, err := os.Open(*goldIn)
	if err != nil {
		return err
	}
	labeler, nLabels, err := kfio.ReadGold(gf)
	gf.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *goldIn, err)
	}

	// Stream the fused triples instead of materializing the whole result:
	// evaluation only needs (probability, label) pairs and counters, so
	// arbitrarily large fused feeds evaluate in bounded memory (plus the
	// retained pairs).
	ff, err := os.Open(*fusedIn)
	if err != nil {
		return err
	}
	defer ff.Close()
	fr := kfio.NewFusedReader(ff)
	var preds []eval.Prediction
	var probs []float64
	total, unpredicted := 0, 0
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", *fusedIn, err)
		}
		total++
		if !f.Predicted {
			unpredicted++
			continue
		}
		probs = append(probs, f.Probability)
		if label, ok := labeler(f.Triple); ok {
			preds = append(preds, eval.Prediction{Prob: f.Probability, Label: label})
		}
	}

	curve := eval.Calibration(preds, *buckets)
	fmt.Fprintf(stdout, "triples: %d fused, %d without probability, %d labeled (%d gold labels on file)\n",
		total, unpredicted, len(preds), nLabels)
	fmt.Fprintf(stdout, "deviation:          %.4f\n", curve.Deviation())
	fmt.Fprintf(stdout, "weighted deviation: %.4f\n", curve.WeightedDeviation())
	fmt.Fprintf(stdout, "AUC-PR:             %.4f\n", eval.AUCPR(preds))
	fmt.Fprintf(stdout, "monotonicity:       %.4f\n", eval.Monotonicity(preds))

	fmt.Fprintln(stdout, "\ncalibration (predicted -> real, n):")
	for _, b := range curve.Buckets {
		if b.N == 0 {
			continue
		}
		bar := renderBar(b.Real)
		fmt.Fprintf(stdout, "  [%.2f,%.2f)  %.3f -> %.3f  %6d  %s\n", b.Lo, b.Hi, b.MeanPred, b.Real, b.N, bar)
	}

	dist := eval.Distribution(probs, 10)
	fmt.Fprintln(stdout, "\npredicted probability distribution:")
	for i, share := range dist {
		label := fmt.Sprintf("[%.1f,%.1f)", float64(i)/10, float64(i+1)/10)
		if i == 10 {
			label = "=1.0     "
		}
		fmt.Fprintf(stdout, "  %s %6.2f%%  %s\n", label, 100*share, renderBar(share))
	}
	return nil
}

func renderBar(v float64) string {
	n := int(v * 40)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	bar := make([]byte, n)
	for i := range bar {
		bar[i] = '#'
	}
	return string(bar)
}
