package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

// evalFiles writes a small fused file (through kfio.WriteFused, the writer
// kfuse uses) and its gold labels. Four fused triples are labeled, ranked
// true, false, true, false by probability; one predicted triple has no
// label, one fused triple no probability, and one gold label names a triple
// that was not fused.
func evalFiles(t *testing.T) (fused, gold string, raw []byte) {
	t.Helper()
	triple := func(s string) kb.Triple {
		return kb.Triple{Subject: kb.EntityID(s), Predicate: "/p/x", Object: kb.StringObject("v")}
	}
	row := func(s string, prob float64) fusion.FusedTriple {
		return fusion.FusedTriple{Triple: triple(s), Probability: prob, Predicted: prob >= 0, Provenances: 1, Extractors: 1}
	}
	res := &fusion.Result{Triples: []fusion.FusedTriple{
		row("/m/t1", 0.9), row("/m/f1", 0.8), row("/m/t2", 0.6), row("/m/f2", 0.3),
		row("/m/unlabeled", 0.5), row("/m/unpredicted", -1),
	}}
	var fb bytes.Buffer
	if err := kfio.WriteFused(&fb, res); err != nil {
		t.Fatal(err)
	}
	labels := map[kb.Triple]bool{
		triple("/m/t1"): true, triple("/m/f1"): false, triple("/m/t2"): true, triple("/m/f2"): false,
		triple("/m/unfused"): true,
	}
	var gb bytes.Buffer
	ts := []kb.Triple{triple("/m/t1"), triple("/m/f1"), triple("/m/t2"), triple("/m/f2"), triple("/m/unfused")}
	if err := kfio.WriteGold(&gb, func(t kb.Triple) (bool, bool) { l, ok := labels[t]; return l, ok }, ts); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fused, gold = filepath.Join(dir, "fused.jsonl"), filepath.Join(dir, "gold.jsonl")
	for path, b := range map[string][]byte{fused: fb.Bytes(), gold: gb.Bytes()} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return fused, gold, fb.Bytes()
}

func TestReport(t *testing.T) {
	fused, gold, _ := evalFiles(t)
	var out bytes.Buffer
	if err := run([]string{"-fused", fused, "-gold", gold}, &out); err != nil {
		t.Fatal(err)
	}
	// PR points (recall, precision): (½,1) (½,½) (1,⅔) (1,½); the trapezoids
	// from (0,1) sum to ½ + 0 + ½·(½+⅔)/2 + 0 = 0.7917.
	for _, want := range []string{
		"triples: 6 fused, 1 without probability, 4 labeled (5 gold labels on file)\n",
		"AUC-PR:             0.7917\n",
		"monotonicity:       0.7500\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestErrors(t *testing.T) {
	fused, gold, raw := evalFiles(t)
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"missing fused", []string{"-fused", missing, "-gold", gold}},
		{"missing gold", []string{"-fused", fused, "-gold", missing}},
		{"torn fused", []string{"-fused", torn, "-gold", gold}},
		{"no buckets", []string{"-fused", fused, "-gold", gold, "-buckets", "0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil {
				t.Fatal("no error")
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before failing", out.String())
			}
			var partial *kfio.ErrPartialLine
			if c.name == "torn fused" && !errors.As(err, &partial) {
				t.Errorf("torn file: got %v, want *kfio.ErrPartialLine", err)
			}
		})
	}
}
