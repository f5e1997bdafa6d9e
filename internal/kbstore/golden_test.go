package kbstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// TestWriteBytesGolden pins the file format: the bytes Write produces are
// hashed against SHA-256 digests recorded at commit 3ef8182, when the store
// still carried its own countingWriter codec instead of wire.Writer.
func TestWriteBytesGolden(t *testing.T) {
	// Long subject runs, every object kind, unpredicted rows, multi-byte
	// uvarints (counts past 127, strings past 127 bytes) and an empty string.
	var many []fusion.FusedTriple
	for i := 0; i < 700; i++ {
		f := fusion.FusedTriple{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("/m/%04d", i/6)),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", i%11)),
			},
			Probability: float64(i%101) / 100,
			Predicted:   i%7 != 0,
			Provenances: i * 3,
			Extractors:  i % 13,
		}
		switch i % 4 {
		case 0:
			f.Triple.Object = kb.StringObject(fmt.Sprintf("%0*d", 1+i%200, i))
		case 1:
			f.Triple.Object = kb.NumberObject(float64(i) / 8)
		case 2:
			f.Triple.Object = kb.EntityObject(kb.EntityID(fmt.Sprintf("/m/o%d", i)))
		default:
			f.Triple.Object = kb.StringObject("")
		}
		many = append(many, f)
	}
	cases := []struct {
		name    string
		triples []fusion.FusedTriple
		want    string
	}{
		{"empty", nil, "5f0dea77eb99c947d23cf065f1d691d59fc2568fdee6ccb54482ab970d842b98"},
		{"sample", sample(), "da866ae37e83d9a0086a4573c3c13fd5b245e735a64fa960da6f5fb1007c300a"},
		{"many", many, "cdbcf3d583191c31769aa0f034c1a27cda359b75e3a23609cf8c84b9378f6366"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), c.name+".kb")
		if err := Write(path, c.triples); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
		if k, err := Parse(data); err != nil {
			t.Errorf("%s: Parse: %v", c.name, err)
		} else if k.Len() != len(c.triples) {
			t.Errorf("%s: parsed %d records, want %d", c.name, k.Len(), len(c.triples))
		}
	}
}
