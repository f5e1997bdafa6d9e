package kfio

import (
	"bytes"
	"strings"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

func sampleExtractions() []extract.Extraction {
	return []extract.Extraction{
		{
			Triple:     kb.Triple{Subject: "/m/1", Predicate: "/p/a", Object: kb.EntityObject("/m/2")},
			Extractor:  "TXT1",
			Pattern:    "tpl1|x",
			URL:        "http://a/p1",
			Site:       "a",
			Confidence: 0.75,
		},
		{
			Triple:     kb.Triple{Subject: "/m/3", Predicate: "/p/b", Object: kb.NumberObject(1986)},
			Extractor:  "TBL2",
			URL:        "http://b/p2",
			Site:       "b",
			Confidence: -1,
		},
	}
}

func TestExtractionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExtractions(&buf, sampleExtractions()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExtractions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleExtractions()
	if len(got) != len(want) {
		t.Fatalf("count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestGoldRoundTrip(t *testing.T) {
	triples := []kb.Triple{
		{Subject: "/m/1", Predicate: "/p/a", Object: kb.StringObject("x")},
		{Subject: "/m/2", Predicate: "/p/a", Object: kb.StringObject("y")},
		{Subject: "/m/3", Predicate: "/p/a", Object: kb.StringObject("z")}, // unlabeled
	}
	label := func(t kb.Triple) (bool, bool) {
		switch t.Subject {
		case "/m/1":
			return true, true
		case "/m/2":
			return false, true
		default:
			return false, false
		}
	}
	var buf bytes.Buffer
	if err := WriteGold(&buf, label, triples); err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadGold(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("read %d labels, want 2", n)
	}
	if l, ok := got(triples[0]); !ok || !l {
		t.Error("triple 0 label lost")
	}
	if l, ok := got(triples[1]); !ok || l {
		t.Error("triple 1 label lost")
	}
	if _, ok := got(triples[2]); ok {
		t.Error("unlabeled triple gained a label")
	}
}

func TestFusedRoundTrip(t *testing.T) {
	res := &fusion.Result{
		Triples: []fusion.FusedTriple{
			{Triple: kb.Triple{Subject: "/m/1", Predicate: "/p/a", Object: kb.StringObject("x")},
				Probability: 0.83, Predicted: true, Provenances: 4, Extractors: 2},
			{Triple: kb.Triple{Subject: "/m/2", Predicate: "/p/b", Object: kb.StringObject("y")},
				Probability: -1, Predicted: false, Provenances: 1, Extractors: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteFused(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFused(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Triples) != 2 || got.Unpredicted != 1 {
		t.Fatalf("round trip: %d triples, %d unpredicted", len(got.Triples), got.Unpredicted)
	}
	for i := range res.Triples {
		a, b := res.Triples[i], got.Triples[i]
		a.ItemProvenances = 0 // not serialized
		if a != b {
			t.Errorf("fused %d: %+v != %+v", i, a, b)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadExtractions(strings.NewReader("{not json")); err == nil {
		t.Error("accepted malformed extraction JSON")
	}
	if _, err := ReadExtractions(strings.NewReader(`{"s":"a","p":"b","o":"zz:bad"}`)); err == nil {
		t.Error("accepted malformed object")
	}
	// A NaN object equals nothing, itself included: through the fast decoder
	// and through encoding/json (the upper-case key) alike, the line is refused.
	for _, line := range []string{
		`{"s":"a","p":"b","o":"n:NaN","extractor":"E","url":"u","site":"s","conf":1}`,
		`{"S":"a","p":"b","o":"n:NaN","extractor":"E","url":"u","site":"s","conf":1}`,
	} {
		if _, err := ReadExtractions(strings.NewReader(line)); err == nil {
			t.Errorf("accepted a NaN object: %s", line)
		}
	}
	if _, _, err := ReadGold(strings.NewReader("oops")); err == nil {
		t.Error("accepted malformed gold JSON")
	}
	if _, err := ReadFused(strings.NewReader("oops")); err == nil {
		t.Error("accepted malformed fused JSON")
	}
}

func TestBlankLinesIgnored(t *testing.T) {
	in := "\n" + `{"s":"a","p":"b","o":"s:x","extractor":"E","url":"u","site":"s","conf":0.5}` + "\n\n"
	got, err := ReadExtractions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("got %d records, want 1", len(got))
	}
}
