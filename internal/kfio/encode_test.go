package kfio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
)

// writeFusedRef is WriteFused as it stood before the append-based encoder —
// a FusedRecord per row through encoding/json — kept as its oracle.
func writeFusedRef(w io.Writer, res *fusion.Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range res.Triples {
		rec := FusedRecord{
			Subject:     string(f.Triple.Subject),
			Predicate:   string(f.Triple.Predicate),
			Object:      f.Triple.Object.String(),
			Probability: f.Probability,
			Predicted:   f.Predicted,
			Provenances: f.Provenances,
			Extractors:  f.Extractors,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("kfio: write fused: %w", err)
		}
	}
	return bw.Flush()
}

// writeExtractionsRef is the feed writer as it stood before the append-based
// encoder — RecordOf through encoding/json — kept as its oracle.
func writeExtractionsRef(w io.Writer, xs []extract.Extraction) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, x := range xs {
		rec := RecordOf(x)
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("kfio: write extraction: %w", err)
		}
	}
	return bw.Flush()
}

// requireSameEncoding holds one encoder to its oracle: the same bytes, or an
// error from both.
func requireSameEncoding(t *testing.T, what string, got, want []byte, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", what, gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n    encoder %q\nencoding/json %q", what, got, want)
	}
}

func checkFusedAgainstRef(t *testing.T, what string, res *fusion.Result) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gerr, werr := WriteFused(&got, res), writeFusedRef(&want, res)
	requireSameEncoding(t, what, got.Bytes(), want.Bytes(), gerr, werr)
	if gerr != nil {
		return nil
	}
	return got.Bytes()
}

func checkExtractionsAgainstRef(t *testing.T, what string, xs []extract.Extraction) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gerr, werr := WriteExtractions(&got, xs), writeExtractionsRef(&want, xs)
	requireSameEncoding(t, what, got.Bytes(), want.Bytes(), gerr, werr)
	if gerr != nil {
		return nil
	}
	return got.Bytes()
}

// awkwardStrings are the string cases where a hand-written JSON encoder and
// encoding/json part ways first.
var awkwardStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "<b>&amp;</b>", "tab\there", "nul\x00", "\x1f", "del\x7f",
	"café", "日本", "line\u2028sep\u2029", "bad\xffutf8", "\xc3", "\xed\xa0\x80", "e:/m/x", "\U0001F600",
}

// awkwardFloats cover both format switches, the exponent clean-up, the signed
// zero, the sentinel and what has no JSON form.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), -1, 1, 0.5, 0.1 + 0.2, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324,
	1e20, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64, -1e-7, -1e21, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestWriteFusedMatchesEncodingJSON holds WriteFused to the encoding/json
// encoder byte for byte over every awkward string in every string position,
// every object kind, every awkward probability, and a real fused result.
func TestWriteFusedMatchesEncodingJSON(t *testing.T) {
	row := func(s, p string, o kb.Object, prob float64) fusion.FusedTriple {
		return fusion.FusedTriple{Triple: kb.Triple{Subject: kb.EntityID(s), Predicate: kb.PredicateID(p), Object: o},
			Probability: prob, Predicted: prob != -1, Provenances: len(s), ItemProvenances: 9, Extractors: -len(p)}
	}
	var rows []fusion.FusedTriple
	for _, s := range awkwardStrings {
		rows = append(rows,
			row(s, "p", kb.StringObject("v"), 0.25),
			row("s", s, kb.StringObject("v"), 0.25),
			row("s", "p", kb.StringObject(s), 0.25),
			row("s", "p", kb.EntityObject(kb.EntityID(s)), 0.25),
			row("s", "p", kb.Object{Kind: 7, Str: s}, 0.25))
	}
	for _, f := range awkwardFloats {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			rows = append(rows, row("s", "p", kb.StringObject("v"), f))
		}
		rows = append(rows, row("s", "p", kb.NumberObject(f), 0.5))
	}
	checkFusedAgainstRef(t, "awkward rows", &fusion.Result{Triples: rows})
	// One row at a time as well, so a row cannot lean on the buffer the one
	// before it left.
	for i := range rows {
		checkFusedAgainstRef(t, fmt.Sprintf("row %d", i), &fusion.Result{Triples: rows[i : i+1]})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &fusion.Result{Triples: []fusion.FusedTriple{row("s", "p", kb.StringObject("v"), 0.5), row("s", "p", kb.StringObject("v"), f)}}
		if out := checkFusedAgainstRef(t, fmt.Sprint(f), res); out != nil {
			t.Fatalf("probability %v was written: %q", f, out)
		}
	}
	checkFusedAgainstRef(t, "empty", &fusion.Result{})

	ds := exper.SharedDataset(exper.ScaleSmall, 42)
	res := fusion.MustFuse(fusion.Claims(ds.Extractions, fusion.Granularity{}), fusion.PopAccuPlusUnsupConfig())
	checkFusedAgainstRef(t, "fused small dataset", res)
}

// TestExtractionWriterMatchesEncodingJSON is the same for the feed writer:
// every awkward string in every field, pattern present and absent, every
// awkward confidence, and the bench feed.
func TestExtractionWriterMatchesEncodingJSON(t *testing.T) {
	base := extract.Extraction{
		Triple:    kb.Triple{Subject: "s", Predicate: "p", Object: kb.StringObject("v")},
		Extractor: "E", Pattern: "pat", URL: "u", Site: "site", Confidence: 0.5,
	}
	var xs []extract.Extraction
	for _, s := range awkwardStrings {
		for field := 0; field < 7; field++ {
			x := base
			switch field {
			case 0:
				x.Triple.Subject = kb.EntityID(s)
			case 1:
				x.Triple.Predicate = kb.PredicateID(s)
			case 2:
				x.Triple.Object = kb.StringObject(s)
			case 3:
				x.Extractor = s
			case 4:
				x.Pattern = s
			case 5:
				x.URL = s
			case 6:
				x.Site = s
			}
			xs = append(xs, x)
		}
	}
	for _, f := range awkwardFloats {
		x := base
		x.Triple.Object = kb.NumberObject(f)
		xs = append(xs, x)
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			x = base
			x.Confidence = f
			xs = append(xs, x)
		}
	}
	checkExtractionsAgainstRef(t, "awkward records", xs)
	for i := range xs {
		checkExtractionsAgainstRef(t, fmt.Sprintf("record %d", i), xs[i:i+1])
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := base
		x.Confidence = f
		if out := checkExtractionsAgainstRef(t, fmt.Sprint(f), []extract.Extraction{base, x}); out != nil {
			t.Fatalf("confidence %v was written: %q", f, out)
		}
	}
	bench, _ := benchFeed(t)
	checkExtractionsAgainstRef(t, "bench feed", bench)
}

// FuzzWriteFused pins the append-based fused-row encoder to encoding/json on
// arbitrary rows: the same bytes or an error from both, and bytes that
// ReadFused reads back as the rows written — strings as JSON carries them
// (each invalid UTF-8 byte becomes U+FFFD), floats bit for bit — unless a row's
// object is NaN, which ReadFused refuses.
func FuzzWriteFused(f *testing.F) {
	f.Add("/m/1", "/p/a", "x", byte(1), 0.0, 0.83, 4, 2)
	f.Add(`quo"te`, `back\slash`, "<b>&amp;</b>", byte(0), 0.0, -1.0, 1, 1)
	f.Add("ctl\x00\x1f\n", "bad\xffutf8\xc3", "line\u2028sep", byte(1), 0.0, 1e-7, 0, 0)
	f.Add("s", "p", "", byte(2), math.Copysign(0, -1), math.Copysign(0, -1), -3, 1<<40)
	f.Add("s", "p", "", byte(2), 5e-324, 5e-324, 1, 1)
	f.Add("s", "p", "", byte(2), 1e21, 1e21, 1, 1)
	f.Add("s", "p", "", byte(2), math.NaN(), 0.999999e-6, 1, 1)
	f.Add("s", "p", "", byte(2), math.Inf(-1), math.Inf(1), 1, 1)
	f.Add("café", "日本", "\U0001F600", byte(0), 0.0, math.NaN(), 1, 1)
	f.Fuzz(func(t *testing.T, s, p, o string, kind byte, num, prob float64, provs, exts int) {
		obj := kb.Object{Kind: kb.ObjectKind(kind % 3), Str: o}
		if obj.Kind == kb.KindNumber {
			obj = kb.NumberObject(num)
		}
		fuzzed := fusion.FusedTriple{
			Triple:      kb.Triple{Subject: kb.EntityID(s), Predicate: kb.PredicateID(p), Object: obj},
			Probability: prob, Predicted: prob != -1, Provenances: provs, Extractors: exts,
		}
		clean := fusion.FusedTriple{
			Triple:      kb.Triple{Subject: "/m/2", Predicate: "/p/b", Object: kb.StringObject("y")},
			Probability: -1, Provenances: 1, Extractors: 1,
		}
		// The clean row follows the fuzzed one in the same row buffer.
		res := &fusion.Result{Triples: []fusion.FusedTriple{fuzzed, clean, fuzzed}}
		out := checkFusedAgainstRef(t, "fuzzed rows", res)
		if out == nil {
			return
		}
		back, err := ReadFused(bytes.NewReader(out))
		if obj.Kind == kb.KindNumber && math.IsNaN(num) {
			// kb.ParseObject refuses a NaN object, so no reader takes the row back.
			if err == nil {
				t.Fatalf("ReadFused accepts the NaN object in %q", out)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadFused rejects %q: %v", out, err)
		}
		if len(back.Triples) != len(res.Triples) {
			t.Fatalf("%q reads back as %d rows, want %d", out, len(back.Triples), len(res.Triples))
		}
		asJSON := func(s string) string { return string([]rune(s)) }
		for i, want := range res.Triples {
			got := back.Triples[i]
			want.Triple.Subject = kb.EntityID(asJSON(string(want.Triple.Subject)))
			want.Triple.Predicate = kb.PredicateID(asJSON(string(want.Triple.Predicate)))
			want.Triple.Object.Str = asJSON(want.Triple.Object.Str)
			sameFloat := func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
			}
			if !sameFloat(got.Probability, want.Probability) || !sameFloat(got.Triple.Object.Num, want.Triple.Object.Num) {
				t.Fatalf("row %d of %q reads back with probability %v and number %v, want %v and %v",
					i, out, got.Probability, got.Triple.Object.Num, want.Probability, want.Triple.Object.Num)
			}
			got.Probability, want.Probability = 0, 0
			got.Triple.Object.Num, want.Triple.Object.Num = 0, 0
			if got != want {
				t.Fatalf("row %d of %q reads back as %+v, want %+v", i, out, got, want)
			}
		}
	})
}
