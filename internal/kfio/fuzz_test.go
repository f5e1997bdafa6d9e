package kfio

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"kfusion/internal/extract"
)

// FuzzReadExtractions checks the JSONL reader never panics on arbitrary
// bytes and that any accepted corpus re-serializes losslessly.
func FuzzReadExtractions(f *testing.F) {
	f.Add(`{"s":"/m/1","p":"/p/x","o":"s:v","extractor":"TXT1","url":"u","site":"s","conf":0.5}`)
	f.Add(`{"s":"a","p":"b","o":"n:12","extractor":"E","url":"u","site":"s","conf":-1}`)
	f.Add("")
	f.Add("{not json")
	f.Add(`{"s":"a","p":"b","o":"zz:bad"}`)
	f.Fuzz(func(t *testing.T, in string) {
		xs, err := ReadExtractions(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteExtractions(&buf, xs); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadExtractions(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(xs) {
			t.Fatalf("record count changed: %d -> %d", len(xs), len(back))
		}
		for i := range xs {
			if xs[i] != back[i] {
				t.Fatalf("record %d drifted: %+v vs %+v", i, xs[i], back[i])
			}
		}
	})
}

// FuzzReadGold checks the gold-label reader on arbitrary bytes.
func FuzzReadGold(f *testing.F) {
	f.Add(`{"s":"a","p":"b","o":"s:x","label":true}`)
	f.Add("junk")
	f.Fuzz(func(t *testing.T, in string) {
		labeler, n, err := ReadGold(strings.NewReader(in))
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatal("negative label count")
		}
		if labeler == nil {
			t.Fatal("nil labeler on success")
		}
	})
}

// FuzzExtractionStream checks the streaming reader's partial-line contract
// on arbitrary bytes: Next never panics, a reported partial offset is in
// bounds and points at the true unterminated tail, and retrying from that
// offset with a completed line yields exactly the missing record. And with
// the split threshold lowered to two lines, so that these small inputs reach
// it, a three-worker reader returns call for call what the one-worker reader
// returns, for one whole batch and a Next/ReadBatch/Skip interleaving.
func FuzzExtractionStream(f *testing.F) {
	whole := `{"s":"/m/1","p":"/p/x","o":"s:v","extractor":"TXT1","url":"u","site":"s","conf":0.5}` + "\n"
	f.Add(whole + whole)
	// Truncated mid-record: the crash/partial-append corpus.
	f.Add(whole + whole[:len(whole)/2])
	f.Add(whole[:10])
	// Bit-flipped byte inside a record.
	flipped := []byte(whole + whole)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(string(flipped))
	f.Add("\n\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, in string) {
		for _, script := range [][]op{{{'b', len(in) + 1}}, {{'n', 0}, {'b', 2}, {'s', 1}, {'b', 3}}} {
			want := transcript([]byte(in), 1, 0, script)
			if err := sameTranscript(want, transcript([]byte(in), 3, 2, script)); err != nil {
				t.Fatalf("script %v, 3 workers: %v", script, err)
			}
		}

		r := NewExtractionReader(strings.NewReader(in))
		var complete int
		for {
			_, err := r.Next()
			if err == nil {
				complete++
				continue
			}
			if err == io.EOF {
				if len(in) > 0 && in[len(in)-1] != '\n' {
					t.Fatal("unterminated tail reached EOF without ErrPartialLine")
				}
				return
			}
			var partial *ErrPartialLine
			if errors.As(err, &partial) {
				if partial.Offset < 0 || partial.Offset > int64(len(in)) {
					t.Fatalf("partial offset %d outside %d-byte input", partial.Offset, len(in))
				}
				tail := in[partial.Offset:]
				if strings.ContainsRune(tail, '\n') {
					t.Fatalf("partial tail %q contains a newline", tail)
				}
				if tail != string(partial.Line) {
					t.Fatalf("partial line %q is not the input tail %q", partial.Line, tail)
				}
				// Retry contract: completing the line and re-reading from
				// Offset yields the tail as one record (or a parse error).
				retry := NewExtractionReader(strings.NewReader(tail + "\n"))
				if _, err := retry.Next(); err != nil && err != io.EOF {
					var pp *ErrPartialLine
					if errors.As(err, &pp) {
						t.Fatalf("completed line still partial: %v", err)
					}
				}
				return
			}
			return // parse error: fine, just must not panic
		}
	})
}

// FuzzDecodeExtraction pins the schema-specialised decoder to encoding/json
// on arbitrary bytes: whenever RecordDecoder accepts a line, json.Unmarshal
// into a fresh record accepts it with an equal record; and the reader's
// accept/reject, record and error text for every line equal the pre-decoder
// parser's (parseExtractionLineRef). Every record a line decodes to then goes
// back out through ExtractionWriter, against the encoding/json encoder.
func FuzzDecodeExtraction(f *testing.F) {
	whole := `{"s":"/m/1","p":"/p/x","o":"s:v","extractor":"TXT1","url":"u","site":"s","conf":0.5}`
	for _, seed := range []string{
		// The FuzzReadExtractions and FuzzExtractionStream corpora.
		whole,
		`{"s":"a","p":"b","o":"n:12","extractor":"E","url":"u","site":"s","conf":-1}`,
		"",
		"{not json",
		`{"s":"a","p":"b","o":"zz:bad"}`,
		whole + "\n" + whole,
		whole + "\n" + whole[:len(whole)/2],
		whole[:10],
		"\n\n",
		// encoding/json matches keys case-insensitively; the last duplicate wins.
		`{"S":"a","p":"b","o":"s:x","Conf":2}`,
		`{"s":"first","s":"last","p":"b","o":"s:x"}`,
		`{"conf":1,"conf":2,"s":"a","p":"b","o":"s:x"}`,
		// Escapes, surrogates, invalid UTF-8 (json substitutes U+FFFD).
		`{"s":"caf\u00e9","p":"\/p","o":"s:\ud83d\ude00"}`,
		`{"s":"\ud83d","p":"b","o":"s:x"}`,
		`{"s":"a\"b","p":"b\\","o":"s:x"}`,
		"{\"s\":\"a\xffb\",\"p\":\"\xc3\",\"o\":\"s:x\"}",
		"{\"s\":\"tab\there\",\"p\":\"b\",\"o\":\"s:x\"}",
		`{"s":"café","p":"b","o":"s:日本"}`,
		// null for a string and for conf; a quoted number.
		`{"s":null,"p":"b","o":"s:x","conf":null}`,
		`{"s":"a","p":"b","o":"s:x","conf":"1"}`,
		// The number grammar, where strconv.ParseFloat is laxer than JSON.
		`{"o":"s:x","conf":-0}`,
		`{"o":"s:x","conf":1e5}`,
		`{"o":"s:x","conf":1E+5}`,
		`{"o":"s:x","conf":01}`,
		`{"o":"s:x","conf":1.}`,
		`{"o":"s:x","conf":.5}`,
		`{"o":"s:x","conf":1e999}`,
		`{"o":"s:x","conf":-}`,
		`{"o":"s:x","conf":0x10}`,
		`{"o":"s:x","conf":Inf}`,
		`{"o":"s:x","conf":1_0}`,
		`{"o":"n:NaN","conf":0.25}`,
		// Whitespace between every token; structure traps.
		" { \"s\" : \"a\" , \"p\" : \"b\" ,\t\"o\" : \"s:x\" , \"conf\" : 1 } \r",
		`{"s":"a","p":"b","o":"s:x","extra":{"k":[1,{"s":"z"}]}}`,
		`{"s":"a","p":"b","o":"s:x","pattern":["p"]}`,
		`{}`,
		`{"s":"a",}`,
		`{"s":"a" "p":"b"}`,
		"\xef\xbb\xbf" + whole,
		whole + "}",
		whole + " garbage",
		whole + whole,
		`[` + whole + `]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d RecordDecoder
		for _, line := range bytes.Split(data, []byte("\n")) {
			rec, end, ok := d.Decode(line, 0)
			if !ok || skipSpace(line, end) != len(line) {
				continue
			}
			var ref ExtractionRecord
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
			}
			if math.Float64bits(rec.Conf) != math.Float64bits(ref.Conf) {
				t.Fatalf("%q: conf %v, encoding/json %v", line, rec.Conf, ref.Conf)
			}
			if rec.Conf, ref.Conf = 0, 0; rec != ref {
				t.Fatalf("%q:\n fast path %+v\nencoding/json %+v", line, rec, ref)
			}
		}
		checkReaderAgainstRef(t, data)

		// And back out: every record the corpus decodes to is written by
		// ExtractionWriter as encoding/json writes it, and reads back equal.
		for i, line := range bytes.Split(data, []byte("\n")) {
			x, err := parseExtractionLineRef(bytes.TrimSuffix(line, []byte("\r")), i+1, 0)
			if err != nil {
				continue
			}
			out := checkExtractionsAgainstRef(t, "decoded record", []extract.Extraction{x})
			back, err := ReadExtractions(bytes.NewReader(out))
			if err != nil || len(back) != 1 || !sameExtraction(back[0], x) {
				t.Fatalf("%+v written as %q reads back as %+v (err %v)", x, out, back, err)
			}
		}
	})
}
