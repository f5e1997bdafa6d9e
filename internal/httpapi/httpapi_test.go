package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"strings"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
)

func TestExtractionRoundTrip(t *testing.T) {
	xs := []extract.Extraction{
		{
			Triple: kb.Triple{
				Subject:   "/m/0001",
				Predicate: "/people/person/birthplace",
				Object:    kb.EntityObject("/m/0002"),
			},
			Extractor:  "TXT1",
			Pattern:    "born in",
			URL:        "http://a.example/p1",
			Site:       "a.example",
			Confidence: 0.75,
		},
		{
			Triple: kb.Triple{
				Subject:   "/m/0003",
				Predicate: "/people/person/height",
				Object:    kb.NumberObject(1.85),
			},
			Extractor:  "DOM5",
			URL:        "http://b.example/p2",
			Site:       "b.example",
			Confidence: -1,
		},
	}
	var req AppendRequest
	for _, x := range xs {
		req.Extractions = append(req.Extractions, kfio.RecordOf(x))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAppendRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("DecodeAppendRequest: %v", err)
	}
	back, err := ToBatch(got.Extractions)
	if err != nil {
		t.Fatalf("ToBatch: %v", err)
	}
	if len(back) != len(xs) {
		t.Fatalf("round trip kept %d of %d extractions", len(back), len(xs))
	}
	for i, x := range xs {
		if back[i] != x {
			t.Fatalf("round trip changed extraction %d:\n got %+v\nwant %+v", i, back[i], x)
		}
	}
}

// TestDecodeAppendFastShape pins which bodies the reflection-free path
// decides: the shape the client sends, whitespace allowed, and nothing else —
// every other body is left, undecided, to encoding/json.
func TestDecodeAppendFastShape(t *testing.T) {
	const rec = `{"s":"/m/1","p":"/p","o":"s:v","extractor":"X","url":"u","site":"a","conf":0.5}`
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"extractions":[` + rec + `]}`, true},
		{`{"extractions":[` + rec + `,` + rec + `]}`, true},
		{" {\n\"extractions\" : [ " + rec + " ,\n" + rec + " ] }\r\n", true},
		{`{"extractions":[]}`, false},
		{`{"extractions":null}`, false},
		{`{"Extractions":[` + rec + `]}`, false},
		{`{"extractions":[` + rec + `],"note":1}`, false},
		{`{"extractions":[` + rec + `]} trailing`, false},
		{`{"extractions":[` + rec + `]}{}`, false},
		{`{"extractions":[` + rec + `,]}`, false},
		{`{"extractions":[` + rec + ` ` + rec + `]}`, false},
		{`{"extractions":[{"s":"caf\u00e9","p":"/p","o":"s:v"}]}`, false},
		{`{"extractions":[{"S":"/m/1","p":"/p","o":"s:v"}]}`, false},
		{`{"extractions":[{"s":null,"p":"/p","o":"s:v"}]}`, false},
		{`{"extractions":[` + rec, false},
		{``, false},
	} {
		req, ok := decodeAppendFast([]byte(tc.body))
		if ok != tc.fast {
			t.Errorf("decodeAppendFast(%q) decided = %v, want %v", tc.body, ok, tc.fast)
		}
		if !ok {
			continue
		}
		var want AppendRequest
		if err := json.Unmarshal([]byte(tc.body), &want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", tc.body, err)
		}
		if len(req.Extractions) != len(want.Extractions) {
			t.Fatalf("%q: %d records, encoding/json %d", tc.body, len(req.Extractions), len(want.Extractions))
		}
		for i := range want.Extractions {
			if req.Extractions[i] != want.Extractions[i] {
				t.Errorf("%q: record %d = %+v, encoding/json %+v", tc.body, i, req.Extractions[i], want.Extractions[i])
			}
		}
	}
}

func TestToBatchBadObject(t *testing.T) {
	_, err := ToBatch([]Extraction{
		{Subject: "/m/1", Predicate: "/p", Object: "e:/m/2"},
		{Subject: "/m/1", Predicate: "/p", Object: "garbage"},
	})
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("want ErrBadBatch, got %v", err)
	}
	var bad *BadBatchError
	if !errors.As(err, &bad) || bad.Index != 1 {
		t.Fatalf("want BadBatchError at index 1, got %#v", err)
	}
}

func TestCodeSentinelMapping(t *testing.T) {
	sentinels := []error{ErrNotFound, ErrBadBatch, ErrNotReady, ErrBusy, ErrBadRequest}
	for _, s := range sentinels {
		code := CodeForError(s)
		if code == CodeInternal {
			t.Fatalf("sentinel %v mapped to internal", s)
		}
		if got := SentinelForCode(code); !errors.Is(got, s) {
			t.Fatalf("code %q mapped back to %v, want %v", code, got, s)
		}
		// Wrapped sentinels must map identically: producers always wrap.
		if got := CodeForError(&BadBatchError{Index: 0, Reason: "x"}); got != CodeBadBatch {
			t.Fatalf("wrapped BadBatchError mapped to %q", got)
		}
	}
	if SentinelForCode("nonsense") != nil {
		t.Fatal("unknown code must map to nil")
	}
	if CodeForError(errors.New("other")) != CodeInternal {
		t.Fatal("unrelated error must map to internal")
	}
}

// TestFusedProbabilityJSONExact pins the bit-for-bit read contract:
// encoding/json's shortest-form float64 rendering must parse back to the
// identical bits for the awkward probabilities EM produces.
func TestFusedProbabilityJSONExact(t *testing.T) {
	probs := []float64{0, 1, -1, 1.0 / 3, 0.1 + 0.2, 1 - 1e-16, 5e-324, 0.9999999999999999}
	for _, p := range probs {
		row := FromFused(fusion.FusedTriple{
			Triple:      kb.Triple{Subject: "/m/1", Predicate: "/p", Object: kb.StringObject("v")},
			Probability: p,
			Predicted:   p >= 0,
		})
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		var back FusedTriple
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(back.Probability) != math.Float64bits(p) {
			t.Fatalf("probability %v changed bits over JSON: got %v", p, back.Probability)
		}
	}
}

func TestItemPathEscaping(t *testing.T) {
	p := ItemPath("/m/0fkvn", "/government/office/jurisdiction")
	if !strings.HasPrefix(p, PathItems) {
		t.Fatalf("path %q lost the items prefix", p)
	}
	seg := strings.TrimPrefix(p, PathItems)
	if strings.ContainsAny(seg, "/#") {
		t.Fatalf("item segment %q leaks unescaped separators", seg)
	}
	id, err := url.PathUnescape(seg)
	if err != nil {
		t.Fatal(err)
	}
	if id != "/m/0fkvn#/government/office/jurisdiction" {
		t.Fatalf("unescaped id = %q", id)
	}
}
