package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kfusion/client"
	"kfusion/internal/exper"
	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kfio"
	"kfusion/internal/twolayer"
)

// newTestServer builds a hydrated in-memory server and mounts it on an
// httptest listener. Config overrides apply on top of the test defaults.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{FS: faultfs.NewMem(), Method: "popaccu", Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// decodeError reads a non-2xx response and asserts its JSON error shape.
func decodeError(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var er httpapi.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if er.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", er.Code, wantCode, er.Message)
	}
}

func TestHealthzAlwaysLive(t *testing.T) {
	s, err := New(Config{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// No Hydrate: liveness must not depend on readiness.
	resp, err := http.Get(ts.URL + httpapi.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before hydration = %d, want 200", resp.StatusCode)
	}
}

// TestNewRefusesNegativeLimits: a negative body cap would fail every append
// (http.MaxBytesReader reads it as 0), and a negative warm budget would run
// every append at the full round cap; New refuses both.
func TestNewRefusesNegativeLimits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"MaxBody", func(c *Config) { c.MaxBody = -1 }},
		{"WarmRounds", func(c *Config) { c.WarmRounds = -1 }},
	} {
		cfg := Config{FS: faultfs.NewMem()}
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("New with %s = -1: error %v, want one naming %s", tc.name, err, tc.name)
		}
	}
}

func TestDataRoutesNotReadyBeforeHydration(t *testing.T) {
	s, err := New(Config{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		httpapi.PathReadyz,
		httpapi.ItemPath("/m/1", "/p"),
		httpapi.PathTriples,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeError(t, resp, http.StatusServiceUnavailable, httpapi.CodeNotReady)
	}
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json",
		strings.NewReader(`{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","extractor":"X","url":"u","site":"s","conf":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusServiceUnavailable, httpapi.CodeNotReady)
}

func TestUnknownRouteIsJSON404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v2/everything")
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusNotFound, httpapi.CodeNotFound)
}

func TestMalformedAppendJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(`{"extractions": [`))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusBadRequest, httpapi.CodeBadBatch)
}

func TestAppendBadObjectTag(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"extractions":[{"s":"/m/1","p":"/p","o":"not-a-tagged-object","extractor":"X","url":"u","site":"s","conf":1}]}`
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusBadRequest, httpapi.CodeBadBatch)
}

func TestAppendEmptyBatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(`{"extractions":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusBadRequest, httpapi.CodeBadBatch)
}

func TestAppendOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBody = 512 })
	var sb strings.Builder
	sb.WriteString(`{"extractions":[`)
	for i := 0; sb.Len() < 4096; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"s":"/m/%d","p":"/p","o":"s:v","extractor":"X","url":"u","site":"s","conf":1}`, i)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusRequestEntityTooLarge, httpapi.CodeBadBatch)
}

// TestAppendBodyDecodeMatchesEncodingJSON posts each body to the append
// handler and to the handler as it stood before the record decoder —
// json.NewDecoder(r.Body).Decode under the same MaxBytesReader — on two fresh
// servers, and requires the same status and the same response bytes: the fast
// path and every way of falling off it are indistinguishable on the wire.
func TestAppendBodyDecodeMatchesEncodingJSON(t *testing.T) {
	const maxBody = 2048
	handleAppendRef := func(s *Server) apiFunc {
		return func(w http.ResponseWriter, r *http.Request) (any, error) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
			var req httpapi.AppendRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					return nil, &statusError{
						status: http.StatusRequestEntityTooLarge,
						err:    fmt.Errorf("%w: body exceeds %d bytes", httpapi.ErrBadBatch, s.cfg.MaxBody),
					}
				}
				return nil, fmt.Errorf("%w: invalid JSON: %v", httpapi.ErrBadBatch, err)
			}
			batch, err := httpapi.ToBatch(req.Extractions)
			if err != nil {
				return nil, err
			}
			return s.Append(batch)
		}
	}
	rec := func(subject string) string {
		return `{"s":"` + subject + `","p":"/p","o":"s:v","extractor":"X","url":"http://a/1","site":"a","conf":0.5}`
	}
	two := `{"extractions":[` + rec("/m/1") + `,` + rec("/m/2") + `]}`
	pad := strings.Repeat(" ", maxBody)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"fast", two, 200},
		{"fast with whitespace", " {\n \"extractions\" : [\n  " + rec("/m/1") + " ,\r\n\t" + rec("/m/2") + "\n ]\n}\n", 200},
		{"escaped value", `{"extractions":[` + rec(`caf\u00e9\/x`) + `]}`, 200},
		{"upper-case record key", `{"extractions":[{"S":"/m/1","P":"/p","O":"s:v","Extractor":"X","URL":"u","Site":"a","Conf":1}]}`, 200},
		{"upper-case envelope key", `{"Extractions":[` + rec("/m/1") + `]}`, 200},
		{"duplicate key, last wins", `{"extractions":[{"s":"/m/0","s":"/m/1","p":"/p","o":"s:v","extractor":"X","url":"u","site":"a"}]}`, 200},
		{"null fields", `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","extractor":"X","pattern":null,"url":"u","site":"a","conf":null}]}`, 200},
		{"unknown envelope key after", `{"extractions":[` + rec("/m/1") + `],"note":{"a":[1]}}`, 200},
		{"unknown envelope key before", `{"note":1,"extractions":[` + rec("/m/1") + `]}`, 200},
		{"trailing garbage", two + ` trailing }`, 200},
		{"trailing second value", two + two, 200},
		{"complete value, then padding past the limit", two + pad, 200},
		{"over the limit", `{"extractions":[` + strings.Repeat(rec("/m/1")+",", 30) + rec("/m/2") + `]}`, 413},
		{"over the limit inside whitespace", `{"extractions":[` + rec("/m/1") + pad + `]}`, 413},
		{"empty batch", `{"extractions":[]}`, 400},
		{"null batch", `{"extractions":null}`, 400},
		{"no batch", `{}`, 400},
		{"bad object tag", `{"extractions":[` + rec("/m/1") + `,{"s":"/m/2","p":"/p","o":"untagged"}]}`, 400},
		{"truncated", `{"extractions":[` + rec("/m/1") + `,`, 400},
		{"record is not an object", `{"extractions":[` + rec("/m/1") + `,7]}`, 400},
		{"quoted conf", `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","conf":"1"}]}`, 400},
		{"conf out of range", `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","conf":1e999}]}`, 400},
		{"conf with a leading zero", `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","conf":01}]}`, 400},
		{"not JSON", `extractions`, 400},
	} {
		post := func(h func(*Server) http.Handler) (int, string) {
			s, _ := newTestServer(t, func(c *Config) { c.MaxBody = maxBody })
			ts := httptest.NewServer(h(s))
			defer ts.Close()
			resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return resp.StatusCode, string(body)
		}
		gotStatus, got := post(func(s *Server) http.Handler { return s.Handler() })
		wantStatus, want := post(func(s *Server) http.Handler { return s.serve(handleAppendRef(s)) })
		if gotStatus != wantStatus || got != want {
			t.Errorf("%s:\n handler %d %s\nencoding/json %d %s", tc.name, gotStatus, got, wantStatus, want)
		}
		if gotStatus != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, gotStatus, tc.status, got)
		}
	}
}

func TestBadItemIDAndQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{
		httpapi.PathItems + "no-separator",
		httpapi.PathTriples + "?min_prob=high",
		// strconv.ParseFloat takes these; as thresholds they match nothing
		// (NaN, +Inf) or silently everything (-Inf).
		httpapi.PathTriples + "?min_prob=NaN",
		httpapi.PathTriples + "?min_prob=nan",
		httpapi.PathTriples + "?min_prob=Inf",
		httpapi.PathTriples + "?min_prob=%2BInf",
		httpapi.PathTriples + "?min_prob=-Inf",
		httpapi.PathTriples + "?min_prob=infinity",
		httpapi.PathTriples + "?limit=-1",
		httpapi.PathTriples + "?limit=many",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(path)
		decodeError(t, resp, http.StatusBadRequest, httpapi.CodeBadRequest)
	}

	// The typed client carries the same refusal back as ErrBadRequest, and a
	// finite threshold — the unpredicted rows' -1 included — still passes.
	c, err := client.New(ts.URL, client.WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := c.Triples(t.Context(), client.TriplesQuery{MinProb: bad, HasMinProb: true})
		if !errors.Is(err, httpapi.ErrBadRequest) {
			t.Fatalf("min_prob %v through the client: err = %v, want ErrBadRequest", bad, err)
		}
	}
	for _, ok := range []float64{-1, 0, 0.5, 1e300} {
		if _, err := c.Triples(t.Context(), client.TriplesQuery{MinProb: ok, HasMinProb: true}); err != nil {
			t.Fatalf("min_prob %v through the client: %v", ok, err)
		}
	}
}

// TestAppendWhileAppending pins the single-writer contract: a POST arriving
// while another append holds the writer slot gets 409 busy, not a queue.
func TestAppendWhileAppending(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.mu.Lock() // stand in for an in-flight append holding the writer slot
	defer s.mu.Unlock()
	body := `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","extractor":"X","url":"u","site":"s","conf":1}]}`
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusConflict, httpapi.CodeBusy)
}

// TestRoundTripMatchesDatasetFuse is the bit-for-bit read contract: fused
// posteriors served over HTTP equal the in-process Dataset.Fuse output
// exactly — same rows, same order, same float64 bits.
func TestRoundTripMatchesDatasetFuse(t *testing.T) {
	ds := exper.SharedDataset(exper.ScaleSmall, 42)
	cfg := fusion.PopAccuConfig()
	want := ds.Fuse("server-roundtrip-popaccu", cfg)

	_, ts := newTestServer(t, nil)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	// One batch = the whole feed, so the server's cold fuse runs the same
	// full-round EM as Dataset.Fuse.
	ar, err := c.Append(ctx, ds.Extractions)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Generation != 1 || ar.Triples != len(want.Triples) {
		t.Fatalf("append published generation %d with %d triples, want 1 with %d",
			ar.Generation, ar.Triples, len(want.Triples))
	}

	got, err := c.Triples(ctx, client.TriplesQuery{Limit: len(want.Triples) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != len(want.Triples) || len(got.Triples) != len(want.Triples) {
		t.Fatalf("served %d/%d triples, want %d", len(got.Triples), got.Total, len(want.Triples))
	}
	for i, w := range want.Triples {
		g := got.Triples[i]
		if g.Subject != string(w.Triple.Subject) || g.Predicate != string(w.Triple.Predicate) ||
			g.Object != w.Triple.Object.String() {
			t.Fatalf("row %d is (%s,%s,%s), want (%s,%s,%s)",
				i, g.Subject, g.Predicate, g.Object, w.Triple.Subject, w.Triple.Predicate, w.Triple.Object)
		}
		if math.Float64bits(g.Probability) != math.Float64bits(w.Probability) {
			t.Fatalf("row %d probability %v != %v (bit-for-bit)", i, g.Probability, w.Probability)
		}
		if g.Predicted != w.Predicted || g.Provenances != w.Provenances || g.Extractors != w.Extractors {
			t.Fatalf("row %d metadata diverged: got %+v want %+v", i, g, w)
		}
	}

	// Spot-check the item route against the same result.
	w0 := want.Triples[0]
	item, err := c.Item(ctx, string(w0.Triple.Subject), string(w0.Triple.Predicate))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range item.Triples {
		if g.Object == w0.Triple.Object.String() {
			found = true
			if math.Float64bits(g.Probability) != math.Float64bits(w0.Probability) {
				t.Fatalf("item route probability %v != %v", g.Probability, w0.Probability)
			}
		}
	}
	if !found {
		t.Fatalf("item route lost value %s of %s", w0.Triple.Object, w0.Triple.Item())
	}

	// A value the generation does not hold is a typed not-found.
	_, err = c.Item(ctx, "/m/does-not-exist", "/p")
	if !errors.Is(err, httpapi.ErrNotFound) {
		t.Fatalf("missing item error = %v, want ErrNotFound", err)
	}
}

// TestCrashRestartServesIdenticalGeneration is the restart contract: a
// server killed after appends (journal durable, no snapshot, no clean
// Close) and reopened on the same state directory serves the identical
// generation — the read responses are byte-for-byte equal.
func TestCrashRestartServesIdenticalGeneration(t *testing.T) {
	ds := exper.SharedDataset(exper.ScaleSmall, 42)
	xs := ds.Extractions
	cut := len(xs) / 2

	mem := faultfs.NewMem()
	// SnapshotEvery is set beyond the append count, so durability rests on
	// the journal alone — the crash-recovery path under test.
	a, tsA := newTestServer(t, func(c *Config) { c.FS = mem; c.SnapshotEvery = 1000 })
	if _, err := a.Append(xs[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(xs[cut:]); err != nil {
		t.Fatal(err)
	}

	// Clone the state as the moment of the kill; server A is deliberately
	// never Closed (no final snapshot).
	b, tsB := newTestServer(t, func(c *Config) { c.FS = mem.Clone(); c.SnapshotEvery = 1000 })

	readAll := func(ts *httptest.Server) []byte {
		resp, err := http.Get(ts.URL + httpapi.PathTriples + "?limit=1000000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("triples read = %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	bodyA, bodyB := readAll(tsA), readAll(tsB)
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("restarted server serves a different generation:\n A: %d bytes\n B: %d bytes", len(bodyA), len(bodyB))
	}

	stA, stB := a.Status(), b.Status()
	if *stA != *stB {
		t.Fatalf("status diverged after restart: %+v vs %+v", stA, stB)
	}
	if stB.Generation != 2 || !stB.Ready {
		t.Fatalf("restarted server at generation %d (ready=%v), want 2 (ready)", stB.Generation, stB.Ready)
	}
}

// TestAppendAfterCloseIsNotReady pins the drain contract: once Close ran,
// the write path reports not ready instead of touching a closed store.
func TestAppendAfterCloseIsNotReady(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	body := `{"extractions":[{"s":"/m/1","p":"/p","o":"s:v","extractor":"X","url":"u","site":"s","conf":1}]}`
	resp, err := http.Post(ts.URL+httpapi.PathAppend, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeError(t, resp, http.StatusServiceUnavailable, httpapi.CodeNotReady)
}

// TestTriplesQueryFilters exercises subject/predicate/min_prob/limit.
func TestTriplesQueryFilters(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	ds := exper.SharedDataset(exper.ScaleSmall, 42)
	if _, err := c.Append(ctx, ds.Extractions); err != nil {
		t.Fatal(err)
	}
	all, err := c.Triples(ctx, client.TriplesQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Total == 0 {
		t.Fatal("no triples served")
	}
	first := all.Triples[0]

	bySubj, err := c.Triples(ctx, client.TriplesQuery{Subject: first.Subject})
	if err != nil {
		t.Fatal(err)
	}
	if bySubj.Total == 0 || bySubj.Total > all.Total {
		t.Fatalf("subject filter returned %d of %d", bySubj.Total, all.Total)
	}
	for _, g := range bySubj.Triples {
		if g.Subject != first.Subject {
			t.Fatalf("subject filter leaked %q", g.Subject)
		}
	}

	limited, err := c.Triples(ctx, client.TriplesQuery{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Triples) != 1 || limited.Total != all.Total {
		t.Fatalf("limit=1 returned %d rows with total %d, want 1 with %d", len(limited.Triples), limited.Total, all.Total)
	}

	confident, err := c.Triples(ctx, client.TriplesQuery{MinProb: 0.9, HasMinProb: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range confident.Triples {
		if g.Probability < 0.9 {
			t.Fatalf("min_prob filter leaked probability %v", g.Probability)
		}
	}
	if confident.Total >= all.Total {
		t.Fatalf("min_prob=0.9 kept %d of %d rows; filter had no effect", confident.Total, all.Total)
	}
}

// TestMethodMismatchRefusesState pins the hydration check: a state
// directory built by one method must not be served as another. The method
// binding travels in snapshots (the journal is method-agnostic), so the
// first server closes cleanly to write one.
func TestMethodMismatchRefusesState(t *testing.T) {
	mem := faultfs.NewMem()
	a, _ := newTestServer(t, func(c *Config) { c.FS = mem; c.Method = "vote" })
	ds := exper.SharedDataset(exper.ScaleSmall, 42)
	if _, err := a.Append(ds.Extractions[:100]); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{FS: mem.Clone(), Method: "popaccu"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Hydrate(); err == nil || !strings.Contains(err.Error(), "method") {
		t.Fatalf("hydrating vote state as popaccu: err = %v, want method mismatch", err)
	}
}

// TestGranularityOverridesPreset: Config.Granularity names the granularity
// the state is written under, over the method preset — url included, though
// it is the zero Granularity — and for twolayer it names the source level.
// "" keeps the preset, and New refuses a name the method does not take.
func TestGranularityOverridesPreset(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions[:200]
	for _, tc := range []struct {
		method, gran string
		want         fusion.Granularity
		siteLevel    bool
	}{
		{"popaccu+unsup", "", fusion.GranExtractorSitePredPattern, false},
		{"popaccu+unsup", "url", fusion.GranExtractorURL, false},
		{"popaccu", "site-pred", fusion.GranExtractorSitePred, false},
		{"twolayer", "", 0, false},
		{"twolayer", "url", 0, false},
		{"twolayer", "site", 0, true},
	} {
		mem := faultfs.NewMem()
		s, _ := newTestServer(t, func(c *Config) { c.FS = mem; c.Method, c.Granularity = tc.method, tc.gran })
		if _, err := s.Append(xs); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		store, st, err := genstore.OpenFS(mem, func(*genstore.State, []extract.Extraction) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		store.Close()
		if st.Method != tc.method || st.Gran != tc.want || st.SiteLevel != tc.siteLevel {
			t.Errorf("-method %s -granularity %q wrote a %s state under %v, site level %v; want %v, site level %v",
				tc.method, tc.gran, st.Method, st.Gran, st.SiteLevel, tc.want, tc.siteLevel)
		}
	}
	for _, c := range []Config{
		{Method: "popaccu", Granularity: "page"},
		{Method: "popaccu", Granularity: "Site"},
		{Method: "twolayer", Granularity: "site-pred"},
	} {
		c.FS = faultfs.NewMem()
		if _, err := New(c); err == nil || !strings.Contains(err.Error(), "granularity") {
			t.Errorf("New(-method %s -granularity %q): err = %v, want an unknown granularity", c.Method, c.Granularity, err)
		}
	}
}

// TestSnapshotEvery pins the snapshot cadence knob: the zero value means the
// default of 16 appends, a negative value means no periodic snapshot at all —
// the journal alone carries the appends until Close writes the final one.
func TestSnapshotEvery(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	snapshots := func(mem *faultfs.Mem) (n int) {
		names, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".kfg") {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		every            int
		after15, after16 int
	}{
		{every: 0, after15: 0, after16: 1},
		{every: -1, after15: 0, after16: 0},
	} {
		mem := faultfs.NewMem()
		s, _ := newTestServer(t, func(c *Config) { c.FS = mem; c.SnapshotEvery = tc.every })
		for i := 0; i < 16; i++ {
			if i == 15 && snapshots(mem) != tc.after15 {
				t.Errorf("SnapshotEvery=%d: %d snapshots after 15 appends, want %d", tc.every, snapshots(mem), tc.after15)
			}
			if _, err := s.Append(xs[i*10 : i*10+10]); err != nil {
				t.Fatal(err)
			}
		}
		if got := snapshots(mem); got != tc.after16 {
			t.Errorf("SnapshotEvery=%d: %d snapshots after 16 appends, want %d", tc.every, got, tc.after16)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if snapshots(mem) == 0 {
			t.Errorf("SnapshotEvery=%d: Close wrote no snapshot", tc.every)
		}
	}
}

// TestHydratesKfuseState is the interop contract of the one append chain: a
// state directory grown the way kfuse -append -state grows it (the same
// genstore.Chain, every batch under the full config) hydrates in the daemon
// with no replay divergence, and /v1/triples serves exactly the rows
// kfio.WriteFused writes for kfuse's result. The same directory opened under
// another granularity is refused by the chain's Check.
func TestHydratesKfuseState(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	chain := genstore.ClaimChain("popaccu", fusion.PopAccuConfig(), 0, 1)
	mem := faultfs.NewMem()
	store, st, err := genstore.OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(xs); off += 1500 {
		if err := store.Append(st, xs[off:min(off+1500, len(xs))]); err != nil {
			t.Fatal(err)
		}
		if off == 1500 { // leave journaled batches behind the snapshot for hydration to replay
			if err := store.Snapshot(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := kfio.WriteFused(&want, st.Fused()); err != nil {
		t.Fatal(err)
	}

	// WarmRounds 5 is POPACCU's full cap: the daemon replays the journal
	// under the rounds kfuse fused it with.
	_, ts := newTestServer(t, func(c *Config) { c.FS = mem.Clone(); c.WarmRounds = 5 })
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Triples(t.Context(), client.TriplesQuery{Limit: len(st.Fused().Triples) + 1})
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	enc := json.NewEncoder(&served)
	for _, g := range got.Triples {
		rec := kfio.FusedRecord{Subject: g.Subject, Predicate: g.Predicate, Object: g.Object,
			Probability: g.Probability, Predicted: g.Predicted, Provenances: g.Provenances, Extractors: g.Extractors}
		if err := enc.Encode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Fatalf("daemon serves %d bytes of fused rows, kfuse wrote %d; generations differ", served.Len(), want.Len())
	}

	foreign, err := New(Config{FS: mem.Clone(), Method: "popaccu", Granularity: "site"})
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Hydrate(); err == nil || !strings.Contains(err.Error(), "granularity") {
		t.Fatalf("hydrating URL-granularity state at site granularity: err = %v, want granularity mismatch", err)
	}
}

// hydrateFromJournal closes store and hydrates a server from mem, which must
// come up ready on the journal alone at generation gen, serving want's rows.
func hydrateFromJournal(t *testing.T, what string, store *genstore.Store, mem *faultfs.Mem, gen int, want *fusion.Result) {
	t.Helper()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{FS: mem, Method: "popaccu"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate(); err != nil || !s.Ready() {
		t.Fatalf("%s: hydrating from the journal: err = %v, ready = %v", what, err, s.Ready())
	}
	defer s.Close()
	v := s.current.Load()
	if got := v.post.Result(); v.generation != gen || !reflect.DeepEqual(got.Triples, want.Triples) || !reflect.DeepEqual(got.ProvAccuracy, want.ProvAccuracy) {
		t.Fatalf("%s: hydrated generation %d does not serve generation %d's posterior", what, v.generation, gen)
	}
}

// TestHydrateRefusesForeignResult pins the check on the posterior where it
// now runs, at the write: views read rows through the graph, so a state whose
// result is not its graph's — here generation 1's result beside generation
// 2's graph, set by an apply that fuses through the public API — must never
// reach a snapshot, or a later boot would serve generation 2's support counts
// under generation 1's probabilities. Snapshot refuses it and writes nothing;
// the daemon then boots from the journal, at generation 2.
func TestHydrateRefusesForeignResult(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	chain := genstore.ClaimChain("popaccu", fusion.PopAccuConfig(), 1, 1)
	mem := faultfs.NewMem()
	store, st, err := genstore.OpenFS(mem, chain.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(st, xs[:600]); err != nil {
		t.Fatal(err)
	}
	stale := st.Fused()
	stale = &fusion.Result{Triples: stale.Triples, Rounds: stale.Rounds, ProvAccuracy: stale.ProvAccuracy, Unpredicted: stale.Unpredicted}
	if err := store.Append(st, xs[600:1200]); err != nil {
		t.Fatal(err)
	}
	want := st.Fused()
	st.Result = stale
	if err := store.Snapshot(st); err == nil || !strings.Contains(err.Error(), "not its graph's") {
		t.Fatalf("snapshot of another generation's result: err = %v, want a refusal", err)
	}
	hydrateFromJournal(t, "another generation's result", store, mem, 2, want)
}

// TestHydrateRefusesInvalidResultValues is the same refusal for a result
// whose rows and keys are its graph's but whose numbers no run produces: the
// accuracies would seed every warm round a daemon booted from it runs.
func TestHydrateRefusesInvalidResultValues(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	for what, damage := range map[string]func(res *fusion.Result){
		"a NaN probability":    func(res *fusion.Result) { res.Triples[0].Probability = math.NaN() },
		"a probability of 1.5": func(res *fusion.Result) { res.Triples[0].Probability = 1.5 },
		"a NaN accuracy": func(res *fusion.Result) {
			for k := range res.ProvAccuracy {
				res.ProvAccuracy[k] = math.NaN()
				return
			}
		},
		"an accuracy of -0.1": func(res *fusion.Result) {
			for k := range res.ProvAccuracy {
				res.ProvAccuracy[k] = -0.1
				return
			}
		},
	} {
		chain := genstore.ClaimChain("popaccu", fusion.PopAccuConfig(), 1, 1)
		mem := faultfs.NewMem()
		store, st, err := genstore.OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(st, xs[:600]); err != nil {
			t.Fatal(err)
		}
		want := st.Fused()
		res := &fusion.Result{Triples: slices.Clone(want.Triples), Rounds: want.Rounds, ProvAccuracy: maps.Clone(want.ProvAccuracy), Unpredicted: want.Unpredicted}
		damage(res)
		st.Result = res
		if err := store.Snapshot(st); err == nil || !strings.Contains(err.Error(), "not its graph's") {
			t.Fatalf("snapshot of a result with %s: err = %v, want a refusal", what, err)
		}
		hydrateFromJournal(t, what, store, mem, 1, want)
	}
}

// TestHydrateRefusesForeignTwoLayerState is the same check on the other
// recovered half of a two-layer state, the warm-start parameters: a snapshot
// whose accuracy vector is not the graph's length, or holds a value no run
// produces, fails Hydrate instead of seeding the next warm round with it.
func TestHydrateRefusesForeignTwoLayerState(t *testing.T) {
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	for what, damage := range map[string]func(tl *twolayer.State){
		"a short accuracy vector": func(tl *twolayer.State) { tl.SrcAcc = tl.SrcAcc[:len(tl.SrcAcc)/2] },
		"a NaN accuracy":          func(tl *twolayer.State) { tl.SrcAcc[0] = math.NaN() },
		"a recall of 1":           func(tl *twolayer.State) { tl.Recall[0] = 1 },
	} {
		chain := genstore.TwoLayerChain(twolayer.DefaultConfig(), 1, 1)
		mem := faultfs.NewMem()
		store, st, err := genstore.OpenFS(mem, chain.Apply)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(st, xs[:600]); err != nil {
			t.Fatal(err)
		}
		damage(st.TL)
		if err := store.Snapshot(st); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{FS: mem, Method: "twolayer"})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Hydrate(); err == nil || !strings.Contains(err.Error(), "not its graph's") {
			t.Fatalf("hydrating a snapshot with %s: err = %v, want a refusal", what, err)
		}
		if s.Ready() {
			t.Fatalf("%s: a refused state was published", what)
		}
	}
}

// TestServedTwoLayerEqualsFreshChain pins the served two-layer bits (the
// benchmark's serve-mixed digest covers the popaccu daemon only): a twolayer
// daemon takes a head and 40 appends — its step engines passing from
// generation to generation, first E-steps revised rather than recomputed,
// the graph's incidence merged — with a periodic snapshot on the way and, in
// the middle, a reopen from a copy of the live disk (snapshot plus journaled
// batches, replayed), and then serves, row for row and bit for bit, what an
// in-process chain computes that builds fresh engines for every step and
// hands its State on only through the codec.
func TestServedTwoLayerEqualsFreshChain(t *testing.T) {
	const head, batch, appends = 1000, 100, 40
	xs := exper.SharedDataset(exper.ScaleSmall, 42).Extractions
	if len(xs) < head+appends*batch {
		t.Fatalf("small dataset too small: %d extractions", len(xs))
	}
	mem := faultfs.NewMem()
	open := func(fs *faultfs.Mem) *Server {
		s, err := New(Config{FS: fs, Method: "twolayer", SnapshotEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Hydrate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open(mem)
	defer func() { s.Close() }()

	cold := twolayer.DefaultConfig()
	warm := cold
	warm.Rounds = 1
	var g *extract.Compiled
	var post *fusion.Posterior
	var state *twolayer.State
	step := func(lo, hi int, cfg twolayer.Config) {
		if _, err := s.Append(xs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if g == nil {
			g = extract.Compile(xs[lo:hi], cold.SiteLevel)
		} else {
			g = g.Append(xs[lo:hi])
			var buf bytes.Buffer
			if err := twolayer.EncodeState(&buf, state); err != nil {
				t.Fatal(err)
			}
			var err error
			if state, err = twolayer.DecodeState(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if post, state, err = twolayer.FuseLockstep([]*extract.Compiled{g}, nil, cfg, state); err != nil {
			t.Fatal(err)
		}
	}
	step(0, head, cold)
	for i := 0; i < appends; i++ {
		step(head+i*batch, head+(i+1)*batch, warm)
		if i == 20 {
			// 22 batches in: the snapshot holds 16 of them, the journal the
			// rest. The copy is what a crash would leave on disk.
			image := mem.Clone()
			s.Close()
			s = open(image)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Triples(t.Context(), client.TriplesQuery{Limit: post.Len() + 1})
	if err != nil {
		t.Fatal(err)
	}
	want := post.Result()
	if len(got.Triples) != len(want.Triples) {
		t.Fatalf("daemon serves %d rows, the fresh chain computed %d", len(got.Triples), len(want.Triples))
	}
	var served, fresh bytes.Buffer
	enc := json.NewEncoder(&served)
	for _, g := range got.Triples {
		rec := kfio.FusedRecord{Subject: g.Subject, Predicate: g.Predicate, Object: g.Object,
			Probability: g.Probability, Predicted: g.Predicted, Provenances: g.Provenances, Extractors: g.Extractors}
		if err := enc.Encode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := kfio.WriteFused(&fresh, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), fresh.Bytes()) {
		a, b := strings.Split(served.String(), "\n"), strings.Split(fresh.String(), "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("row %d: daemon serves %s, the fresh chain computed %s", i, a[i], b[min(i, len(b)-1)])
			}
		}
		t.Fatal("daemon's rows and the fresh chain's differ in length only")
	}
}

// TestWarmAppendAllocationBound is the regression guard on what a served
// append allocates, per served engine: the mean runtime.MemStats.TotalAlloc
// delta of 20 warm appends of 400 records onto the large dataset's first
// 50 000 (faultfs.Mem, no periodic snapshot — BenchmarkServerAppend's shape)
// must stay under a bound set between what this loop measured before and
// after the step stopped rebuilding what it could keep. popaccu: 7.37 MB per
// append when every generation built its full row slice and string-keyed
// accuracy map, 2.82 MB with the posterior kept in the engine's columns.
// twolayer: 7.48 MB when every generation built fresh step engines and
// scattered the whole ext→statement incidence again, 4.8 MB with the engines
// handed on and the incidence merged. Neither rebuild can come back
// unnoticed.
func TestWarmAppendAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesises the large dataset")
	}
	const head, batch, appends = 50_000, 400, 20
	xs := exper.SharedDataset(exper.ScaleLarge, 42).Extractions
	if len(xs) < head+(appends+2)*batch {
		t.Fatalf("large dataset too small: %d extractions", len(xs))
	}
	for _, tc := range []struct {
		method string
		bound  uint64 // bytes per append
	}{
		{"popaccu", 5_100_000},
		{"twolayer", 6_200_000},
	} {
		s, _ := newTestServer(t, func(c *Config) { c.Method = tc.method; c.SnapshotEvery = -1; c.Logf = nil })
		if _, err := s.Append(xs[:head]); err != nil {
			t.Fatal(err)
		}
		at := head
		step := func() {
			if _, err := s.Append(xs[at : at+batch]); err != nil {
				t.Fatal(err)
			}
			at += batch
		}
		step() // the first warm append sizes the recycled engines' headroom
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < appends; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		mean := (after.TotalAlloc - before.TotalAlloc) / appends
		t.Logf("%s: %d bytes allocated per warm append (bound %d)", tc.method, mean, tc.bound)
		if mean > tc.bound {
			t.Fatalf("%s: a warm append allocates %d bytes on average, bound %d: is a generation rebuilding what the one before could hand it?", tc.method, mean, tc.bound)
		}
	}
}

// TestClaimChainLiveHeapBound is the size guard on the claim chain's graph
// and interning index, in process until the benchmark has a size row: a chain
// grown by AppendExtractions over the large dataset's first 150 000 records
// in 8192-record batches must hold no more than 162 bytes of live heap per
// claim. Measured on the same feed and batching, the chain held 307.4 B/claim
// with a separate claim stream's tables beside the graph, 249.8 with one set
// of tables and a 104-byte Claim record per claim beside the ID columns, 144.1
// with the claims kept only as columns, and 136.0 once the 8-byte confidence
// column went. 162 is that plus 14 for a pair set one doubling larger (8-byte
// words at ≤ 0.75 load: 2^18 slots, 2 MB, for these 150 000 claims) and about
// 10 for allocator rounding; a returning record, column or second set of
// intern tables fails it.
func TestClaimChainLiveHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesises the large dataset")
	}
	const bound = 162 // bytes per claim
	gran := fusion.PopAccuConfig().Granularity
	xs := exper.SharedDataset(exper.ScaleLarge, 42).Extractions
	xs = xs[:min(len(xs), 150_000)]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := fusion.CompileExtractions(xs[:min(len(xs), 8192)], gran, 0)
	for off := 8192; off < len(xs); off += 8192 {
		var err error
		if g, err = g.AppendExtractions(xs[off:min(off+8192, len(xs))], gran); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perClaim := float64(after.HeapAlloc-before.HeapAlloc) / float64(g.NumClaims())
	t.Logf("%d claims from %d records: %.1f bytes of live heap per claim (bound %d)", g.NumClaims(), len(xs), perClaim, bound)
	if after.HeapAlloc < before.HeapAlloc || perClaim > bound {
		t.Fatalf("the claim chain holds %.1f bytes per claim, bound %d: is a second set of tables or a per-claim record back?", perClaim, bound)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(xs)
}
