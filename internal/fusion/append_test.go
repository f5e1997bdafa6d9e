package fusion

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/kb"
)

// graphsEqual compares every field of two compiled graphs. Empty and nil
// slices are interchangeable (an append over an empty span materializes an
// empty slice where a fresh compile may leave nil).
func graphsEqual(t *testing.T, name string, got, want *graph) {
	t.Helper()
	eq := func(field string, g, w any) {
		t.Helper()
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
		if gv.Kind() == reflect.Slice && gv.Len() == 0 && wv.Len() == 0 {
			return
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: graph field %s differs:\n got %v\nwant %v", name, field, g, w)
		}
	}
	eq("items", got.items, want.items)
	eq("itemClaimStart", got.itemClaimStart, want.itemClaimStart)
	eq("itemClaims", got.itemClaims, want.itemClaims)
	eq("triples", got.triples, want.triples)
	eq("itemCandStart", got.itemCandStart, want.itemCandStart)
	eq("itemCands", got.itemCands, want.itemCands)
	eq("itemOfTriple", got.itemOfTriple, want.itemOfTriple)
	eq("localOfTriple", got.localOfTriple, want.localOfTriple)
	eq("tripleOfClaim", got.tripleOfClaim, want.tripleOfClaim)
	eq("localOfClaim", got.localOfClaim, want.localOfClaim)
	eq("tripleClaimStart", got.tripleClaimStart, want.tripleClaimStart)
	eq("tripleClaims", got.tripleClaims, want.tripleClaims)
	eq("tripleExtractors", got.tripleExtractors, want.tripleExtractors)
	eq("provKeys", got.provKeys, want.provKeys)
	eq("provOfClaim", got.provOfClaim, want.provOfClaim)
	eq("provClaimStart", got.provClaimStart, want.provClaimStart)
	eq("provClaims", got.provClaims, want.provClaims)
	eq("extKeys", got.extKeys, want.extKeys)
	eq("extOfClaim", got.extOfClaim, want.extOfClaim)
	eq("maxCandidates", got.maxCandidates, want.maxCandidates)
	eq("maxItemClaims", got.maxItemClaims, want.maxItemClaims)
	eq("maxProvClaims", got.maxProvClaims, want.maxProvClaims)
}

// TestAppendMatchesRecompile is the tentpole contract: appending a batch to a
// compiled generation produces the exact graph a fresh compile of the
// concatenated claim stream builds — same IDs for every pre-existing
// provenance, item, triple and claim, same CSR bits — at several split points
// and worker counts, including splits that add new provenances, new items,
// new candidates on existing items, and duplicate claims of existing triples.
func TestAppendMatchesRecompile(t *testing.T) {
	claims := randomClaims(99, 600)
	n := len(claims) // randomClaims dedups, so n < 600
	for _, split := range []int{0, 1, n / 2, n - n/10, n - 1, n} {
		for _, workers := range []int{1, 2, 4, 8} {
			base, err := CompileWorkers(claims[:split], workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			next, err := base.AppendWorkers(claims[split:], workers)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := compile(claims, workers)
			graphsEqual(t, fmt.Sprintf("split=%d workers=%d", split, workers), next.g, want)
			if next.Generation() != 1 {
				t.Fatalf("generation = %d, want 1", next.Generation())
			}
		}
	}
}

// TestAppendChainMatchesRecompile appends in several batches — the streaming
// shape — and requires the final generation to equal one big compile, with
// fusion results bit-identical under every method.
func TestAppendChainMatchesRecompile(t *testing.T) {
	claims := shardedClaims(2000)
	g := MustCompile(claims[:500])
	for _, cut := range []int{800, 1200, 1999, 2000} {
		prev := 0
		switch cut {
		case 800:
			prev = 500
		case 1200:
			prev = 800
		case 1999:
			prev = 1200
		case 2000:
			prev = 1999
		}
		g = g.MustAppend(claims[prev:cut])
	}
	if g.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", g.Generation())
	}
	want, _ := compile(claims, 0)
	graphsEqual(t, "chain", g.g, want)

	full := MustCompile(claims)
	for _, cfg := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig(), PopAccuPlusUnsupConfig()} {
		assertBitIdentical(t, "chain/"+cfg.Method.String(), g.MustFuse(cfg), full.MustFuse(cfg))
	}
}

// TestAppendAboveShardThreshold crosses csr.ParallelThreshold on either side
// of an Append at four workers: a base over it (interned in four ranges)
// extended by a batch under it (one range), and a base under it extended by a
// batch over it, which interns in four ranges onto the non-empty generation.
func TestAppendAboveShardThreshold(t *testing.T) {
	claims := shardedClaims(csr.ParallelThreshold + 4096)
	want, _ := compile(claims, 4)
	for _, split := range []int{csr.ParallelThreshold + 100, 4096} {
		base, _ := CompileWorkers(claims[:split], 4, 0)
		next, err := base.AppendWorkers(claims[split:], 4)
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, fmt.Sprintf("split=%d", split), next.g, want)
	}
}

// TestAppendLeavesPreviousGenerationUsable pins the generational contract:
// after an append, the base handle must still fuse to its own (pre-append)
// results, bit-identically.
func TestAppendLeavesPreviousGenerationUsable(t *testing.T) {
	claims := randomClaims(3, 500)
	n := len(claims)
	base := MustCompile(claims[:n/2])
	before := base.MustFuse(PopAccuConfig())
	next := base.MustAppend(claims[n/2:])
	after := base.MustFuse(PopAccuConfig())
	assertBitIdentical(t, "base-after-append", after, before)
	if next.NumClaims() != n {
		t.Fatalf("appended generation has %d claims, want %d", next.NumClaims(), n)
	}
	// A second append on the consumed base rebuilds the index and must still
	// match the recompile.
	again := base.MustAppend(claims[n/2:])
	want, _ := compile(claims, 0)
	graphsEqual(t, "rebuilt-index", again.g, want)
}

// TestAppendNothingIsConstantCost pins the empty append: a nil batch, or an
// extraction batch the graph's dedup drops whole, returns the next
// generation over the receiver's graph without copying or rebuilding
// anything — on a chained generation and on one whose index was already
// taken.
func TestAppendNothingIsConstantCost(t *testing.T) {
	xs := benchExtractions(400)
	gran := GranExtractorURL
	base := CompileExtractions(xs[:300], gran, 0)
	g, err := base.AppendExtractions(xs[300:], gran)
	if err != nil {
		t.Fatal(err)
	}
	grow := []func(*Compiled) (*Compiled, error){
		func(c *Compiled) (*Compiled, error) { return c.Append(nil) },
		func(c *Compiled) (*Compiled, error) { return c.Append([]Claim{}) },
		func(c *Compiled) (*Compiled, error) { return c.AppendExtractions(nil, gran) },
		func(c *Compiled) (*Compiled, error) { return c.AppendExtractions(xs[100:200], gran) },
	}
	for i, grow := range grow {
		next, err := grow(g)
		if err != nil {
			t.Fatal(err)
		}
		if next.Generation() != g.Generation()+1 {
			t.Fatalf("append %d: generation = %d, want %d", i, next.Generation(), g.Generation()+1)
		}
		if next.g != g.g {
			t.Fatalf("append %d: an append that adds nothing built a new graph", i)
		}
		// The index moved on with the chain: the next real append must not
		// have to rebuild it, and must still match a recompile.
		if next.idx == nil || g.idx != nil {
			t.Fatalf("append %d: empty append did not hand the interning index on", i)
		}
		g = next
	}
	want, _ := compile(Claims(xs, gran), 0)
	graphsEqual(t, "after empty appends", g.MustAppend(nil).g, want)

	for name, c := range map[string]*Compiled{"chained": g, "consumed": base} {
		allocs := testing.AllocsPerRun(100, func() { c = c.MustAppend(nil) })
		if allocs > 2 {
			t.Errorf("%s: empty append allocates %v objects per call, want O(1)", name, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() { c, _ = c.AppendExtractions(nil, gran) })
		if allocs > 2 {
			t.Errorf("%s: empty extraction append allocates %v objects per call, want O(1)", name, allocs)
		}
	}
}

// TestAppendExtractionsGranularity pins which granularity an extraction
// append may use: the one the index's pair set was built under, or any on an
// index without one (a claim compile, a claim append, a decoded graph). A
// refused append leaves the receiver's index in place, so the chain goes on
// under the right granularity to the graph of one CompileExtractions, and a
// pair set rebuilt after a claim append dedups against those claims too.
func TestAppendExtractionsGranularity(t *testing.T) {
	xs := benchExtractions(400)
	a, b := GranExtractorURL, GranExtractorSitePred
	claimAppended := func() *Compiled {
		head := CompileExtractions(xs[:300], a, 0)
		return head.MustAppend(claimsOf(CompileExtractions(xs[:350], a, 0))[head.NumClaims():])
	}
	decoded := func() *Compiled {
		var buf bytes.Buffer
		if err := CompileExtractions(xs[:300], a, 0).EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		c, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		base    *Compiled
		gran    Granularity
		wantErr bool
	}{
		{"same granularity", CompileExtractions(xs[:300], a, 0), a, false},
		{"another granularity", CompileExtractions(xs[:300], a, 0), b, true},
		{"claim compile", MustCompile(Claims(xs[:300], a)), b, false},
		{"claim append", claimAppended(), a, false},
		{"decoded graph", decoded(), b, false},
	} {
		next, err := tc.base.AppendExtractions(xs[300:], tc.gran)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if err != nil {
			if tc.base.idx == nil {
				t.Fatalf("%s: the refused append took the index", tc.name)
			}
			if next, err = tc.base.AppendExtractions(xs[300:], a); err != nil {
				t.Fatal(err)
			}
		} else if _, err := next.AppendExtractions(xs[:10], GranExtractorSitePredPattern); err == nil {
			t.Fatalf("%s: the next append under a third granularity was accepted", tc.name)
		}
		if tc.wantErr || tc.gran == a {
			graphsEqual(t, tc.name, next.g, CompileExtractions(xs, a, 0).g)
		}
	}
}

// claimStreamRef is the flatten loop as it stood before the dedup reused
// keys, hashed each record once and deduplicated by ID pair — a fresh key per
// record, lookup then insert into a map keyed by the four strings — kept as
// the oracle for CompileExtractions, AppendExtractions, Claims and
// ClaimStream.Add.
type claimStreamRef struct {
	gran Granularity
	seen map[provTriple]bool
}

func (r *claimStreamRef) add(xs []extract.Extraction) []Claim {
	out := make([]Claim, 0, len(xs))
	for _, x := range xs {
		prov := r.gran.Key(x)
		k := provTriple{prov: prov, triple: x.Triple}
		if r.seen[k] {
			continue
		}
		r.seen[k] = true
		out = append(out, Claim{Triple: x.Triple, Prov: prov, Extractor: x.Extractor})
	}
	return out
}

// claimsRef is the reference Claims: the whole feed through one reference
// stream.
func claimsRef(xs []extract.Extraction, g Granularity) []Claim {
	return (&claimStreamRef{gran: g, seen: map[provTriple]bool{}}).add(xs)
}

// TestClaimStreamMatchesClaims pins the flattening against claimsRef for
// every granularity preset: Claims and CompileExtractions over the whole
// feed, and batches cut at random boundaries — the claims AppendExtractions
// adds per generation, and ClaimStream.Add's — then concatenated, including
// cross-batch (provenance, triple) dedup. The feed lists each page's records
// together (where the loop reuses the previous key), revisits pages later,
// repeats records verbatim, and interleaves two pages record by record
// (where it must not).
func TestClaimStreamMatchesClaims(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rec := func(page, i int) extract.Extraction {
		site := fmt.Sprintf("site%d", page%5)
		return extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("/m/%d", rng.Intn(40))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Extractor:  fmt.Sprintf("E%d", (page+i/4)%3), // runs of one extractor on one page
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(2)),
			URL:        fmt.Sprintf("http://%s/page%d", site, page),
			Site:       site,
			Confidence: rng.Float64(),
		}
	}
	var xs []extract.Extraction
	for page := 0; page < 60; page++ {
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			xs = append(xs, rec(page%25, i)) // pages 0..24, then revisited
			if rng.Intn(6) == 0 {
				xs = append(xs, xs[rng.Intn(len(xs))]) // a verbatim repeat
			}
		}
	}
	for i := 0; i < 40; i++ {
		xs = append(xs, rec(3+i%2, i)) // two pages interleaved
	}

	for gran := range Granularity(len(shapes)) {
		want := claimsRef(xs, gran)
		if len(want) == len(xs) {
			t.Fatalf("gran %v: the feed has no duplicate (provenance, triple) pair to dedup", gran)
		}
		if got := Claims(xs, gran); !reflect.DeepEqual(got, want) {
			t.Fatalf("gran %v: Claims diverges from the reference loop (%d vs %d claims)", gran, len(got), len(want))
		}
		if got := claimsOf(CompileExtractions(xs, gran, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("gran %v: CompileExtractions diverges from the reference loop (%d vs %d claims)", gran, len(got), len(want))
		}
		for trial := 0; trial < 5; trial++ {
			s := NewClaimStream(gran)
			c := CompileExtractions(nil, gran, 0)
			var streamed, added []Claim
			for off := 0; off < len(xs); {
				n := rng.Intn(min(120, len(xs)-off) + 1) // empty batches included
				streamed = append(streamed, s.Add(xs[off:off+n])...)
				next, err := c.AppendExtractions(xs[off:off+n], gran)
				if err != nil {
					t.Fatal(err)
				}
				added = append(added, claimsOf(next)[c.NumClaims():]...)
				c = next
				off += n
			}
			if !reflect.DeepEqual(streamed, want) {
				t.Fatalf("gran %v: streamed claims diverge from the reference loop (%d vs %d)", gran, len(streamed), len(want))
			}
			if !reflect.DeepEqual(added, want) || !reflect.DeepEqual(claimsOf(c), want) {
				t.Fatalf("gran %v: appended claims diverge from the reference loop (%d vs %d)", gran, len(added), len(want))
			}
		}
	}
}

// convergingRaw builds a claim stream on which EM actually converges
// (Epsilon-stopped, not Rounds-capped): a pool of mostly-accurate
// provenances, each item with one dominant true value and occasional
// per-provenance conflicts. This is the regime the warmTol contract covers.
func convergingRaw(n int) []Claim {
	claims := make([]Claim, 0, n)
	for i := 0; i < n; i++ {
		item := fmt.Sprintf("s%d", i%(n/12+1))
		prov := fmt.Sprintf("prov%d", i%37)
		val := "true"
		if (int64(i)*2654435761)%100 < 15 { // deterministic ~15% noise
			val = fmt.Sprintf("f%d", i%3)
		}
		claims = append(claims, cl(item, "p", val, prov))
	}
	return claims
}

// dedupClaims removes duplicate (prov, triple) pairs, as Claims would.
func dedupClaims(claims []Claim) []Claim {
	seen := make(map[provTriple]bool, len(claims))
	out := claims[:0:0]
	for _, c := range claims {
		k := provTriple{prov: c.Prov, triple: c.Triple}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	return out
}

// TestFuseWarmWithinToleranceOfCold pins the documented warm-start contract
// in its converged regime: with Epsilon (not the Rounds cap) terminating
// both runs, seeding from the previous generation's accuracies converges in
// no more rounds than cold start and lands within warmTol of the cold-start
// output on every probability and accuracy.
func TestFuseWarmWithinToleranceOfCold(t *testing.T) {
	claims := dedupClaims(convergingRaw(4000))
	split := len(claims) - len(claims)/10
	base := MustCompile(claims[:split])
	cfg := PopAccuConfig()
	cfg.Rounds = 100 // let Epsilon terminate; the paper's R=5 is a forced cut
	prev := base.MustFuse(cfg)

	next := base.MustAppend(claims[split:])
	cold := next.MustFuse(cfg)
	warm := next.MustFuseWarm(cfg, prev)

	if cold.Rounds >= cfg.Rounds {
		t.Fatalf("cold start did not converge within %d rounds; test scenario broken", cfg.Rounds)
	}
	if warm.Rounds > cold.Rounds {
		t.Errorf("warm start took %d rounds, cold %d — warm must not be slower to converge", warm.Rounds, cold.Rounds)
	}
	coldBy := cold.ByTriple()
	maxDrift := 0.0
	for _, f := range warm.Triples {
		w := coldBy[f.Triple]
		if f.Predicted != w.Predicted {
			t.Fatalf("%v: Predicted %v vs cold %v", f.Triple, f.Predicted, w.Predicted)
		}
		if !f.Predicted {
			continue
		}
		if d := math.Abs(f.Probability - w.Probability); d > maxDrift {
			maxDrift = d
		}
	}
	for p, a := range warm.ProvAccuracy {
		if d := math.Abs(a - cold.ProvAccuracy[p]); d > maxDrift {
			maxDrift = d
		}
	}
	if maxDrift > warmTol {
		t.Errorf("warm-vs-cold drift %.2e exceeds warmTol %.0e", maxDrift, warmTol)
	}
	t.Logf("warm rounds %d vs cold %d; max drift %.2e", warm.Rounds, cold.Rounds, maxDrift)

	// Nil previous result must degrade to a plain (cold) Fuse, bit-identically.
	assertBitIdentical(t, "warm-nil", next.MustFuseWarm(cfg, nil), cold)
}

// TestFuseWarmDeterministicAcrossWorkers pins that warm start preserves the
// worker-independence contract.
func TestFuseWarmDeterministicAcrossWorkers(t *testing.T) {
	claims := shardedClaims(800)
	base := MustCompile(claims[:700])
	prev := base.MustFuse(PopAccuConfig())
	next := base.MustAppend(claims[700:])
	var want *Result
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := PopAccuConfig()
		cfg.Workers = workers
		got := next.MustFuseWarm(cfg, prev)
		if want == nil {
			want = got
			continue
		}
		assertBitIdentical(t, fmt.Sprintf("warm workers=%d", workers), got, want)
	}
}

// benchExtractions synthesizes a small deterministic extraction stream with
// repeated (prov, triple) pairs across batch boundaries.
func benchExtractions(n int) []extract.Extraction {
	out := make([]extract.Extraction, n)
	for i := range out {
		out[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", i%40)),
				Predicate: "p",
				Object:    kb.StringObject(fmt.Sprintf("v%d", i%5)),
			},
			Extractor:  fmt.Sprintf("X%d", i%4),
			Pattern:    fmt.Sprintf("pat%d", i%3),
			URL:        fmt.Sprintf("http://site%d.example/p%d", i%11, i%23),
			Site:       fmt.Sprintf("site%d.example", i%11),
			Confidence: -1,
		}
	}
	return out
}
