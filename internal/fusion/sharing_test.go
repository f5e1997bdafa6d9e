package fusion

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// Tests of the columns an append chain shares (compile.go, type columns): a
// generation must never see, and a fork must never write, the tail the chain
// is still appending into.

// chainWithTail compiles claims[:cut0] and appends 200-claim batches until the
// chain's claim column has room for 100 more, returning that generation and
// how many claims it holds: the first append onto a fresh compile copies every
// column once with amortised headroom, so from there a small batch is written
// in place.
func chainWithTail(t *testing.T, claims []Claim, cut0 int) (*Compiled, int) {
	t.Helper()
	g, at := MustCompile(claims[:cut0]), cut0
	for tries := 0; tries < 10; tries++ {
		g, at = g.MustAppend(claims[at:at+200]), at+200
		if cap(g.idx.cols.confOfClaim)-g.idx.cols.numClaims() >= 100 {
			return g, at
		}
	}
	t.Fatal("scenario broken: the chain's claim column never had 100 spare slots")
	return nil, 0
}

// sharesArray reports whether two generations' claim columns start at the same
// address, i.e. the later one was extended in place.
func sharesArray(a, b *Compiled) bool { return &a.g.confOfClaim[0] == &b.g.confOfClaim[0] }

// TestAppendForkOwnsItsTail is the fork rule: A→B chained in place, then a
// second Append on A (index already taken) with a different batch, and one
// more on the fork. Every generation equals its recompile, the fork copied
// instead of writing the chain's tail, and nothing that existed before an
// Append changed a bit because of it.
func TestAppendForkOwnsItsTail(t *testing.T) {
	claims := shardedClaims(6000)
	a, n := chainWithTail(t, claims, 1000)
	b := a.MustAppend(claims[n : n+100])
	if !sharesArray(a, b) {
		t.Fatal("a chained append with spare capacity reallocated the claim column")
	}
	aDigest, bDigest := snapshotDigest(t, a), snapshotDigest(t, b)

	forkBatch := randomClaims(5, 150) // other provenances, items and triples than B's batch
	b2 := a.MustAppend(forkBatch)
	if sharesArray(a, b2) {
		t.Fatal("a forked append extended the chain's claim column in place")
	}
	c2 := b2.MustAppend(claims[5000:5100])
	if !sharesArray(b2, c2) {
		t.Fatal("the fork did not keep its own tail")
	}
	c := b.MustAppend(claims[n+100 : n+200]) // the chain goes on, beside the fork

	for _, tc := range []struct {
		name  string
		got   *Compiled
		input []Claim
	}{
		{"A", a, claims[:n]},
		{"B", b, claims[:n+100]},
		{"B'", b2, slices.Concat(claims[:n], forkBatch)},
		{"C'", c2, slices.Concat(claims[:n], forkBatch, claims[5000:5100])},
		{"C", c, claims[:n+200]},
	} {
		want, _ := compile(tc.input, 0)
		graphsEqual(t, tc.name, tc.got.g, want)
	}
	if snapshotDigest(t, a) != aDigest || snapshotDigest(t, b) != bDigest {
		t.Fatal("a later Append changed an existing generation")
	}
}

// TestColumnsAreClipped pins what keeps the shared tail unreachable: every
// append-only column of every generation — chained, forked, empty-append,
// fresh compile, decoded snapshot — has cap == len, and with them what the
// accessors that hand a column out (Triples, ProvKeys) return.
func TestColumnsAreClipped(t *testing.T) {
	claims := shardedClaims(6000)
	a, n := chainWithTail(t, claims, 1000)
	b := a.MustAppend(claims[n : n+100])
	var buf bytes.Buffer
	if err := b.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spare := make([]Claim, 10, 100) // a caller's slice with room to spare
	copy(spare, claims)
	for name, c := range map[string]*Compiled{
		"compile":       MustCompile(claims[:100]),
		"compile-roomy": MustCompile(spare),
		"chained":       a,
		"in-place":      b,
		"empty-append":  b.MustAppend(nil),
		"fork":          a.MustAppend(claims[5000:5100]),
		"decoded":       decoded,
		"decoded+1":     decoded.MustAppend(claims[n+100 : n+200]),
	} {
		cols := reflect.ValueOf(c.g.columns)
		for i := 0; i < cols.NumField(); i++ {
			if col := cols.Field(i); col.Cap() != col.Len() {
				t.Errorf("%s: column %s has len %d cap %d", name, cols.Type().Field(i).Name, col.Len(), col.Cap())
			}
		}
	}
}

// TestFuseWhileChainAppends runs under -race: generations i-1 and i fuse on
// their own goroutines while the chain appends the next ones into the shared
// tails. The readers stay below their generation's length and the writer above
// it, so there is no conflicting access — and the results are the ones a fresh
// compile of each prefix fuses to.
func TestFuseWhileChainAppends(t *testing.T) {
	const base, batch, steps, ahead = 1500, 60, 6, 3
	claims := shardedClaims(base + batch*(steps+ahead+1))
	cfg := PopAccuConfig()
	cfg.Rounds = 2
	gens := []*Compiled{MustCompile(claims[:base])}
	grow := func() {
		n := gens[len(gens)-1].NumClaims()
		gens = append(gens, gens[len(gens)-1].MustAppend(claims[n:n+batch]))
	}
	grow()
	for i := 1; i <= steps; i++ {
		results := make([]*Result, 2)
		var wg sync.WaitGroup
		for k, c := range []*Compiled{gens[i-1], gens[i]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[k] = c.MustFuse(cfg)
			}()
		}
		for len(gens) <= i+ahead {
			grow()
		}
		wg.Wait()
		for k, res := range results {
			n := base + batch*(i-1+k)
			assertBitIdentical(t, "generation fused beside appends", res, MustCompile(claims[:n]).MustFuse(cfg))
		}
	}
}

// TestChainedAppendAllocatesForTheBatch bounds what a chained append may
// allocate: 200 appends of 100 claims onto a 50k-claim graph. A chained
// append writes the batch's rows into the append-only columns it shares with
// the generation before; what it allocates is the per-generation CSRs and
// counts it rewrites whole (4 bytes an entry, ≈1.34 MB at the last
// generation, so ≈268 MB over the chain) and the batch's own scratch. The
// bound is 1.25 × steps × the last generation's CSR and count bytes (≈336 MB;
// the chain allocates ≈284 MB). A per-append copy of the append-only columns
// costs ≈5 MB more per step at this size and overshoots it.
func TestChainedAppendAllocatesForTheBatch(t *testing.T) {
	const base, batch, steps = 50_000, 100, 200
	claims := shardedClaims(base + batch*(steps+1))
	g, err := CompileWorkers(claims[:base], 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _ = g.AppendWorkers(claims[base:base+batch], 1) // the copy-once append

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= steps; i++ {
		g, _ = g.AppendWorkers(claims[base+i*batch:base+(i+1)*batch], 1)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	csrBytes := 0
	for _, s := range [][]int32{
		g.g.itemClaimStart, g.g.itemClaims, g.g.itemCandStart, g.g.itemCands,
		g.g.tripleClaimStart, g.g.tripleClaims, g.g.tripleExtractors,
		g.g.provClaimStart, g.g.provClaims,
	} {
		csrBytes += 4 * len(s)
	}
	limit := uint64(steps) * uint64(csrBytes) * 5 / 4
	t.Logf("%d chained appends allocated %.1f MB, bound %.1f MB (%d × %.2f MB of CSRs and counts × 1.25)", steps, float64(got)/1e6, float64(limit)/1e6, steps, float64(csrBytes)/1e6)
	if got >= limit {
		t.Fatalf("%d chained appends allocated %d bytes, want under %d (1.25 × %d rewrites of the CSRs and counts)", steps, got, limit, steps)
	}
	want, _ := compile(claims[:base+batch*(steps+1)], 1)
	graphsEqual(t, "after the chain", g.g, want)
}
