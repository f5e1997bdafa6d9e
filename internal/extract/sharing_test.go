package extract

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// Tests of the columns an append chain shares (graph.go, type columns): a
// generation must never see, and a fork must never write, the tail the chain
// is still appending into.

// chainWithTail compiles xs[:cut0] and appends 200-record batches until the
// chain's statement column has room for 100 more entries, returning that
// generation and how much of xs it holds: the first append onto a fresh compile
// copies every column once with amortised headroom, so from there a small
// batch is written in place.
func chainWithTail(t *testing.T, xs []Extraction, cut0 int) (*Compiled, int) {
	t.Helper()
	g, at := Compile(xs[:cut0], false), cut0
	for tries := 0; tries < 10; tries++ {
		g, at = g.Append(xs[at:at+200]), at+200
		if cap(g.idx.cols.stSource)-len(g.idx.cols.stSource) >= 100 {
			return g, at
		}
	}
	t.Fatal("scenario broken: the chain's statement column never had 100 spare slots")
	return nil, 0
}

// sharesArray reports whether two generations' statement columns start at the
// same address, i.e. the later one was extended in place.
func sharesArray(a, b *Compiled) bool { return &a.stSource[0] == &b.stSource[0] }

// TestExtractAppendForkOwnsItsTail is the fork rule: A→B chained in place,
// then a second Append on A (index already taken) with a different batch, and
// one more on the fork. Every generation equals its recompile, the fork copied
// instead of writing the chain's tail, and nothing that existed before an
// Append changed a bit because of it.
func TestExtractAppendForkOwnsItsTail(t *testing.T) {
	xs := appendStream(6000)
	a, n := chainWithTail(t, xs, 2000)
	b := a.Append(xs[n : n+100])
	if !sharesArray(a, b) {
		t.Fatal("a chained append with spare capacity reallocated the statement column")
	}
	aDigest, bDigest := snapshotDigest(t, a), snapshotDigest(t, b)

	forkBatch := goldenStream(300) // other sources, extractors and triples than B's batch
	b2 := a.Append(forkBatch)
	if sharesArray(a, b2) {
		t.Fatal("a forked append extended the chain's statement column in place")
	}
	c2 := b2.Append(xs[5000:5100])
	if !sharesArray(b2, c2) {
		t.Fatal("the fork did not keep its own tail")
	}
	c := b.Append(xs[n+100 : n+200]) // the chain goes on, beside the fork

	for _, tc := range []struct {
		name  string
		got   *Compiled
		input []Extraction
	}{
		{"A", a, xs[:n]},
		{"B", b, xs[:n+100]},
		{"B'", b2, slices.Concat(xs[:n], forkBatch)},
		{"C'", c2, slices.Concat(xs[:n], forkBatch, xs[5000:5100])},
		{"C", c, xs[:n+200]},
	} {
		appendGraphsEqual(t, tc.name, tc.got, Compile(tc.input, false))
	}
	if snapshotDigest(t, a) != aDigest || snapshotDigest(t, b) != bDigest {
		t.Fatal("a later Append changed an existing generation")
	}
}

// TestExtractColumnsAreClipped pins what keeps the shared tail unreachable:
// every append-only column of every generation — chained, forked,
// empty-append, fresh compile, decoded snapshot — has cap == len, and so have
// the accessors that hand a column out.
func TestExtractColumnsAreClipped(t *testing.T) {
	xs := appendStream(6000)
	a, n := chainWithTail(t, xs, 2000)
	b := a.Append(xs[n : n+100])
	var buf bytes.Buffer
	if err := b.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Compiled{
		"compile":      Compile(xs[:100], false),
		"chained":      a,
		"in-place":     b,
		"empty-append": b.Append(nil),
		"fork":         a.Append(xs[5000:5100]),
		"decoded":      decoded,
		"decoded+1":    decoded.Append(xs[n+100 : n+200]),
	} {
		cols := reflect.ValueOf(g.columns)
		for i := 0; i < cols.NumField(); i++ {
			if col := cols.Field(i); col.Cap() != col.Len() {
				t.Errorf("%s: column %s has len %d cap %d", name, cols.Type().Field(i).Name, col.Len(), col.Cap())
			}
		}
		if got := g.SourceKeys(); cap(got) != len(got) {
			t.Errorf("%s: SourceKeys() has len %d cap %d", name, len(got), cap(got))
		}
		if got := g.ExtractorNames(); cap(got) != len(got) {
			t.Errorf("%s: ExtractorNames() has len %d cap %d", name, len(got), cap(got))
		}
	}
}

// TestExtractReadWhileChainAppends runs under -race: generations i-1 and i are
// dumped (dumpGraph, a read of every array) on their own goroutines while the
// chain appends the next ones into the shared tails.
func TestExtractReadWhileChainAppends(t *testing.T) {
	const base, batch, steps, ahead = 1500, 60, 6, 3
	xs := appendStream(base + batch*(steps+ahead+1))
	gens := []*Compiled{Compile(xs[:base], true)}
	grow := func() {
		n := base + batch*(len(gens)-1)
		gens = append(gens, gens[len(gens)-1].Append(xs[n:n+batch]))
	}
	grow()
	for i := 1; i <= steps; i++ {
		var got [2][]byte
		var wg sync.WaitGroup
		for k, g := range []*Compiled{gens[i-1], gens[i]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = dumpGraph(t, g)
			}()
		}
		for len(gens) <= i+ahead {
			grow()
		}
		wg.Wait()
		for k := range got {
			fresh := Compile(xs[:base+batch*(i-1+k)], true)
			fresh.gen = i - 1 + k
			if !bytes.Equal(got[k], dumpGraph(t, fresh)) {
				t.Fatalf("generation %d read beside appends differs from its recompile", i-1+k)
			}
		}
	}
}
