package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
)

// viewFeed is a random stream over a subject space that widens with the
// record index: every batch adds rows to items and subjects older layers
// already index, and brings new ones.
func viewFeed(rng *rand.Rand, n int) []extract.Extraction {
	xs := make([]extract.Extraction, n)
	for i := range xs {
		site := fmt.Sprintf("site%d", rng.Intn(5))
		xs[i] = extract.Extraction{
			Triple: kb.Triple{
				Subject:   kb.EntityID(fmt.Sprintf("s%d", rng.Intn(8+i/6))),
				Predicate: kb.PredicateID(fmt.Sprintf("/p/%d", rng.Intn(3))),
				Object:    kb.StringObject(fmt.Sprintf("v%d", rng.Intn(4))),
			},
			Extractor:  fmt.Sprintf("E%d", rng.Intn(4)),
			Pattern:    fmt.Sprintf("pat%d", rng.Intn(2)),
			URL:        fmt.Sprintf("http://%s/page%d", site, rng.Intn(6)),
			Site:       site,
			Confidence: -1,
		}
	}
	return xs
}

// oracleView is the whole-generation index the layered one replaced, kept
// here as the reference: both maps rebuilt from every row of the result.
type oracleView struct {
	generation int
	rows       []fusion.FusedTriple
	byItem     map[kb.DataItem][]int32
	bySubject  map[kb.EntityID][]int32
}

func rebuild(generation int, rows []fusion.FusedTriple) *oracleView {
	o := &oracleView{generation: generation, rows: rows, byItem: map[kb.DataItem][]int32{}, bySubject: map[kb.EntityID][]int32{}}
	for i, t := range rows {
		item := t.Triple.Item()
		o.byItem[item] = append(o.byItem[item], int32(i))
		o.bySubject[item.Subject] = append(o.bySubject[item.Subject], int32(i))
	}
	return o
}

func (o *oracleView) item(subject, predicate string) (*httpapi.ItemResponse, bool) {
	idxs, ok := o.byItem[kb.DataItem{Subject: kb.EntityID(subject), Predicate: kb.PredicateID(predicate)}]
	if !ok {
		return nil, false
	}
	resp := &httpapi.ItemResponse{Subject: subject, Predicate: predicate, Generation: o.generation}
	for _, i := range idxs {
		resp.Triples = append(resp.Triples, httpapi.FromFused(o.rows[i]))
	}
	return resp, true
}

func (o *oracleView) triplesQuery(subject, predicate string, minProb float64, limit int) *httpapi.TriplesResponse {
	resp := &httpapi.TriplesResponse{Generation: o.generation}
	idxs := o.bySubject[kb.EntityID(subject)]
	if subject == "" { // the whole generation
		idxs = make([]int32, len(o.rows))
		for i := range idxs {
			idxs[i] = int32(i)
		}
	}
	for _, i := range idxs {
		t := o.rows[i]
		if predicate != "" && string(t.Triple.Predicate) != predicate || !(t.Probability >= minProb) {
			continue
		}
		resp.Total++
		if len(resp.Triples) < limit {
			resp.Triples = append(resp.Triples, httpapi.FromFused(t))
		}
	}
	return resp
}

// viewRows materialises the exchange form of v's posterior: the rows the
// view, which holds none, must answer as if it indexed.
func viewRows(v *genView) []fusion.FusedTriple {
	if v.post == nil {
		return nil
	}
	return v.post.Result().Triples
}

// requireViewMatchesRebuild compares v with a full rebuild of its rows:
// every item, every subject — plain, and under predicate, min_prob and limit
// filters — and keys the generation does not hold. The whole-generation scan
// (no subject) is compared under the same filters.
func requireViewMatchesRebuild(t *testing.T, tag string, v *genView) {
	t.Helper()
	o := rebuild(v.generation, viewRows(v))
	for item := range o.byItem {
		want, _ := o.item(string(item.Subject), string(item.Predicate))
		got, ok := v.item(string(item.Subject), string(item.Predicate))
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: item %v: layered view answers %+v, a full rebuild %+v", tag, item, got, want)
		}
	}
	subjects := []kb.EntityID{""}
	for subject := range o.bySubject {
		subjects = append(subjects, subject)
	}
	for _, subject := range subjects {
		for _, q := range []struct {
			predicate string
			minProb   float64
			limit     int
		}{
			{"", -1, math.MaxInt},
			{"/p/1", -1, math.MaxInt},
			{"", 0.5, math.MaxInt},
			{"/p/2", 0.2, 2},
			{"", -1, 1},
			{"", -1, 0},
		} {
			want := o.triplesQuery(string(subject), q.predicate, q.minProb, q.limit)
			got := v.triplesQuery(string(subject), q.predicate, q.minProb, q.limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: subject %s %+v: layered view answers %+v, a full rebuild %+v", tag, subject, q, got, want)
			}
		}
	}
	if _, ok := v.item("s0", "/p/none"); ok {
		t.Fatalf("%s: an unknown predicate resolved", tag)
	}
	if _, ok := v.item("nobody", "/p/0"); ok {
		t.Fatalf("%s: an unknown subject resolved", tag)
	}
	if resp := v.triplesQuery("nobody", "", -1, 10); resp.Total != 0 || resp.Triples != nil {
		t.Fatalf("%s: an unknown subject matched %d rows", tag, resp.Total)
	}
}

// requireLayerShape checks the layer list's invariants: contiguous ascending
// ranges covering every row, each layer more than twice the one after it,
// and therefore at most ceil(log2 n)+1 of them.
func requireLayerShape(t *testing.T, tag string, v *genView) {
	t.Helper()
	n, at := v.len(), 0
	for i, l := range v.layers {
		if l.lo != at || l.hi <= l.lo {
			t.Fatalf("%s: layer %d covers [%d,%d), want a non-empty range starting at %d", tag, i, l.lo, l.hi, at)
		}
		if i > 0 {
			if older := v.layers[i-1]; 2*(l.hi-l.lo) >= older.hi-older.lo {
				t.Fatalf("%s: layer %d (%d rows) is at least half of layer %d (%d rows)", tag, i, l.hi-l.lo, i-1, older.hi-older.lo)
			}
		}
		at = l.hi
	}
	if at != n {
		t.Fatalf("%s: layers cover %d of %d rows", tag, at, n)
	}
	if n > 0 && len(v.layers) > int(math.Ceil(math.Log2(float64(n))))+1 {
		t.Fatalf("%s: %d layers over %d rows", tag, len(v.layers), n)
	}
}

// reindexed counts the positions next indexed afresh: the rows of every
// layer it does not share with prev.
func reindexed(prev, next *genView) int {
	n := 0
	for _, l := range next.layers {
		shared := false
		for _, p := range prev.layers {
			shared = shared || p == l
		}
		if !shared {
			n += l.hi - l.lo
		}
	}
	return n
}

// TestLayeredViewMatchesRebuild is the view's property test: through random
// append chains under both engines, after every append, the published view
// answers every query exactly as an index rebuilt from the whole result
// would, keeps the logarithmic layer shape, and — reopened from its state
// directory — collapses to the single layer Hydrate builds, answering the
// same.
func TestLayeredViewMatchesRebuild(t *testing.T) {
	for _, method := range []string{"popaccu", "twolayer"} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mem := faultfs.NewMem()
			s, _ := newTestServer(t, func(c *Config) { c.FS = mem; c.Method = method; c.SnapshotEvery = 7; c.Logf = nil })
			feed := viewFeed(rng, 3000)
			shared := 0
			for off, step := 0, 0; off < len(feed); step++ {
				end := min(off+1+rng.Intn(160), len(feed))
				prev := s.current.Load()
				if _, err := s.Append(feed[off:end]); err != nil {
					t.Fatal(err)
				}
				off = end
				v := s.current.Load()
				tag := fmt.Sprintf("%s seed %d step %d", method, seed, step)
				requireLayerShape(t, tag, v)
				requireViewMatchesRebuild(t, tag, v)
				if len(v.layers) > 1 && v.layers[0] == prev.layers[0] {
					shared++
				}
			}
			if shared == 0 {
				t.Fatalf("%s seed %d: scenario broken: no append shared a layer with the view before it", method, seed)
			}
			live := s.current.Load()
			re, _ := newTestServer(t, func(c *Config) { c.FS = mem.Clone(); c.Method = method; c.Logf = nil })
			v := re.current.Load()
			if len(v.layers) != 1 || !reflect.DeepEqual(viewRows(v), viewRows(live)) {
				t.Fatalf("%s seed %d: hydrated view has %d layers over %d rows, live has %d rows",
					method, seed, len(v.layers), v.len(), live.len())
			}
			requireViewMatchesRebuild(t, method+" hydrated", v)
		}
	}
}

// TestLayeredViewIndexWorkIsLogarithmic bounds the index work of a long
// chain: over 200 appends growing the result to n rows, the positions
// indexed — new rows plus every merge's re-indexed range — stay within
// n·(log2 n + 1), where rebuilding per append costs about 200·n/2.
func TestLayeredViewIndexWorkIsLogarithmic(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.SnapshotEvery = -1; c.Logf = nil })
	feed := viewFeed(rand.New(rand.NewSource(4)), 200*40)
	work, maxLayers := 0, 0
	for off := 0; off < len(feed); off += 40 {
		prev := s.current.Load()
		if _, err := s.Append(feed[off : off+40]); err != nil {
			t.Fatal(err)
		}
		v := s.current.Load()
		requireLayerShape(t, fmt.Sprintf("append at %d", off), v)
		work += reindexed(prev, v)
		maxLayers = max(maxLayers, len(v.layers))
	}
	v := s.current.Load()
	n := float64(v.len())
	if bound := n * (math.Log2(n) + 1); float64(work) > bound {
		t.Fatalf("indexed %d positions over 200 appends to %v rows, bound %.0f", work, n, bound)
	}
	if maxLayers < 3 {
		t.Fatalf("scenario broken: the chain never held more than %d layers", maxLayers)
	}
	requireViewMatchesRebuild(t, "after 200 appends", v)
	t.Logf("%v rows, %d positions indexed (%.1f per row), at most %d layers", n, work, float64(work)/n, maxLayers)
}

// TestReadersHoldOldViewsAcrossAppends is the sharing contract under the
// race detector, for both chains: readers keep views of old generations —
// whose layers the newer views share by pointer, and whose rows are assembled
// per request from a graph generation whose columns the chain goes on
// extending past their clipped ends — and query them while 50 appends publish
// behind them. A held view must keep answering exactly what it answered when
// it was loaded, and nothing it can reach may be written once published.
func TestReadersHoldOldViewsAcrossAppends(t *testing.T) {
	for _, method := range []string{"popaccu", "twolayer"} {
		t.Run(method, func(t *testing.T) { readersHoldOldViews(t, method) })
	}
}

func readersHoldOldViews(t *testing.T, method string) {
	s, _ := newTestServer(t, func(c *Config) { c.Method = method; c.SnapshotEvery = -1; c.Logf = nil })
	feed := viewFeed(rand.New(rand.NewSource(6)), 51*60)
	if _, err := s.Append(feed[:60]); err != nil {
		t.Fatal(err)
	}
	answers := func(v *genView) []any {
		var out []any
		for i := 0; i < 12; i++ {
			subject := fmt.Sprintf("s%d", i)
			out = append(out, v.triplesQuery(subject, "", -1, 50))
			for p := 0; p < 3; p++ {
				resp, _ := v.item(subject, fmt.Sprintf("/p/%d", p))
				out = append(out, resp)
			}
		}
		return out
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct {
				v    *genView
				want []any
			}
			var views []held
			for {
				select {
				case <-done:
					return
				default:
				}
				if v := s.current.Load(); len(views) == 0 || views[len(views)-1].v != v {
					views = append(views, held{v, answers(v)})
				}
				for _, h := range views {
					if got := answers(h.v); !reflect.DeepEqual(got, h.want) {
						t.Errorf("generation %d answers differently after later appends", h.v.generation)
						return
					}
				}
			}
		}()
	}
	for off := 60; off < len(feed); off += 60 {
		if _, err := s.Append(feed[off : off+60]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if got := s.current.Load().generation; got != 51 {
		t.Fatalf("published generation %d after 51 appends", got)
	}
}

// blockingFS is a state filesystem whose first snapshot Create parks until
// released, standing in for a slow disk under the periodic snapshot.
type blockingFS struct {
	faultfs.FS
	once    sync.Once
	entered chan struct{} // closed when the first snapshot Create arrives
	release chan struct{} // closed to let it through
}

func (b *blockingFS) Create(name string) (faultfs.File, error) {
	if strings.HasPrefix(name, "snap-") {
		b.once.Do(func() {
			close(b.entered)
			<-b.release
		})
	}
	return b.FS.Create(name)
}

// TestAppendPublishesBeforeSnapshot pins the append's order — journal,
// apply, publish, snapshot, reply: while the periodic snapshot of generation
// 1 is stuck in the filesystem and the append has not returned, /readyz
// already reports generation 1 and reads see its rows; the writer slot stays
// taken until the snapshot is through.
func TestAppendPublishesBeforeSnapshot(t *testing.T) {
	fs := &blockingFS{FS: faultfs.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	s, ts := newTestServer(t, func(c *Config) { c.FS = fs; c.SnapshotEvery = 1 })
	feed := viewFeed(rand.New(rand.NewSource(8)), 200)

	type reply struct {
		resp *httpapi.AppendResponse
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := s.Append(feed[:100])
		replied <- reply{resp, err}
	}()
	<-fs.entered // the append is inside its snapshot

	resp, err := http.Get(ts.URL + httpapi.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	var ready httpapi.ReadyResponse
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || !ready.Ready || ready.Generation != 1 {
		t.Fatalf("readyz during the snapshot: %+v (%v), want generation 1", ready, err)
	}
	if st := s.Status(); st.Generation != 1 || st.Consumed != 100 || st.Triples == 0 {
		t.Fatalf("status during the snapshot: %+v, want generation 1 with its rows", st)
	}
	select {
	case r := <-replied:
		t.Fatalf("the append replied (%+v, %v) before its snapshot finished", r.resp, r.err)
	default:
	}
	if _, err := s.Append(feed[100:]); !errors.Is(err, httpapi.ErrBusy) {
		t.Fatalf("a second append during the snapshot: err = %v, want ErrBusy", err)
	}

	close(fs.release)
	if r := <-replied; r.err != nil || r.resp.Generation != 1 || r.resp.Added != 100 {
		t.Fatalf("append replied (%+v, %v), want generation 1 with 100 records", r.resp, r.err)
	}
}
