package server

import (
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
)

// genView is one published generation: the fused posterior plus read
// indexes, fully immutable after construction. The server swaps views with a
// single atomic pointer store, so readers never take a lock and never
// observe a generation mid-build — a request resolves entirely against the
// view it loaded, even while the next append is compiling.
//
// A view does not hold rows. It holds the generation's posterior in the
// engine's own form — one probability per compiled triple over the compiled
// graph (fusion.Posterior) — and assembles a row when a response needs it
// (row): the triple and the support counts come from the graph generation,
// the probability from the column. Index slices hold row positions, which
// are compiled triple IDs — the fusion engine's deterministic output order,
// and the order every response lists triples in.
//
// The index is layered. Along one append chain a triple keeps its position
// (compiled triple-ID order in both engines; the next generation only adds
// positions at the end), so an index over positions [lo,hi) built for one
// generation is valid for every later one. A view holds a short list of
// such layers, contiguous and ascending, and shares all but the newest with
// the view before it: see grow.
type genView struct {
	generation int
	consumed   int
	post       *fusion.Posterior // nil for an empty generation
	layers     []*indexLayer
}

// indexLayer indexes the row positions [lo,hi) by data item and by subject,
// each list ascending. Never written after indexRange returns it, which is
// what lets any number of views — and the readers still holding them — share
// one layer.
type indexLayer struct {
	lo, hi    int
	byItem    map[kb.DataItem][]int32
	bySubject map[kb.EntityID][]int32
}

// indexRange indexes rows [lo,hi) of post; the keys come straight from the
// graph's triple column.
func indexRange(post *fusion.Posterior, lo, hi int) *indexLayer {
	l := &indexLayer{
		lo:        lo,
		hi:        hi,
		byItem:    map[kb.DataItem][]int32{},
		bySubject: map[kb.EntityID][]int32{},
	}
	for i := lo; i < hi; i++ {
		item := post.Triple(i).Item()
		l.byItem[item] = append(l.byItem[item], int32(i))
		l.bySubject[item.Subject] = append(l.bySubject[item.Subject], int32(i))
	}
	return l
}

// newGenView indexes a recovered state for serving, as one layer. A state
// with nothing fused yet (empty store) yields an empty, ready view.
func newGenView(st *genstore.State) *genView {
	return (&genView{}).grow(st)
}

// grow returns the view of st, the state one append after v's: it indexes
// only the triples the append added and shares v's layers by pointer. To
// keep lookups short it is the logarithmic method — the last two layers
// merge (their joint range re-indexed from the new generation) while the
// newer is at least half the older — so every layer ends up more than twice
// the one after it: at most log2(n)+1 layers over n triples, and a triple is
// re-indexed only when the layer holding it grows by half. The cascade's
// end is found first and its range indexed once. v is not modified.
func (v *genView) grow(st *genstore.State) *genView {
	next := &genView{generation: st.Batches, consumed: st.Consumed, post: st.Posterior}
	n, lo, keep := next.len(), v.len(), len(v.layers)
	if n == lo {
		next.layers = v.layers
		return next
	}
	for keep > 0 && 2*(n-lo) >= v.layers[keep-1].hi-v.layers[keep-1].lo {
		keep--
		lo = v.layers[keep].lo
	}
	next.layers = append(v.layers[:keep:keep], indexRange(next.post, lo, n))
	return next
}

// len reports the view's row count, 0 for an empty generation.
func (v *genView) len() int {
	if v.post == nil {
		return 0
	}
	return v.post.Len()
}

// row assembles the wire form of row i: the view's one row source.
func (v *genView) row(i int) httpapi.FusedTriple {
	return httpapi.FromFused(v.post.Row(i))
}

// item resolves one data item to its wire response, false if the view holds
// no fused value for it. Layers are visited oldest first, so the rows come
// out in ascending position, as from one whole-generation index.
func (v *genView) item(subject, predicate string) (*httpapi.ItemResponse, bool) {
	key := kb.DataItem{Subject: kb.EntityID(subject), Predicate: kb.PredicateID(predicate)}
	var rows []httpapi.FusedTriple
	for _, l := range v.layers {
		for _, i := range l.byItem[key] {
			rows = append(rows, v.row(int(i)))
		}
	}
	if rows == nil {
		return nil, false
	}
	return &httpapi.ItemResponse{
		Subject:    subject,
		Predicate:  predicate,
		Generation: v.generation,
		Triples:    rows,
	}, true
}

// triplesQuery filters the view's fused rows. An empty subject scans the
// whole generation; a subject narrows through the bySubject indexes first.
// A row is matched on the probability column and the triple column alone and
// assembled only if it is returned: Total counts every match; at most limit
// rows are returned.
func (v *genView) triplesQuery(subject, predicate string, minProb float64, limit int) *httpapi.TriplesResponse {
	resp := &httpapi.TriplesResponse{Generation: v.generation}
	visit := func(i int) {
		if !(v.post.Prob(i) >= minProb) {
			return
		}
		if predicate != "" && string(v.post.Triple(i).Predicate) != predicate {
			return
		}
		resp.Total++
		if len(resp.Triples) < limit {
			resp.Triples = append(resp.Triples, v.row(i))
		}
	}
	if subject != "" {
		for _, l := range v.layers {
			for _, i := range l.bySubject[kb.EntityID(subject)] {
				visit(int(i))
			}
		}
		return resp
	}
	for i, n := 0, v.len(); i < n; i++ {
		visit(i)
	}
	return resp
}
