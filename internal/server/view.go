package server

import (
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
)

// genView is one published generation: the fused result plus read indexes,
// fully immutable after construction. The server swaps views with a single
// atomic pointer store, so readers never take a lock and never observe a
// generation mid-build — a request resolves entirely against the view it
// loaded, even while the next append is compiling. Index slices hold
// positions into res.Triples, whose order is the fusion engine's
// deterministic output order; every response lists triples in that order.
//
// The index is layered. Along one append chain a triple keeps its position
// in Result.Triples (compiled triple-ID order in both engines; the next
// generation only adds positions at the end), so an index over positions
// [lo,hi) built for one generation is valid for every later one. A view
// holds a short list of such layers, contiguous and ascending, and shares
// all but the newest with the view before it: see grow.
type genView struct {
	generation int
	consumed   int
	res        *fusion.Result
	layers     []*indexLayer
}

// indexLayer indexes the positions [lo,hi) of Result.Triples by data item
// and by subject, each list ascending. Never written after indexRange
// returns it, which is what lets any number of views — and the readers
// still holding them — share one layer.
type indexLayer struct {
	lo, hi    int
	byItem    map[kb.DataItem][]int32
	bySubject map[kb.EntityID][]int32
}

func indexRange(triples []fusion.FusedTriple, lo, hi int) *indexLayer {
	l := &indexLayer{
		lo:        lo,
		hi:        hi,
		byItem:    map[kb.DataItem][]int32{},
		bySubject: map[kb.EntityID][]int32{},
	}
	for i := lo; i < hi; i++ {
		item := triples[i].Triple.Item()
		l.byItem[item] = append(l.byItem[item], int32(i))
		l.bySubject[item.Subject] = append(l.bySubject[item.Subject], int32(i))
	}
	return l
}

// newGenView indexes a recovered state for serving, as one layer. A state
// with no result yet (empty store) yields an empty, ready view.
func newGenView(st *genstore.State) *genView {
	return (&genView{}).grow(st)
}

// grow returns the view of st, the state one append after v's: it indexes
// only the triples the append added and shares v's layers by pointer. To
// keep lookups short it is the logarithmic method — the last two layers
// merge (their joint range re-indexed from the new result) while the newer
// is at least half the older — so every layer ends up more than twice the
// one after it: at most log2(n)+1 layers over n triples, and a triple is
// re-indexed only when the layer holding it grows by half. The cascade's
// end is found first and its range indexed once. v is not modified.
func (v *genView) grow(st *genstore.State) *genView {
	next := &genView{generation: st.Batches, consumed: st.Consumed, res: st.Result}
	triples := next.triples()
	n, lo, keep := len(triples), len(v.triples()), len(v.layers)
	if n == lo {
		next.layers = v.layers
		return next
	}
	for keep > 0 && 2*(n-lo) >= v.layers[keep-1].hi-v.layers[keep-1].lo {
		keep--
		lo = v.layers[keep].lo
	}
	next.layers = append(v.layers[:keep:keep], indexRange(triples, lo, n))
	return next
}

// triples returns the view's fused rows, nil for an empty generation.
func (v *genView) triples() []fusion.FusedTriple {
	if v.res == nil {
		return nil
	}
	return v.res.Triples
}

// item resolves one data item to its wire response, false if the view holds
// no fused value for it. Layers are visited oldest first, so the rows come
// out in ascending position, as from one whole-generation index.
func (v *genView) item(subject, predicate string) (*httpapi.ItemResponse, bool) {
	key := kb.DataItem{Subject: kb.EntityID(subject), Predicate: kb.PredicateID(predicate)}
	var rows []httpapi.FusedTriple
	for _, l := range v.layers {
		for _, i := range l.byItem[key] {
			rows = append(rows, httpapi.FromFused(v.res.Triples[i]))
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
// Total counts every match; at most limit rows are returned.
func (v *genView) triplesQuery(subject, predicate string, minProb float64, limit int) *httpapi.TriplesResponse {
	resp := &httpapi.TriplesResponse{Generation: v.generation}
	match := func(t fusion.FusedTriple) bool {
		if predicate != "" && string(t.Triple.Predicate) != predicate {
			return false
		}
		return t.Probability >= minProb
	}
	add := func(t fusion.FusedTriple) {
		resp.Total++
		if len(resp.Triples) < limit {
			resp.Triples = append(resp.Triples, httpapi.FromFused(t))
		}
	}
	if subject != "" {
		for _, l := range v.layers {
			for _, i := range l.bySubject[kb.EntityID(subject)] {
				if t := v.res.Triples[i]; match(t) {
					add(t)
				}
			}
		}
		return resp
	}
	for _, t := range v.triples() {
		if match(t) {
			add(t)
		}
	}
	return resp
}
