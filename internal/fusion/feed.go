package fusion

import (
	"fmt"
	"slices"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
)

// CompileExtractions flattens an extraction feed into claims under gran and
// compiles them in one pass: the graph of Compile(Claims(xs, gran)), bit for
// bit, with each record's provenance key and triple hashed once, into the
// graph's own tables. The records intern sequentially; workers bounds the
// assemble tail as in CompileWorkers.
func CompileExtractions(xs []extract.Extraction, gran Granularity, workers int) *Compiled {
	c := &Compiled{idx: &claimIndex{}}
	c.g = extendFeed(&graph{}, c.idx, xs, gran, workers)
	return c
}

// AppendExtractions is Append for an extraction feed: it flattens the batch
// under gran, drops every (provenance, triple) pair the graph already holds
// (from earlier batches or earlier in this one), and appends the rest. So a
// chain grown batch by batch equals CompileExtractions over the concatenated
// feed, and the generation's claims past the receiver's are exactly the
// claims the batch adds.
//
// The pair set lives in the interning index. The first extraction append onto
// an index builds it from the graph's claims (compiled or appended from
// claims, or decoded from a snapshot, alike) and records gran; a later
// extraction append under another granularity onto that index is an error.
// The check only holds for an index that already holds a pair set: a decoded
// graph, a claim-appended generation or a fork (whose index is rebuilt)
// accepts any granularity, so callers keep theirs fixed, as genstore.Chain
// and shard.Fusion do. Otherwise it behaves as Append.
func (c *Compiled) AppendExtractions(xs []extract.Extraction, gran Granularity) (*Compiled, error) {
	c.mu.Lock()
	idx := c.idx
	if idx != nil && idx.pairs != nil && idx.feedGran != gran {
		c.mu.Unlock()
		return nil, fmt.Errorf("fusion: appending extractions under %v onto a feed flattened under %v", gran, idx.feedGran)
	}
	c.idx = nil
	c.mu.Unlock()
	if len(xs) == 0 {
		return &Compiled{g: c.g, gen: c.gen + 1, idx: idx}, nil
	}
	if idx == nil {
		idx = rebuildIndex(c.g)
	}
	return &Compiled{g: extendFeed(c.g, idx, xs, gran, 0), gen: c.gen + 1, idx: idx}, nil
}

// extendFeed is extend for an extraction batch. A batch that adds no claim
// onto a non-empty generation returns old itself: no provenance, triple or
// extractor is new either, since each belongs to a pair the graph holds.
func extendFeed(old *graph, idx *claimIndex, xs []extract.Extraction, gran Granularity, workers int) *graph {
	nOld := len(old.claims)
	g := successor(old, idx)
	if nOld == 0 {
		idx.presize(g, len(xs))
		g.claims = make([]Claim, 0, len(xs))
	}
	idx.feedPairs(g, gran, len(xs))
	internExtractions(g, idx, xs)
	if nOld > 0 && len(g.claims) == nOld {
		return old
	}
	return extendTail(old, g, idx, workers)
}

// feedPairs builds the index's pair set from g's claims, sized for extra more,
// unless the index has one. It is the one place the feed granularity is set.
func (idx *claimIndex) feedPairs(g *graph, gran Granularity, extra int) {
	if idx.pairs != nil {
		return
	}
	pairs := csr.NewPairSet(len(g.provOfClaim) + extra)
	for i, p := range g.provOfClaim {
		pairs.Add(p, g.tripleOfClaim[i])
	}
	idx.pairs, idx.feedGran = &pairs, gran
}

// internExtractions is the interning loop of an extraction batch: it
// flattens xs into claims under the index's feed granularity as it interns
// them. Each record interns its provenance key and its triple; a record whose
// (provenance, triple) pair idx.pairs holds adds nothing, and every other one
// appends its claim and the claim's IDs to g's columns. Every ID space is
// therefore assigned in the first-occurrence order of the claims, as
// internClaims over them would assign it.
//
// A feed lists a page's extractions together, so most records share their
// provenance with the one before: while gran.sameKey holds, a record reuses
// that ID instead of building and hashing an equal key. Every claim of one
// provenance carries the interned key string.
func internExtractions(g *graph, idx *claimIndex, xs []extract.Extraction) {
	gran := idx.feedGran
	first := len(g.claims)
	var last *extract.Extraction
	var pid, xid int32
	for i := range xs {
		x := &xs[i]
		if last == nil || !gran.sameKey(x, last) {
			last, pid = x, intern(&idx.prov, &g.provKeys, gran.Key(*x))
		}
		tid := idx.tripleID(g, &x.Triple)
		if !idx.pairs.Add(pid, tid) {
			continue
		}
		if n := len(g.claims); n == first || x.Extractor != g.claims[n-1].Extractor {
			xid = intern(&idx.ext, &idx.extKeys, x.Extractor)
		}
		g.claims = append(g.claims, Claim{Triple: x.Triple, Prov: g.provKeys[pid], Conf: x.Confidence, Extractor: x.Extractor})
		g.provOfClaim = append(g.provOfClaim, pid)
		g.tripleOfClaim = append(g.tripleOfClaim, tid)
		idx.extOfClaim = append(idx.extOfClaim, xid)
	}
}

// ClaimStream is AppendExtractions without the graph: Add runs the same loop
// over the stream's own tables and returns the claims a batch adds, for a
// caller that compiles them itself (and so hashes every key twice):
//
//	s := fusion.NewClaimStream(gran)
//	g := fusion.MustCompile(s.Add(batch0))
//	g = g.MustAppend(s.Add(batch1)) // == CompileExtractions(batch0+batch1, gran, 0)
//
// A ClaimStream is single-writer state: Add calls must not race.
//
// Deprecated: use CompileExtractions and AppendExtractions. No library path
// calls ClaimStream, NewClaimStream or SeedClaimStream; they remain while
// the end-to-end harness under benchmark/ still times them.
type ClaimStream struct {
	g   graph
	idx claimIndex
}

// NewClaimStream returns an empty stream flattening under gran.
func NewClaimStream(gran Granularity) *ClaimStream { return newClaimStream(gran, 1024) }

// newClaimStream sizes the stream for a feed of about sizeHint records.
func newClaimStream(gran Granularity, sizeHint int) *ClaimStream {
	s := &ClaimStream{}
	s.idx.presize(&s.g, sizeHint)
	s.idx.feedPairs(&s.g, gran, sizeHint)
	return s
}

// SeedClaimStream continues the stream a restored generation was compiled
// from: it takes over the graph's provenance and triple ID spaces (sharing
// the cap-clipped key columns) and its claims' pairs.
func SeedClaimStream(gran Granularity, c *Compiled) *ClaimStream {
	s := &ClaimStream{}
	s.idx.presize(&s.g, 0)
	s.g.provKeys, s.g.triples = slices.Clip(c.g.provKeys), slices.Clip(c.g.triples)
	s.idx.prov = csr.BuildInternTable(s.g.provKeys, nil)
	s.idx.tri = csr.BuildInternTable(s.g.triples, csr.HashTriple)
	s.idx.feedPairs(c.g, gran, 0)
	return s
}

// Add flattens one appended extraction batch and returns only the claims new
// to the stream, in batch order.
func (s *ClaimStream) Add(xs []extract.Extraction) []Claim {
	s.g.claims = make([]Claim, 0, len(xs))
	internExtractions(&s.g, &s.idx, xs)
	// The stream keeps its ID spaces and pair set, not the claims.
	s.g.provOfClaim, s.g.tripleOfClaim, s.idx.extOfClaim = s.g.provOfClaim[:0], s.g.tripleOfClaim[:0], s.idx.extOfClaim[:0]
	return s.g.claims
}
