package fusion

import "unsafe"

// ApproxBytes estimates the resident heap size of the compiled claim graph:
// every ID and CSR column at element size and the interned key tables with
// their string payloads. It is an accounting walk, not a runtime
// measurement — deterministic, allocation-free, and cheap enough to
// sample per shard — and it deliberately ignores allocator rounding and the
// Append index byproduct, including the spare capacity a live append chain
// holds on its shared columns (lengths are counted, not capacities), so treat
// it as a lower-bound working-set figure.
// The sharded benchmarks use it to record how corpus memory divides across
// shards (max shard bytes vs the unsharded total).
func (c *Compiled) ApproxBytes() int {
	g := c.g
	n := 0
	for i := range g.items {
		n += int(unsafe.Sizeof(g.items[i])) + len(g.items[i].Subject) + len(g.items[i].Predicate)
	}
	for i := range g.triples {
		t := &g.triples[i]
		n += int(unsafe.Sizeof(*t)) + len(t.Subject) + len(t.Predicate) + len(t.Object.Str)
	}
	for _, keys := range [][]string{g.provKeys, g.extKeys} {
		for _, k := range keys {
			n += int(unsafe.Sizeof(k)) + len(k)
		}
	}
	for _, s := range [][]int32{
		g.itemClaimStart, g.itemClaims,
		g.itemCandStart, g.itemCands, g.itemOfTriple, g.localOfTriple,
		g.tripleOfClaim, g.localOfClaim, g.tripleClaimStart, g.tripleClaims,
		g.tripleExtractors,
		g.provOfClaim, g.provClaimStart, g.provClaims,
		g.extOfClaim,
	} {
		n += 4 * len(s)
	}
	return n
}
