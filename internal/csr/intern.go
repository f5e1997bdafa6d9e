package csr

// Parallel ordered key merging for the claim graph's shard-and-merge
// interning pass.
//
// Every compiled graph interns its key spaces (provenances, extractors,
// sources, triples, statements) in first-occurrence order of the input
// stream. The claim graph's parallel interning pass shards the stream,
// interns each shard locally, and then merges the shard-local key lists into
// the global ID space; the extraction graph interns in its sequential loop
// at every worker count.
//
// MergeKeys runs that merge as an ordered pairwise tree: adjacent shard
// pairs are merged concurrently, halving the shard count per round until one
// list remains. Merging two ordered key lists is dedup-preserving
// concatenation — the left list's keys keep their order, the right list
// contributes its unseen keys in order — which is associative, so the
// pairwise tree produces exactly the sequential fold's global order: every
// key lands at its overall first occurrence. The result is therefore
// independent of the worker count, like every other parallel pass here.
//
// What the pass costs decides when it is taken (ShardIntern): the shards
// intern every distinct key once each, and the merge then hashes every one of
// them again into a generic map per shard, probes or inserts it once per tree
// level, and its caller hashes the merged list into the global table and looks
// every shard key up once more for the local→global remap — four or more
// hashings of each distinct key, the last tree level and the global table on
// one goroutine, to divide one hashing per record among the workers.

// ShardInternMinWorkers is the smallest worker count at which a from-empty
// claim-graph interning pass is sharded. Measured on 2 shared vCPUs (`go test
// -bench 'CompileClaimGraph' -benchtime 20x`): the claim graph (150k
// ScaleLarge claims) compiles in 93–101 ms with the sequential loop, which
// interns on open-addressed tables (InternTable, PairTable), and in 149–193
// ms (122 MB against 32 MB allocated) with the pass at two workers. The
// merge's extra hashing into generic maps is more than half an interning
// loop, so a second worker cannot repay it on any host until the merge runs
// over the shards' own tables. At four cores CI's scaling-check holds the
// claim-graph compile, pass included, at >= 1.5x the one-core cell. Three has
// been measured on no host and stays with the loop.
const ShardInternMinWorkers = 4

// ShardIntern is the claim graph's one selection rule for its shard-and-merge
// interning pass (fusion's internClaimsParallel): a batch of n claims interned
// onto an empty generation with `workers` goroutines allowed takes the pass
// when the batch reaches ParallelThreshold and workers reaches
// ShardInternMinWorkers. Both interning paths build the same graph, so the
// rule decides speed only.
func ShardIntern(n, workers int) bool {
	return n >= ParallelThreshold && workers >= ShardInternMinWorkers
}

// keyList is one merge node: an ordered key list with its index (key ->
// position). The index always covers exactly the keys in the list.
type keyList[K comparable] struct {
	keys []K
	idx  map[K]int32
}

// MergeKeys merges shard-local key lists (each in shard-local
// first-occurrence order, shards in stream order) into the global
// first-occurrence key order, returning the merged list and its key -> ID
// index. The merge runs as a pairwise tree with adjacent pairs merged in
// parallel; the result is identical to a sequential left-to-right fold.
// The input lists are only read. Every key of every shard is hashed into a
// generic map here and probed once per tree level — the cost
// ShardInternMinWorkers accounts for; a merge over the shards' own intern
// tables and stored hashes would not pay it (ROADMAP item 4(d)).
func MergeKeys[K comparable](shards [][]K, workers int) (keys []K, idx map[K]int32) {
	if len(shards) == 0 {
		return nil, map[K]int32{}
	}
	nodes := make([]keyList[K], len(shards))
	ParallelRange(len(shards), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Clip capacity so mergePair's append never writes into the
			// caller's backing array.
			n := keyList[K]{keys: shards[i][:len(shards[i]):len(shards[i])], idx: make(map[K]int32, len(shards[i]))}
			for j, k := range shards[i] {
				n.idx[k] = int32(j)
			}
			nodes[i] = n
		}
	})
	for len(nodes) > 1 {
		nPairs := len(nodes) / 2
		merged := make([]keyList[K], (len(nodes)+1)/2)
		ParallelRange(nPairs, workers, func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				merged[p] = mergePair(nodes[2*p], nodes[2*p+1])
			}
		})
		if len(nodes)%2 == 1 {
			merged[len(merged)-1] = nodes[len(nodes)-1]
		}
		nodes = merged
	}
	return nodes[0].keys, nodes[0].idx
}

// mergePair merges two ordered key lists: a's keys keep their IDs, b's
// unseen keys append in b order. a's list and index are extended in place —
// safe because every merge node is consumed exactly once — so the left
// spine's map is reused instead of rebuilt at every level.
func mergePair[K comparable](a, b keyList[K]) keyList[K] {
	for _, k := range b.keys {
		if _, ok := a.idx[k]; !ok {
			a.idx[k] = int32(len(a.keys))
			a.keys = append(a.keys, k)
		}
	}
	return a
}
