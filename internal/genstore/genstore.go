// Package genstore is the durability layer under the incremental fusion
// pipeline: a checksummed store for compiled graph generations plus a
// write-ahead append journal, with crash recovery. It is what lets a
// restarted kfuse -append (and the kfserved daemon) warm-boot its
// graph chain instead of recompiling the whole feed.
//
// # Contract
//
//   - Snapshot writes the full in-memory State — compiled claim/extraction
//     graph (or, for a sharded claim chain, its K graphs and K itself) as its
//     primary columns, the key tables and per-claim or per-statement columns
//     no compile can derive (a decode rebuilds the rest through the compile
//     tail), fused posterior in its native form (the round count, one
//     probability per compiled triple and one accuracy per provenance or
//     source; the rows are the graph's), warm-start accuracies, feed cursor —
//     to a versioned file (magic and version header, sections, a section
//     index, and a footer holding the index offset and the magic again),
//     every section CRC32C-checked, via an atomic temp-file + fsync + rename
//     protocol. A state whose posterior is not its graph's is refused before
//     anything is written. The two newest snapshots this binary reads are
//     retained.
//   - Append journals the raw extraction batch (length-prefixed, CRC32C)
//     and fsyncs BEFORE applying it to the in-memory state, so a crash
//     mid-apply loses nothing: the batch replays on reopen. An Append whose
//     journal write or fsync fails takes its record back out of the journal
//     before it returns, so the next batch is journaled after a clean
//     prefix; a store that cannot do that refuses every later Append and
//     Snapshot until it is reopened.
//   - Open loads the newest valid snapshot and replays journaled batches
//     through the caller's apply function — Chain.Apply, the one append
//     chain kfuse and kfserved also run live, at any shard count: a sharded
//     chain journals its batches whole, like an unsharded one. By the append
//     contract of the compiled graphs (Append == recompile of the
//     concatenated stream), the recovered state is bit-identical to the
//     uncrashed run's.
//   - Degradation is graceful and reported, never a panic: a corrupt or
//     version-skewed snapshot falls back to the previous snapshot (the
//     journal retains every batch since it), then to an empty state — full
//     recompile as the caller re-reads the feed from State.Consumed == 0. A
//     corrupt snapshot is deleted. A version-skewed one — the container's
//     version or a section codec's (wire.ErrVersion) — is left for the
//     binary that wrote it and counts neither toward the retained two nor
//     toward the journal's floor, so it never pushes out a snapshot this
//     binary reads or the journal records behind one.
package genstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strings"

	"kfusion/internal/csr"
	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
	"kfusion/internal/shard"
	"kfusion/internal/twolayer"
	"kfusion/internal/wire"
)

const (
	snapMagic    = 0x4b464753 // "KFGS"
	journalMagic = 0x4b46474a // "KFGJ"
	// snapVersion is the snapshot container's version. 2: the result
	// section holds the posterior's columns, not the exchange-form rows. 3:
	// the graph sections hold only their graphs' primary columns, and a
	// decode derives the rest through the compile tail. 4: the claim graph
	// section holds no extractor-confidence column.
	snapVersion = 4
	// journalVersion is the journal's, which a snapshot format change leaves
	// alone: a binary that cannot read an older one's snapshots still
	// replays its journal.
	journalVersion = 1

	// Section IDs of the snapshot body.
	secMeta   = 1
	secClaim  = 2
	secResult = 3 // the posterior: rounds, probabilities, accuracies
	secExt    = 4
	secTL     = 5
	secShards = 6 // a sharded claim chain's K and K graphs; absent at K = 1

	journalName = "journal.kfj"
	tmpSuffix   = ".tmp"
	snapPrefix  = "snap-"
	snapSuffix  = ".kfg"

	// snapshotsKept bounds the snapshot files on disk. Two generations give
	// the degradation path a fallback whose journal suffix is still retained.
	snapshotsKept = 2
)

var (
	// ErrCorrupt reports a snapshot or journal whose bytes fail structural or
	// checksum validation.
	ErrCorrupt = errors.New("genstore: corrupt file")
	// ErrVersion reports a file written by an incompatible format version.
	ErrVersion = errors.New("genstore: unsupported version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is everything a resumed pipeline needs: the method binding, the
// compiled generations, the warm-start payloads and the feed cursor. Fields
// not used by a method stay nil (e.g. Ext/TL for the claim-layer methods),
// and a state holds its graphs either in Claim/Ext (one graph) or in
// ClaimShards/ExtShards (K > 1), never both.
type State struct {
	// Method is the fusion method the state was built by; a store opened for
	// a different method must not hydrate from it (Chain.Check).
	Method string
	// Gran is the claim-layer provenance granularity (claim methods).
	Gran fusion.Granularity
	// SiteLevel is the extraction-graph source level (twolayer).
	SiteLevel bool

	Claim *fusion.Compiled
	Ext   *extract.Compiled
	TL    *twolayer.State

	// The coordinators of a sharded chain (Chain's shards > 1): the K
	// item-partitioned graphs and the cross-shard ID tables. Only ClaimShards
	// is persisted; a sharded two-layer state is not (its warm parameters
	// are indexed by tables a decode cannot rebuild).
	ClaimShards *shard.Fusion
	ExtShards   *shard.TwoLayer

	// The fused posterior of the graph above, in one or both of its forms.
	// Posterior is the engines' native form and what Chain.Apply leaves and
	// a snapshot stores: one probability per compiled triple and one
	// accuracy per provenance or source, over the graph (fusion.Posterior).
	// Result is the exchange form, the rows and the string-keyed accuracy
	// map: nil after Chain.Apply until Fused materialises it, and set beside
	// Posterior by the snapshot decoder. An ApplyFunc that fuses through the
	// public API may replace Result alone; Snapshot then stores Result,
	// converted back to the native form and checked against the graph
	// (fusion.PosteriorOf).
	Posterior *fusion.Posterior
	Result    *fusion.Result

	// Consumed counts feed records already folded into the state; a resumed
	// driver skips exactly this many and continues batching.
	Consumed int
	// Batches counts applied batches; it is the journal sequence number of
	// the next Append.
	Batches int
}

// shards reports how many graphs the state holds: 0 while it is empty, 1 in
// the one-graph layout, K for a sharded chain's.
func (st *State) shards() int {
	switch {
	case st.ClaimShards != nil:
		return st.ClaimShards.K()
	case st.ExtShards != nil:
		return st.ExtShards.K()
	case st.Claim != nil || st.Ext != nil:
		return 1
	}
	return 0
}

// Fused returns the state's posterior in exchange form, nil while nothing
// is fused. A state that holds only the native form is materialised on the
// first call after each Apply — O(triples + provenances), what an output
// file or a test pays and an append or a snapshot does not — and remembered.
func (st *State) Fused() *fusion.Result {
	if st.Result == nil && st.Posterior != nil {
		st.Result = st.Posterior.Result()
	}
	return st.Result
}

// ApplyFunc folds one extraction batch into the state. Live appends and
// journal replay call the same function — Chain.Apply — which is what makes
// replay bit-identical to the original appends.
type ApplyFunc func(st *State, batch []extract.Extraction) error

// Store is an open generation store. Not safe for concurrent use: the
// pipeline it backs is a single appender.
type Store struct {
	fs      faultfs.FS
	apply   ApplyFunc
	journal faultfs.File
	degrade []string
	// skewed names the snapshots Open rejected for their version: another
	// binary's, kept on disk for it and left out of retention.
	skewed map[string]bool
	// snapLen is the size of the last snapshot this store loaded or wrote:
	// what Snapshot pre-sizes the next one's buffer from.
	snapLen int
	// broken is set when a refused batch's record could not be taken back
	// out of the journal; every later Append and Snapshot returns it.
	broken error
}

// Open opens (or creates) a store in dir on the real filesystem.
func Open(dir string, apply ApplyFunc) (*Store, *State, error) {
	fsys, err := faultfs.NewOS(dir)
	if err != nil {
		return nil, nil, err
	}
	return OpenFS(fsys, apply)
}

// OpenFS opens a store over an arbitrary filesystem (fault injection enters
// here). It returns the recovered state: newest valid snapshot plus journal
// replay, degrading as documented above. The returned error is reserved for
// I/O failures of the filesystem itself; corruption never fails the open.
func OpenFS(fsys faultfs.FS, apply ApplyFunc) (*Store, *State, error) {
	s := &Store{fs: fsys, apply: apply, skewed: map[string]bool{}}
	names, err := fsys.List()
	if err != nil {
		return nil, nil, fmt.Errorf("genstore: list: %w", err)
	}

	// Leftover temp files are debris of a crashed atomic write
	// (kfio.AtomicWrite's name+".tmp").
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			_ = fsys.Remove(n)
		}
	}

	// Newest valid snapshot wins; every invalid one is a recorded fallback.
	st := &State{}
	snaps := snapNames(names, nil) // descending
	loaded := false
	for _, n := range snaps {
		data, err := fsys.ReadFile(n)
		if err != nil {
			s.note("snapshot %s unreadable (%v)", n, err)
			continue
		}
		dec, derr := decodeSnapshot(data)
		if derr != nil {
			s.note("snapshot %s rejected (%v)", n, derr)
			switch {
			case errors.Is(derr, ErrCorrupt):
				// Remove it so the retention window never counts a corpse as
				// a fallback.
				_ = fsys.Remove(n)
			case errors.Is(derr, ErrVersion):
				// Keep it for the binary that reads it, out of the window.
				s.skewed[n] = true
			}
			continue
		}
		st = dec
		s.snapLen = len(data)
		loaded = true
		break
	}
	if !loaded && len(snaps) > 0 {
		// Final degradation rung: empty state, full recompile as the journal
		// replays and the caller re-reads the feed from Consumed == 0.
		s.note("no usable snapshot; recovering from journal and feed")
	}

	if err := s.recoverJournal(st); err != nil {
		return nil, nil, err
	}
	if err := s.pruneSnapshots(); err != nil {
		return nil, nil, err
	}

	// (Re)open the journal for appending, stamping a header if new.
	if err := s.openJournal(); err != nil {
		return nil, nil, err
	}
	return s, st, nil
}

// Degradations lists the fallbacks recovery took, in order; empty for a
// clean open.
func (s *Store) Degradations() []string { return append([]string(nil), s.degrade...) }

func (s *Store) note(format string, args ...any) {
	s.degrade = append(s.degrade, fmt.Sprintf(format, args...))
}

// Append journals the batch, fsyncs, then applies it to st. The journal
// write happening first is the crash guarantee: once Append returns, the
// batch is durable; if the process dies anywhere inside, reopen either
// replays the batch (journal record complete) or never saw it (torn record)
// — both bit-identical to some prefix of the uncrashed run.
func (s *Store) Append(st *State, batch []extract.Extraction) error {
	if s.broken != nil {
		return s.broken
	}
	rec := encodeRecord(st.Batches, batch)
	if _, err := s.journal.Write(rec); err != nil {
		return s.restoreJournal(st, fmt.Errorf("genstore: journal append: %w", err))
	}
	if err := s.journal.Sync(); err != nil {
		return s.restoreJournal(st, fmt.Errorf("genstore: journal sync: %w", err))
	}
	if err := s.apply(st, batch); err != nil {
		return fmt.Errorf("genstore: apply batch %d: %w", st.Batches, err)
	}
	st.Batches++
	st.Consumed += len(batch)
	return nil
}

// Snapshot atomically persists st and rotates the journal: records already
// covered by the previous retained snapshot are dropped, so the journal
// stays bounded while the fallback snapshot keeps a complete replay suffix.
func (s *Store) Snapshot(st *State) error {
	if s.broken != nil {
		return s.broken
	}
	if st.ExtShards != nil {
		return errors.New("genstore: a sharded two-layer state is not persisted: its cross-shard tables cannot be rebuilt on decode")
	}
	// A state grows between snapshots; a quarter over the last one spares
	// the buffer its one doubling copy at the end.
	data, err := encodeSnapshot(st, s.snapLen+s.snapLen/4)
	if err != nil {
		return err
	}
	s.snapLen = len(data)
	name := snapName(st.Batches)
	if err := kfio.AtomicWrite(s.fs, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("genstore: snapshot: %w", err)
	}
	delete(s.skewed, name) // replaced by one this binary reads

	if err := s.pruneSnapshots(); err != nil {
		return err
	}
	return s.rotateJournal()
}

// Close releases the journal handle.
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// ---- snapshot file layout ----
//
//	[u32 magic "KFGS"][u8 version]
//	[sections, concatenated]
//	[index: u32 count, then per section u32 id, u64 off, u64 len, u32 crc32c]
//	[footer: u64 index offset, u32 magic]

type section struct {
	id  uint32
	off uint64
	len uint64
	crc uint32
}

// encodeSnapshot serialises st, its posterior in native form
// (storedPosterior). Every section encodes straight into the one body
// buffer, pre-sized to sizeHint bytes (the store's previous snapshot with
// room to grow; 0 when there is none), and its index entry — offset,
// length, checksum — is read back from the bytes it wrote.
func encodeSnapshot(st *State, sizeHint int) ([]byte, error) {
	post, acc, err := st.storedPosterior()
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	body.Grow(sizeHint)
	head := wire.NewWriter(&body)
	head.U32(snapMagic)
	head.U8(snapVersion)

	var secs []section
	add := func(id uint32, name string, encode func(io.Writer) error) {
		off := body.Len()
		if err := encode(&body); err != nil {
			panic(fmt.Sprintf("genstore: %s encode: %v", name, err)) // bytes.Buffer cannot fail
		}
		payload := body.Bytes()[off:]
		secs = append(secs, section{
			id:  id,
			off: uint64(off),
			len: uint64(len(payload)),
			crc: crc32.Checksum(payload, castagnoli),
		})
	}

	add(secMeta, "meta", func(w io.Writer) error {
		mw := wire.NewWriter(w)
		mw.String(st.Method)
		gran := st.Gran.Flags()
		mw.Bools(gran[:])
		mw.Bool(st.SiteLevel)
		mw.Int(st.Consumed)
		mw.Int(st.Batches)
		mw.Bool(st.Claim != nil)
		mw.Bool(post != nil)
		mw.Bool(st.Ext != nil)
		mw.Bool(st.TL != nil)
		return mw.Err()
	})
	if st.Claim != nil {
		add(secClaim, "claim graph", st.Claim.EncodeSnapshot)
	}
	if f := st.ClaimShards; f != nil {
		// K, the K graph snapshots' lengths, then the snapshots.
		add(secShards, "claim shards", func(w io.Writer) error {
			snaps := make([]bytes.Buffer, f.K())
			sw := wire.NewWriter(w)
			sw.Int(f.K())
			for s := range snaps {
				if err := f.Shard(s).EncodeSnapshot(&snaps[s]); err != nil {
					return err
				}
				sw.Int(snaps[s].Len())
			}
			for s := range snaps {
				sw.Bytes(snaps[s].Bytes())
			}
			return sw.Err()
		})
	}
	if post != nil {
		// The rounds, then two F64 columns: the probabilities graph-major,
		// and the accuracies by the state's stored key column (rowGraphs).
		add(secResult, "posterior", func(w io.Writer) error {
			pw := wire.NewWriter(w)
			pw.Int(post.Rounds)
			pw.Int(post.Len())
			for i := 0; i < post.Len(); i++ {
				pw.F64(post.Prob(i))
			}
			pw.F64s(acc)
			return pw.Err()
		})
	}
	if st.Ext != nil {
		add(secExt, "extraction graph", st.Ext.EncodeSnapshot)
	}
	if st.TL != nil {
		add(secTL, "twolayer state", func(w io.Writer) error { return twolayer.EncodeState(w, st.TL) })
	}

	indexOff := uint64(body.Len())
	iw := wire.NewWriter(&body)
	iw.U32(uint32(len(secs)))
	for _, sec := range secs {
		iw.U32(sec.id)
		iw.U64(sec.off)
		iw.U64(sec.len)
		iw.U32(sec.crc)
	}
	iw.U64(indexOff)
	iw.U32(snapMagic)
	return body.Bytes(), nil
}

// rowGraphs returns the graphs st's posterior is over, in shard order, and
// the key column a snapshot stores its accuracies by: the one graph's own
// provenance or source keys, or at K > 1 that of a provenance table extended
// shard by shard — the global ID order a coordinator rebuilt from the shards
// assigns (shard.NewFusionFromShards). The live coordinator's follows the
// append history instead, so a sharded posterior's accuracies are stored
// re-ordered (storedPosterior).
func (st *State) rowGraphs() ([]fusion.RowGraph, []string) {
	switch {
	case st.Claim != nil:
		return []fusion.RowGraph{st.Claim}, st.Claim.ProvKeys()
	case st.Ext != nil:
		return []fusion.RowGraph{st.Ext}, st.Ext.SourceKeys()
	case st.ClaimShards != nil:
		f := st.ClaimShards
		graphs := make([]fusion.RowGraph, f.K())
		provs := csr.NewIDTable(f.K())
		for s := range graphs {
			g := f.Shard(s)
			graphs[s] = g
			provs.Extend(s, g.NumProvenances(), func(p int32) string { return g.ProvKey(int(p)) })
		}
		return graphs, provs.Keys()
	}
	return nil, nil
}

// storedPosterior returns the posterior a snapshot of st stores and its
// accuracy column in the order of the stored key column (rowGraphs); nil
// when nothing is fused. That is st.Posterior, unless st.Result is set and
// is not its materialisation — an ApplyFunc fused through the public API —
// and then st.Result converted back and checked row by row against the
// graphs (fusion.PosteriorOf). A result or posterior that is not the
// graphs' is refused, so it never reaches disk.
func (st *State) storedPosterior() (*fusion.Posterior, []float64, error) {
	graphs, keys := st.rowGraphs()
	post := st.Posterior
	if st.Result != nil && (post == nil || st.Result.Seed() != post.Seed()) {
		var err error
		if post, err = fusion.PosteriorOf(st.Result, keys, graphs...); err != nil {
			return nil, nil, fmt.Errorf("genstore: state holds a result that is not its graph's: %w", err)
		}
	}
	if post == nil {
		return nil, nil, nil
	}
	postKeys, acc := post.Accuracies()
	if post.Len() != rowCount(graphs) || len(postKeys) != len(keys) {
		return nil, nil, fmt.Errorf("genstore: state holds a posterior that is not its graph's: %d rows and %d accuracies", post.Len(), len(postKeys))
	}
	if slices.Equal(postKeys, keys) {
		return post, acc, nil
	}
	at := make(map[string]int, len(postKeys)) // a live coordinator's order
	for g, key := range postKeys {
		at[key] = g
	}
	stored := make([]float64, len(keys))
	for i, key := range keys {
		g, ok := at[key]
		if !ok {
			return nil, nil, fmt.Errorf("genstore: state holds a posterior that is not its graph's: no accuracy for %q", key)
		}
		stored[i] = acc[g]
	}
	return post, stored, nil
}

// rowCount counts the rows of a posterior over graphs: their triples.
func rowCount(graphs []fusion.RowGraph) int {
	n := 0
	for _, g := range graphs {
		n += g.NumTriples()
	}
	return n
}

func decodeSnapshot(data []byte) (*State, error) {
	const headerLen = 5
	const footerLen = 12
	if len(data) < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[4]; v != snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d", ErrVersion, v, snapVersion)
	}
	foot := data[len(data)-footerLen:]
	if binary.LittleEndian.Uint32(foot[8:]) != snapMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(foot[:8])
	if indexOff < headerLen || indexOff > uint64(len(data)-footerLen) {
		return nil, fmt.Errorf("%w: index offset %d outside file", ErrCorrupt, indexOff)
	}

	ir := wire.NewReader(data[indexOff : len(data)-footerLen])
	count := ir.U32()
	if ir.Err() != nil || uint64(count)*24 != uint64(ir.Remaining()) {
		return nil, fmt.Errorf("%w: malformed section index", ErrCorrupt)
	}
	var payload [7][]byte // indexed by section ID
	for i := uint32(0); i < count; i++ {
		id := ir.U32()
		off := ir.U64()
		n := ir.U64()
		crc := ir.U32()
		if ir.Err() != nil {
			return nil, fmt.Errorf("%w: malformed section index", ErrCorrupt)
		}
		if off < headerLen || off+n < off || off+n > indexOff {
			return nil, fmt.Errorf("%w: section %d span outside body", ErrCorrupt, id)
		}
		b := data[off : off+n]
		if crc32.Checksum(b, castagnoli) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		if id < 1 || id >= uint32(len(payload)) {
			continue // unknown section: ignorable forward-compat payload
		}
		payload[id] = b
	}
	if payload[secMeta] == nil {
		return nil, fmt.Errorf("%w: missing meta section", ErrCorrupt)
	}

	st := &State{}
	mr := wire.NewReader(payload[secMeta])
	st.Method = mr.String()
	gran := mr.Bools()
	st.SiteLevel = mr.Bool()
	st.Consumed = mr.Int()
	st.Batches = mr.Int()
	hasClaim := mr.Bool()
	hasResult := mr.Bool()
	hasExt := mr.Bool()
	hasTL := mr.Bool()
	if mr.Err() != nil || len(gran) != 5 {
		return nil, fmt.Errorf("%w: malformed meta section", ErrCorrupt)
	}
	var ok bool
	if st.Gran, ok = fusion.FlagGranularity([5]bool(gran)); !ok {
		return nil, fmt.Errorf("%w: meta section's granularity flags %v name no granularity", ErrCorrupt, gran)
	}

	if hasClaim {
		c, err := fusion.DecodeSnapshot(payload[secClaim])
		if err != nil {
			return nil, sectionErr("claim graph", err)
		}
		st.Claim = c
	}
	if payload[secShards] != nil {
		if hasClaim {
			return nil, fmt.Errorf("%w: both one claim graph and claim shards", ErrCorrupt)
		}
		f, err := decodeShards(payload[secShards], st.Gran)
		if err != nil {
			return nil, err
		}
		st.ClaimShards = f
	}
	if hasExt {
		g, err := extract.DecodeSnapshot(payload[secExt])
		if err != nil {
			return nil, sectionErr("extraction graph", err)
		}
		if g.SiteLevel() != st.SiteLevel {
			return nil, fmt.Errorf("%w: a site-level=%v extraction graph in a site-level=%v state", ErrCorrupt, g.SiteLevel(), st.SiteLevel)
		}
		st.Ext = g
	}
	if hasTL {
		tl, err := twolayer.DecodeState(payload[secTL])
		if err != nil {
			return nil, sectionErr("twolayer state", err)
		}
		st.TL = tl
	}
	if hasResult {
		if err := st.decodePosterior(payload[secResult]); err != nil {
			return nil, fmt.Errorf("%w: posterior: %v", ErrCorrupt, err)
		}
	}
	return st, nil
}

// sectionErr classifies a section decoder's error: a section another format
// version of its codec wrote (wire.ErrVersion) is ErrVersion, so the file
// stays on disk outside retention for the binary that reads it, and anything
// else is ErrCorrupt.
func sectionErr(name string, err error) error {
	if errors.Is(err, wire.ErrVersion) {
		return fmt.Errorf("%w: %s: %v", ErrVersion, name, err)
	}
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
}

// decodePosterior reads the posterior section (see encodeSnapshot) over st's
// restored graphs into st.Posterior, and its materialisation into
// st.Result: an ApplyFunc that fuses through the public API seeds from that.
// The columns must be the graphs' lengths and hold only values a run
// produces (fusion.Result.Validate): the accuracies seed every later warm
// round.
func (st *State) decodePosterior(b []byte) error {
	graphs, keys := st.rowGraphs()
	if graphs == nil {
		return errors.New("a posterior without a graph")
	}
	r := wire.NewReader(b)
	rounds, prob, acc := r.Int(), r.F64s(), r.F64s()
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		return fmt.Errorf("malformed section (%v, %d trailing bytes)", err, r.Remaining())
	}
	if rows := rowCount(graphs); len(prob) != rows || len(acc) != len(keys) {
		return fmt.Errorf("%d probabilities and %d accuracies over %d triples and %d keys", len(prob), len(acc), rows, len(keys))
	}
	post := fusion.NewPosterior(graphs, prob, keys, acc, rounds, 0)
	res := post.Result()
	if err := res.Validate(); err != nil {
		return err
	}
	st.Posterior, st.Result = post, res
	return nil
}

// decodeShards rebuilds a sharded claim state's coordinator from its
// section (see encodeSnapshot); the coordinator rebuilds the cross-shard
// tables from the graphs, and each graph its dedup on its first append.
func decodeShards(b []byte, gran fusion.Granularity) (*shard.Fusion, error) {
	r := wire.NewReader(b)
	k := r.Int()
	if r.Err() != nil || k < 2 || k > r.Remaining() {
		return nil, fmt.Errorf("%w: malformed shard section", ErrCorrupt)
	}
	lens := make([]int, k)
	for s := range lens {
		lens[s] = r.Int()
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: malformed shard section", ErrCorrupt)
	}
	graphs := make([]*fusion.Compiled, k)
	off := r.Pos()
	for s, n := range lens {
		if n > len(b)-off {
			return nil, fmt.Errorf("%w: claim shard %d overruns its section", ErrCorrupt, s)
		}
		g, err := fusion.DecodeSnapshot(b[off : off+n])
		if err != nil {
			return nil, sectionErr(fmt.Sprintf("claim shard %d", s), err)
		}
		graphs[s] = g
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in shard section", ErrCorrupt, len(b)-off)
	}
	return shard.NewFusionFromShards(graphs, gran)
}

// ---- journal ----
//
//	[u32 magic "KFGJ"][u8 version]
//	records: [u32 payload len][u32 crc32c][payload]
//	payload: uvarint seq, uvarint count, then per extraction the full field
//	set including the simulator's error attribution, so a replayed batch is
//	indistinguishable from the original.

const journalHeaderLen = 5

type record struct {
	seq   int
	batch []extract.Extraction
}

func journalHeader() []byte {
	var b [journalHeaderLen]byte
	binary.LittleEndian.PutUint32(b[:4], journalMagic)
	b[4] = journalVersion
	return b[:]
}

func encodeRecord(seq int, batch []extract.Extraction) []byte {
	var payload bytes.Buffer
	w := wire.NewWriter(&payload)
	w.Int(seq)
	w.Int(len(batch))
	for i := range batch {
		x := &batch[i]
		w.String(string(x.Triple.Subject))
		w.String(string(x.Triple.Predicate))
		w.String(x.Triple.Object.String())
		w.String(x.Extractor)
		w.String(x.Pattern)
		w.String(x.URL)
		w.String(x.Site)
		w.F64(x.Confidence)
		w.U8(uint8(x.Error))
	}
	p := payload.Bytes()
	out := make([]byte, 8+len(p))
	binary.LittleEndian.PutUint32(out[:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(p, castagnoli))
	copy(out[8:], p)
	return out
}

func decodeRecord(payload []byte) (record, error) {
	r := wire.NewReader(payload)
	rec := record{seq: r.Int()}
	n := r.Int()
	if r.Err() != nil {
		return rec, r.Err()
	}
	if n > r.Remaining() {
		return rec, fmt.Errorf("%w: batch count %d exceeds record", ErrCorrupt, n)
	}
	rec.batch = make([]extract.Extraction, 0, n)
	for i := 0; i < n; i++ {
		subj := r.String()
		pred := r.String()
		objStr := r.String()
		if r.Err() != nil {
			return rec, r.Err()
		}
		obj, err := kb.ParseObject(objStr)
		if err != nil {
			return rec, err
		}
		rec.batch = append(rec.batch, extract.Extraction{
			Triple:     kb.Triple{Subject: kb.EntityID(subj), Predicate: kb.PredicateID(pred), Object: obj},
			Extractor:  r.String(),
			Pattern:    r.String(),
			URL:        r.String(),
			Site:       r.String(),
			Confidence: r.F64(),
			Error:      extract.ErrorKind(r.U8()),
		})
	}
	if r.Err() != nil {
		return rec, r.Err()
	}
	if r.Remaining() != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, r.Remaining())
	}
	return rec, nil
}

// parseJournal splits the journal into valid records plus the length of the
// valid prefix. A short or checksum-failing tail is expected after a crash;
// note reports why parsing stopped when bytes were dropped.
func parseJournal(data []byte) (recs []record, validLen int, note string) {
	if len(data) < journalHeaderLen {
		if len(data) > 0 {
			return nil, 0, "torn journal header"
		}
		return nil, 0, ""
	}
	if binary.LittleEndian.Uint32(data) != journalMagic || data[4] != journalVersion {
		return nil, 0, "bad journal header"
	}
	pos := journalHeaderLen
	for pos < len(data) {
		if len(data)-pos < 8 {
			return recs, pos, "torn record framing"
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		crc := binary.LittleEndian.Uint32(data[pos+4:])
		if n > len(data)-pos-8 {
			return recs, pos, "torn record payload"
		}
		payload := data[pos+8 : pos+8+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return recs, pos, "record checksum mismatch"
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, pos, fmt.Sprintf("record decode: %v", err)
		}
		recs = append(recs, rec)
		pos += 8 + n
	}
	return recs, pos, ""
}

// recoverJournal replays journaled batches onto st and repairs the journal
// file if a torn or corrupt tail had to be dropped.
func (s *Store) recoverJournal(st *State) error {
	data, err := s.fs.ReadFile(journalName)
	if err != nil {
		return nil // no journal yet
	}
	recs, validLen, note := parseJournal(data)
	if note != "" && validLen < len(data) {
		s.note("journal: %s at offset %d; later records dropped", note, validLen)
	}

	kept := len(recs)
	for i, rec := range recs {
		if rec.seq < st.Batches {
			continue // already inside the snapshot
		}
		if rec.seq > st.Batches {
			// Unreachable records (e.g. every snapshot was lost and the
			// journal only retains a later suffix). The caller re-reads the
			// feed from Consumed; the orphans are dropped below so future
			// appends restart a contiguous sequence.
			s.note("journal gap: have batch %d, next record is %d; stopping replay", st.Batches, rec.seq)
			kept = i
			break
		}
		if err := s.apply(st, rec.batch); err != nil {
			return fmt.Errorf("genstore: replay batch %d: %w", rec.seq, err)
		}
		st.Batches++
		st.Consumed += len(rec.batch)
	}

	// Rewrite the journal when a torn/corrupt tail or a post-gap orphan run
	// was dropped, so later appends never land after garbage.
	if validLen < len(data) || kept < len(recs) {
		if err := s.rewriteJournal(recs[:kept]); err != nil {
			return err
		}
	}
	return nil
}

// restoreJournal takes a refused batch's record back out of the journal
// after its write or fsync failed (cause): the journal is rewritten to its
// records before st.Batches, so the torn or unsynced record can neither hide
// the next acknowledged batch behind garbage nor replay in its place under
// the same sequence number. It returns cause; when the rewrite fails too,
// the store is broken until reopened and it returns that error instead.
func (s *Store) restoreJournal(st *State, cause error) error {
	data, err := s.fs.ReadFile(journalName)
	if err == nil {
		recs, _, _ := parseJournal(data)
		kept := recs[:0]
		for _, rec := range recs {
			if rec.seq < st.Batches {
				kept = append(kept, rec)
			}
		}
		err = s.rewriteJournal(kept)
	}
	if err != nil {
		s.broken = fmt.Errorf("%w, and restoring the journal failed (reopen the store): %w", cause, err)
		return s.broken
	}
	return cause
}

// rotateJournal rewrites the journal keeping only records the oldest
// retained snapshot still needs for replay.
func (s *Store) rotateJournal() error {
	floor := 0
	names, err := s.fs.List()
	if err != nil {
		return fmt.Errorf("genstore: list: %w", err)
	}
	if snaps := snapNames(names, s.skewed); len(snaps) > 0 {
		floor = snapSeq(snaps[len(snaps)-1]) // oldest retained snapshot
	}
	data, err := s.fs.ReadFile(journalName)
	if err != nil {
		return nil
	}
	recs, _, _ := parseJournal(data)
	kept := recs[:0]
	for _, rec := range recs {
		if rec.seq >= floor {
			kept = append(kept, rec)
		}
	}
	if len(kept) == len(recs) {
		return nil // nothing to drop
	}
	return s.rewriteJournal(kept)
}

// rewriteJournal atomically replaces the journal with the given records and
// reopens the append handle on the new file.
func (s *Store) rewriteJournal(recs []record) error {
	if s.journal != nil {
		_ = s.journal.Close()
		s.journal = nil
	}
	if err := kfio.AtomicWrite(s.fs, journalName, func(w io.Writer) error {
		if _, err := w.Write(journalHeader()); err != nil {
			return err
		}
		for _, rec := range recs {
			if _, err := w.Write(encodeRecord(rec.seq, rec.batch)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("genstore: journal rewrite: %w", err)
	}
	return s.openJournal()
}

// openJournal (re)opens the append handle, stamping a header when the file
// is new or its header write was torn.
func (s *Store) openJournal() error {
	if s.journal != nil {
		_ = s.journal.Close()
		s.journal = nil
	}
	data, err := s.fs.ReadFile(journalName)
	if err != nil || len(data) < journalHeaderLen {
		// Missing or torn-before-header: start fresh. A torn header implies
		// no records were ever written, so nothing is lost.
		f, cerr := s.fs.Create(journalName)
		if cerr != nil {
			return fmt.Errorf("genstore: journal create: %w", cerr)
		}
		if _, werr := f.Write(journalHeader()); werr != nil {
			f.Close()
			return fmt.Errorf("genstore: journal header: %w", werr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return fmt.Errorf("genstore: journal header sync: %w", serr)
		}
		s.journal = f
		return nil
	}
	f, err := s.fs.OpenAppend(journalName)
	if err != nil {
		return fmt.Errorf("genstore: journal open: %w", err)
	}
	s.journal = f
	return nil
}

// pruneSnapshots removes all but the newest snapshotsKept snapshots this
// binary reads.
func (s *Store) pruneSnapshots() error {
	names, err := s.fs.List()
	if err != nil {
		return fmt.Errorf("genstore: list: %w", err)
	}
	snaps := snapNames(names, s.skewed)
	for _, n := range snaps[min(len(snaps), snapshotsKept):] {
		if err := s.fs.Remove(n); err != nil {
			return fmt.Errorf("genstore: prune %s: %w", n, err)
		}
	}
	return nil
}

// snapNames filters and sorts snapshot file names, newest (highest batch
// count) first, leaving out the skewed ones (see Store.skewed).
func snapNames(names []string, skewed map[string]bool) []string {
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) && snapSeq(n) >= 0 && !skewed[n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return snapSeq(out[i]) > snapSeq(out[j]) })
	return out
}

func snapName(batches int) string {
	return fmt.Sprintf("%s%08d%s", snapPrefix, batches, snapSuffix)
}

// snapSeq parses the batch count out of a snapshot file name, -1 if
// malformed.
func snapSeq(name string) int {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(mid) != 8 {
		return -1
	}
	n := 0
	for _, c := range mid {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}
