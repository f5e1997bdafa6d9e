// Package kbstore persists a fused knowledge base to a single compact file —
// the "central data repository" the paper's pipeline feeds. The format is a
// write-once, read-many snapshot:
//
//	[magic u32][version u8]
//	[predicate table: count uvarint, then len-prefixed strings]
//	[record count uvarint]
//	[records, sorted by (subject, predicate, object)]
//	[subject index: count uvarint, (len-prefixed subject, record offset uvarint)*]
//	[footer: index offset u64, magic u32]
//
// Records delta-share their subject with the previous record (a run-length
// byte), intern predicates through the table, and encode probabilities as
// 16-bit fixed point — ample for calibrated truthfulness scores. The subject
// index stores the first record offset of each distinct subject, enabling
// O(log n) subject lookups via binary search over the in-memory index.
package kbstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/kfio"
	"kfusion/internal/wire"
)

const (
	magic   = 0x4b465553 // "KFUS"
	version = 1

	headerLen = 5  // u32 magic + u8 version
	footerLen = 12 // u64 index offset + u32 magic
)

var (
	// ErrCorrupt reports a store file whose bytes fail structural validation:
	// bad magic, truncation, out-of-range offsets or indices, or a record
	// region that does not line up with the subject index.
	ErrCorrupt = errors.New("kbstore: corrupt file")
	// ErrVersion reports a store written by an incompatible format version.
	ErrVersion = errors.New("kbstore: unsupported version")
)

// Write persists fused triples to path. Unpredicted triples (no probability)
// are kept with probability -1 so the store is a faithful snapshot.
func Write(path string, triples []fusion.FusedTriple) error {
	sorted := append([]fusion.FusedTriple(nil), triples...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].Triple, sorted[j].Triple
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object.String() < b.Object.String()
	})

	// Predicate interning.
	predIdx := map[kb.PredicateID]uint64{}
	var preds []kb.PredicateID
	for _, t := range sorted {
		if _, ok := predIdx[t.Triple.Predicate]; !ok {
			predIdx[t.Triple.Predicate] = uint64(len(preds))
			preds = append(preds, t.Triple.Predicate)
		}
	}

	// The snapshot replaces any previous store at path; write it atomically
	// so a crash mid-write leaves the old snapshot intact, never a torn file.
	return kfio.AtomicWriteFile(path, func(out io.Writer) error {
		w := wire.NewWriter(out)

		w.U32(magic)
		w.U8(version)
		w.Uvarint(uint64(len(preds)))
		for _, p := range preds {
			w.String(string(p))
		}
		w.Uvarint(uint64(len(sorted)))

		type subjEntry struct {
			subject string
			offset  uint64
		}
		var index []subjEntry
		prevSubject := ""
		for _, t := range sorted {
			subj := string(t.Triple.Subject)
			if subj != prevSubject {
				index = append(index, subjEntry{subject: subj, offset: uint64(w.Len())})
				w.U8(1) // new subject follows
				w.String(subj)
				prevSubject = subj
			} else {
				w.U8(0) // same subject as previous record
			}
			w.Uvarint(predIdx[t.Triple.Predicate])
			w.String(t.Triple.Object.String())
			prob := t.Probability
			if !t.Predicted {
				prob = -1
			}
			w.U16(encodeProb(prob))
			w.Uvarint(uint64(t.Provenances))
			w.Uvarint(uint64(t.Extractors))
		}

		indexOffset := uint64(w.Len())
		w.Uvarint(uint64(len(index)))
		for _, e := range index {
			w.String(e.subject)
			w.Uvarint(e.offset)
		}
		w.U64(indexOffset)
		w.U32(magic)

		if err := w.Err(); err != nil {
			return fmt.Errorf("kbstore: write: %w", err)
		}
		return nil
	})
}

// encodeProb maps [-1] ∪ [0,1] to 16 bits: 0 = unpredicted, 1..65535 map
// [0,1].
func encodeProb(p float64) uint16 {
	if p < 0 {
		return 0
	}
	v := uint16(math.Round(p*65534)) + 1
	return v
}

func decodeProb(v uint16) (float64, bool) {
	if v == 0 {
		return -1, false
	}
	return float64(v-1) / 65534, true
}

// KB is an opened store. The whole snapshot is held in memory (the format
// exists for compactness and interchange, not out-of-core access at this
// scale); lookups use the subject index.
type KB struct {
	records []fusion.FusedTriple
	// firstOf maps each subject to its first record position.
	firstOf map[kb.EntityID]int
	preds   []kb.PredicateID
}

// Open reads a store written by Write.
func Open(path string) (*KB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kbstore: open: %w", err)
	}
	return Parse(data)
}

// Parse decodes a store image held in memory, validating the footer, the
// index offset, every length and index, and that the subject index agrees
// with the record region. Failures wrap ErrCorrupt or ErrVersion.
func Parse(data []byte) (*KB, error) {
	if len(data) < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header and footer", ErrCorrupt, len(data))
	}
	foot := data[len(data)-footerLen:]
	if binary.LittleEndian.Uint32(foot[8:]) != magic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	indexOffset := binary.LittleEndian.Uint64(foot[:8])
	if indexOffset < headerLen || indexOffset > uint64(len(data)-footerLen) {
		return nil, fmt.Errorf("%w: index offset %d outside file", ErrCorrupt, indexOffset)
	}

	r := wire.NewReader(data)
	if got := r.U32(); got != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, got)
	}
	if v := r.U8(); v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, version)
	}
	nPreds := r.Uvarint()
	kbh := &KB{firstOf: make(map[kb.EntityID]int)}
	for i := uint64(0); i < nPreds && r.Err() == nil; i++ {
		kbh.preds = append(kbh.preds, kb.PredicateID(r.String()))
	}
	n := r.Uvarint()
	var subject kb.EntityID
	type subjEntry struct {
		subject string
		offset  uint64
	}
	var subjects []subjEntry
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		recOff := uint64(r.Pos())
		if r.U8() == 1 {
			subject = kb.EntityID(r.String())
			if _, dup := kbh.firstOf[subject]; dup {
				return nil, fmt.Errorf("%w: subject %q split across runs", ErrCorrupt, subject)
			}
			kbh.firstOf[subject] = len(kbh.records)
			subjects = append(subjects, subjEntry{subject: string(subject), offset: recOff})
		} else if i == 0 && r.Err() == nil {
			return nil, fmt.Errorf("%w: first record carries no subject", ErrCorrupt)
		}
		pi := r.Uvarint()
		if r.Err() == nil && pi >= uint64(len(kbh.preds)) {
			return nil, fmt.Errorf("%w: predicate index %d out of range", ErrCorrupt, pi)
		}
		objStr := r.String()
		if r.Err() != nil {
			break
		}
		obj, perr := kb.ParseObject(objStr)
		if perr != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, i, perr)
		}
		prob, predicted := decodeProb(r.U16())
		provs := r.Uvarint()
		exts := r.Uvarint()
		kbh.records = append(kbh.records, fusion.FusedTriple{
			Triple:      kb.Triple{Subject: subject, Predicate: kbh.preds[pi], Object: obj},
			Probability: prob,
			Predicted:   predicted,
			Provenances: int(provs),
			Extractors:  int(exts),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if uint64(r.Pos()) != indexOffset {
		return nil, fmt.Errorf("%w: records end at %d, index offset says %d", ErrCorrupt, r.Pos(), indexOffset)
	}

	// The on-disk subject index must agree with the records just parsed.
	nIdx := r.Uvarint()
	if r.Err() == nil && nIdx != uint64(len(subjects)) {
		return nil, fmt.Errorf("%w: index has %d subjects, records have %d", ErrCorrupt, nIdx, len(subjects))
	}
	for i := uint64(0); i < nIdx && r.Err() == nil; i++ {
		s := r.String()
		off := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if s != subjects[i].subject || off != subjects[i].offset {
			return nil, fmt.Errorf("%w: index entry %d (%q@%d) does not match records (%q@%d)",
				ErrCorrupt, i, s, off, subjects[i].subject, subjects[i].offset)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Remaining() != footerLen {
		return nil, fmt.Errorf("%w: %d trailing bytes between index and footer", ErrCorrupt, r.Remaining()-footerLen)
	}
	return kbh, nil
}

// Len reports the number of stored triples.
func (k *KB) Len() int { return len(k.records) }

// Predicates returns the interned predicate table.
func (k *KB) Predicates() []kb.PredicateID { return k.preds }

// BySubject returns all fused triples for a subject (nil if absent).
func (k *KB) BySubject(s kb.EntityID) []fusion.FusedTriple {
	start, ok := k.firstOf[s]
	if !ok {
		return nil
	}
	end := start
	for end < len(k.records) && k.records[end].Triple.Subject == s {
		end++
	}
	return k.records[start:end]
}

// ByItem returns the fused triples of one data item.
func (k *KB) ByItem(d kb.DataItem) []fusion.FusedTriple {
	var out []fusion.FusedTriple
	for _, f := range k.BySubject(d.Subject) {
		if f.Triple.Predicate == d.Predicate {
			out = append(out, f)
		}
	}
	return out
}

// Above streams all triples with probability >= minProb, in subject order.
func (k *KB) Above(minProb float64, fn func(fusion.FusedTriple) bool) {
	for _, f := range k.records {
		if f.Predicted && f.Probability >= minProb {
			if !fn(f) {
				return
			}
		}
	}
}

// All returns every stored triple in subject order. The slice is owned by
// the KB.
func (k *KB) All() []fusion.FusedTriple { return k.records }

// Stats summarizes the store.
func (k *KB) Stats() (triples, subjects, predicted int) {
	return len(k.records), len(k.firstOf), k.predictedCount()
}

func (k *KB) predictedCount() int {
	n := 0
	for _, f := range k.records {
		if f.Predicted {
			n++
		}
	}
	return n
}
