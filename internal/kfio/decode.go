package kfio

import (
	"bytes"
	"hash/maphash"
	"strconv"
	"unicode/utf8"
)

// symtabMaxSlots bounds a RecordDecoder's symbol table (1 MB of string
// headers on a 64-bit host). The table starts at symtabMinSlots and doubles
// while its strings keep being new, so a small request pays for a small table.
const (
	symtabMinSlots = 1 << 8
	symtabMaxSlots = 1 << 16
)

// RecordDecoder decodes extraction records in the one shape ExtractionWriter
// emits — a flat object of the eight lower-case keys, each at most once,
// unescaped string values, a JSON-grammar conf — without reflection, and
// hands out one canonical string per distinct field value through a bounded
// symbol table: a Web feed is overwhelmingly repeated extractors, predicates,
// sites and pages, so most fields cost a hash and a compare, no allocation.
// Strings of records decoded by one RecordDecoder may share storage.
//
// Anything outside that shape decides nothing (Decode reports ok false) and
// the caller hands the untouched bytes to encoding/json, so the accepted set,
// the decoded values and the error texts are encoding/json's. The zero value
// is ready to use; a RecordDecoder is single-goroutine state that lives and
// dies with its stream or request.
type RecordDecoder struct {
	seed   maphash.Seed
	slots  []string // direct-mapped by hash; a collision evicts
	misses int      // strings allocated since the table last grew
}

// intern returns the canonical string for a field's raw bytes, or false when
// the bytes need encoding/json (an escape, a control byte, invalid UTF-8).
// Only validated strings enter the table, so a hit needs no validation.
func (d *RecordDecoder) intern(b []byte) (string, bool) {
	if d.slots == nil {
		d.seed = maphash.MakeSeed()
		d.slots = make([]string, symtabMinSlots)
	}
	slot := &d.slots[maphash.Bytes(d.seed, b)&uint64(len(d.slots)-1)]
	if *slot == string(b) {
		return *slot, true
	}
	for _, c := range b {
		if c < 0x20 || c == '\\' {
			return "", false
		}
	}
	if !utf8.Valid(b) {
		return "", false
	}
	s := string(b)
	*slot = s
	if d.misses++; d.misses > len(d.slots)/2 && len(d.slots) < symtabMaxSlots {
		d.grow()
	}
	return s, true
}

// grow doubles the table and re-seats the strings it holds.
func (d *RecordDecoder) grow() {
	old := d.slots
	d.slots, d.misses = make([]string, 2*len(old)), 0
	for _, s := range old {
		if s != "" {
			d.slots[maphash.String(d.seed, s)&uint64(len(d.slots)-1)] = s
		}
	}
}

// Decode decodes the record object that starts at b[i] (after optional
// whitespace) and returns the index just past its closing brace. ok false
// means the bytes are not in the fast shape — not that they are invalid — and
// rec and end are then meaningless.
func (d *RecordDecoder) Decode(b []byte, i int) (rec ExtractionRecord, end int, ok bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return rec, 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return rec, i + 1, true
	}
	var seen uint8
	for {
		key, j, found := quoted(b, i)
		if !found {
			return rec, 0, false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return rec, 0, false
		}
		i = skipSpace(b, i+1)
		var dst *string
		var bit uint8
		switch string(key) {
		case "s":
			dst, bit = &rec.Subject, 1<<0
		case "p":
			dst, bit = &rec.Predicate, 1<<1
		case "o":
			dst, bit = &rec.Object, 1<<2
		case "extractor":
			dst, bit = &rec.Extractor, 1<<3
		case "pattern":
			dst, bit = &rec.Pattern, 1<<4
		case "url":
			dst, bit = &rec.URL, 1<<5
		case "site":
			dst, bit = &rec.Site, 1<<6
		case "conf":
			bit = 1 << 7
		default:
			return rec, 0, false
		}
		if seen&bit != 0 {
			return rec, 0, false
		}
		seen |= bit
		if dst != nil {
			val, j, found := quoted(b, i)
			if !found {
				return rec, 0, false
			}
			s, plain := d.intern(val)
			if !plain {
				return rec, 0, false
			}
			*dst, i = s, j
		} else {
			j := scanNumber(b, i)
			if j == i {
				return rec, 0, false
			}
			v, err := strconv.ParseFloat(string(b[i:j]), 64)
			if err != nil {
				return rec, 0, false
			}
			rec.Conf, i = v, j
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return rec, 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return rec, i + 1, true
		default:
			return rec, 0, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// quoted returns the bytes between the quote at b[i] and the next quote, and
// the index past that quote. An escaped quote ends the span early with a
// backslash inside it, which neither a key nor intern accepts.
func quoted(b []byte, i int) (span []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	n := bytes.IndexByte(b[i+1:], '"')
	if n < 0 {
		return nil, 0, false
	}
	return b[i+1 : i+1+n], i + n + 2, true
}

// scanNumber returns the index past the JSON-grammar number at b[i], or i
// when there is none: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?.
// strconv.ParseFloat alone would also take "1.", ".5", "0x1p-2" and "Inf".
func scanNumber(b []byte, i int) int {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := digits(j + 1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		e := digits(k)
		if e == k {
			return i
		}
		j = e
	}
	return j
}
