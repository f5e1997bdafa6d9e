package kfio

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"kfusion/internal/kb"
)

// Append-based JSON encoding for the two record shapes the pipeline writes
// by the hundred thousand: extraction feed lines (ExtractionWriter) and fused
// rows (WriteFused). Both are flat objects of strings, floats, ints and a
// bool, so a row is built by appending to one reused buffer — no reflection,
// no per-row record value, no string per object — and every byte is what
// encoding/json writes for the record types above (ExtractionRecord,
// FusedRecord), which is how the tests hold it: the encoding/json encoder
// lives in the test files as the oracle.

// jsonClean reports whether encoding/json copies byte b of a string through
// unchanged: printable ASCII other than the quote, the backslash and the
// three characters its HTML-safe mode escapes.
func jsonClean(b byte) bool {
	return b >= 0x20 && b < 0x80 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendJSONString appends s as a JSON string. A string of clean bytes is
// copied between quotes; anything else — an escape, a control byte, non-ASCII
// (U+2028/U+2029 and invalid UTF-8 have their own rules) — goes through
// encoding/json itself, for that one string.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonClean(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONObject appends o's tagged form (kb.Object.String) as a JSON
// string without building it: the form is rendered into dst and stands as
// written when every byte of it is clean.
func appendJSONObject(dst []byte, o kb.Object) []byte {
	dst = append(dst, '"')
	at := len(dst)
	dst = o.AppendString(dst)
	for _, b := range dst[at:] {
		if !jsonClean(b) {
			q, _ := json.Marshal(string(dst[at:]))
			return append(dst[:at-1], q...)
		}
	}
	return append(dst, '"')
}

// appendJSONTriple opens a row with the three fields both record shapes
// start with: {"s":…,"p":…,"o":… — the object in its tagged form.
func appendJSONTriple(dst []byte, t kb.Triple) []byte {
	dst = append(dst, `{"s":`...)
	dst = appendJSONString(dst, string(t.Subject))
	dst = append(dst, `,"p":`...)
	dst = appendJSONString(dst, string(t.Predicate))
	dst = append(dst, `,"o":`...)
	return appendJSONObject(dst, t.Object)
}

// appendJSONFloat appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in exponent form below 1e-6 and from 1e21,
// with a two-digit negative exponent's leading zero dropped (1e-07 → 1e-7).
// NaN and the infinities have no JSON form and are an error, as they are
// there.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
