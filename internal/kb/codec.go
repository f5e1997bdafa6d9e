package kb

import (
	"fmt"

	"kfusion/internal/wire"
)

// EncodeTriples writes a length-prefixed triple table in the wire dialect.
// Objects serialize through their tagged String form, which ParseObject
// inverts losslessly, so a decoded table is field-identical to the input.
func EncodeTriples(w *wire.Writer, ts []Triple) {
	w.Int(len(ts))
	for i := range ts {
		w.String(string(ts[i].Subject))
		w.String(string(ts[i].Predicate))
		w.String(ts[i].Object.String())
	}
}

// DecodeTriples reads a table written by EncodeTriples. A corrupt table is
// latched on r (see wire.Reader.Fail) and returns nil.
func DecodeTriples(r *wire.Reader) []Triple {
	n := r.Int()
	// A triple costs at least three length bytes, so a count beyond the
	// remaining input is corrupt — rejected before allocating.
	if n > r.Remaining() {
		r.Fail(fmt.Errorf("kb: triple count %d exceeds input: %w", n, wire.ErrTruncated))
	}
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Triple, n)
	for i := range out {
		subj := r.String()
		pred := r.String()
		objStr := r.String()
		if r.Err() != nil {
			return nil
		}
		obj, err := ParseObject(objStr)
		if err != nil {
			r.Fail(fmt.Errorf("kb: triple %d: %w", i, err))
			return nil
		}
		out[i] = Triple{Subject: EntityID(subj), Predicate: PredicateID(pred), Object: obj}
	}
	return out
}
