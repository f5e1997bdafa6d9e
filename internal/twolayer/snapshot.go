package twolayer

import (
	"fmt"
	"io"

	"kfusion/internal/wire"
)

// snapshotVersion versions the State wire encoding.
const snapshotVersion = 1

// EncodeState serializes warm-start state. The three vectors are ID-indexed
// and append-stable, so a decoded State seeds FuseCompiledWarm on any later
// generation of the same graph exactly as the in-memory original would.
func EncodeState(out io.Writer, st *State) error {
	w := wire.NewWriter(out)
	w.U8(snapshotVersion)
	w.F64s(st.SrcAcc)
	w.F64s(st.Recall)
	w.F64s(st.FalsePos)
	return w.Err()
}

// DecodeState reconstructs a State from EncodeState bytes. The vectors come
// back as they were written — whether they fit a graph is for Validate, which
// whoever pairs a decoded State with a graph calls before seeding from it.
func DecodeState(data []byte) (*State, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	st := &State{SrcAcc: r.F64s(), Recall: r.F64s(), FalsePos: r.F64s()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("twolayer: state: %w", err)
	}
	return st, nil
}

// Validate reports whether the State is what a run over a graph (or a
// coordinator's tables) with nSources sources and nExtractors extractors
// returns: one accuracy per source, one recall and one false-positive rate
// per extractor, every accuracy in [0,1] and every rate strictly inside
// (0,1) — the M-step clamps them further in — and nothing that is not a
// number. FuseLockstep takes the State it is given: it starts the entities a
// shorter vector does not cover at the configured values, which is what
// seeding generation k+1 from generation k relies on, and it does not look at
// the values; a NaN accuracy passes every clamp and a rate of 0 or 1 puts an
// infinity into every statement of the sources the extractor processed. A
// State read back from storage beside the graph it was captured on goes
// through here first (genstore.Chain.Check).
func (st *State) Validate(nSources, nExtractors int) error {
	if len(st.SrcAcc) != nSources || len(st.Recall) != nExtractors || len(st.FalsePos) != nExtractors {
		return fmt.Errorf("twolayer: state holds %d accuracies, %d recalls and %d false-positive rates for %d sources and %d extractors",
			len(st.SrcAcc), len(st.Recall), len(st.FalsePos), nSources, nExtractors)
	}
	for s, a := range st.SrcAcc {
		if !(a >= 0 && a <= 1) { // also catches NaN
			return fmt.Errorf("twolayer: state: accuracy %v of source %d is outside [0,1]", a, s)
		}
	}
	for x := range st.Recall {
		if r, f := st.Recall[x], st.FalsePos[x]; !(r > 0 && r < 1) || !(f > 0 && f < 1) {
			return fmt.Errorf("twolayer: state: recall %v / false-positive rate %v of extractor %d outside (0,1)", r, f, x)
		}
	}
	return nil
}
