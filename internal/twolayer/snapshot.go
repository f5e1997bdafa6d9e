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

// DecodeState reconstructs a State from EncodeState bytes.
func DecodeState(data []byte) (*State, error) {
	r := wire.NewReader(data)
	r.Version(snapshotVersion)
	st := &State{SrcAcc: r.F64s(), Recall: r.F64s(), FalsePos: r.F64s()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("twolayer: state: %w", err)
	}
	return st, nil
}
