package twolayer

import (
	"bytes"
	"reflect"
	"testing"
)

func TestStateRoundTrip(t *testing.T) {
	st := &State{
		SrcAcc:   []float64{0.1, 0.8, 0.99},
		Recall:   []float64{0.5, 0.25},
		FalsePos: []float64{0.15, 0.05},
	}
	var buf bytes.Buffer
	if err := EncodeState(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeState(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual([][]float64{dec.SrcAcc, dec.Recall, dec.FalsePos}, [][]float64{st.SrcAcc, st.Recall, st.FalsePos}) {
		t.Fatalf("decoded state differs: got %+v want %+v", dec, st)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if _, err := DecodeState(buf.Bytes()[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}
