package twolayer

import (
	"math"
	"testing"

	"kfusion/internal/mathx"
)

// FirstPass reports, for the State a seeded run returned and nobody has
// seeded from yet, how many statements that run's first E-step scored and
// how many its graphs hold — equal when it took the full pass. ok is false
// when the State carries no engines.
func FirstPass(st *State) (scored, total int, ok bool) {
	es := st.engines.Held()
	for _, e := range es {
		scored += e.rescored
		total += e.g.NumStatements()
	}
	return scored, total, len(es) > 0
}

// CheckLayer1 installs the layer-1 oracle for the rest of the test: after
// every E-step of every engine — cold or carried (the dirty scope), one graph
// or a shard of several — each statement's stated probability must equal, bit
// for bit, mathx.Sigmoid(srcBase[source] + lrAdj[x1] + lrAdj[x2] + …) over
// its extractor list in list order, under the tables of that E-step: the
// definition the memo and the carried values stand in for.
func CheckLayer1(t testing.TB) {
	layer1Done = func(e *engine) {
		g := e.g
		for si := int32(0); int(si) < g.NumStatements(); si++ {
			src := g.StatementSource(si)
			logOdds := e.srcBase[src]
			for _, x := range g.StatementExtractors(si) {
				logOdds += e.lrAdj[x]
			}
			if want := mathx.Sigmoid(logOdds); math.Float64bits(e.stated[si]) != math.Float64bits(want) {
				t.Errorf("layer 1: statement %d (source %d, extractors %v, memo cells %d): stated %v, want %v",
					si, src, g.StatementExtractors(si), e.memoCells, e.stated[si], want)
				return // one report per E-step
			}
		}
	}
	t.Cleanup(func() { layer1Done = nil })
}

// SetMemoMaxCells bounds the layer-1 memo at n cells for the rest of the test.
func SetMemoMaxCells(t testing.TB, n int) {
	old := memoMaxCells
	memoMaxCells = n
	t.Cleanup(func() { memoMaxCells = old })
}
