package extract

import (
	"reflect"
	"runtime"
	"testing"

	"kfusion/internal/web"
	"kfusion/internal/world"
)

// TestRunWorkerIndependent: a run is the same at every worker count — pages
// are extracted in URL order on GOMAXPROCS workers in contiguous ranges, rows
// are made in feed order, and one stable scatter by extractor places every
// worker's rows.
func TestRunWorkerIndependent(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(42))
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	var (
		want      *web.Corpus
		wantSuite []Extraction
		suite     = NewSuite(w, 44)
	)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		corpus := web.MustGenerate(w, web.DefaultConfig(43))
		got := suite.Run(w, corpus)
		if want == nil {
			want, wantSuite = corpus, got
			continue
		}
		if !reflect.DeepEqual(corpus.Pages, want.Pages) || !reflect.DeepEqual(corpus.SiteErrorRate, want.SiteErrorRate) {
			t.Errorf("GOMAXPROCS %d: corpus differs from GOMAXPROCS 1", procs)
		}
		if !reflect.DeepEqual(got, wantSuite) {
			t.Errorf("GOMAXPROCS %d: Run differs from GOMAXPROCS 1", procs)
		}
	}
}

// TestRunOrderIsTotal: Run's sort key (extractor, URL, triple) is a total
// order on its output — no two rows compare equal — so the sorted feed is
// the one order there is, whatever way the rows were split and merged. It
// holds because an extractor emits a triple at most once per page and a
// page's URL is unique in the corpus.
func TestRunOrderIsTotal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(int64) world.Config
		web   func(int64) web.Config
	}{
		{"small", world.DefaultConfig, web.DefaultConfig},
		{"bench", world.BenchConfig, web.BenchConfig},
	} {
		for _, seed := range []int64{42, 7} {
			// The configs exper.NewDataset builds at this scale and seed.
			w := world.MustGenerate(tc.world(seed))
			xs := NewSuite(w, seed+2).Run(w, web.MustGenerate(w, tc.web(seed+1)))
			if len(xs) == 0 {
				t.Fatalf("%s seed %d: no extractions", tc.name, seed)
			}
			for i := 1; i < len(xs); i++ {
				a, b := &xs[i-1], &xs[i]
				if extractionLess(b, a) {
					t.Fatalf("%s seed %d: rows %d and %d out of order:\n%+v\n%+v", tc.name, seed, i-1, i, *a, *b)
				}
				if !extractionLess(a, b) {
					t.Fatalf("%s seed %d: rows %d and %d tie on the sort key:\n%+v\n%+v", tc.name, seed, i-1, i, *a, *b)
				}
			}
		}
	}
}

// TestExtractionRunAllocationBound bounds what a run allocates per page at
// bench scale: the rows' chunks, the runs and the result grow with the
// output, and each (extractor, page) stream, page view and label costs
// nothing, so an allocation per stream or per label string shows up here.
// The run made 5.3 mallocs per page when the bound was set (1 worker: the
// measurement's GOMAXPROCS; the bound keeps the 1.5× headroom of the one
// before it), 9.9 with a pattern string built for every mention read and a
// Source allocated per mislinked name, and 37.9 with a Source split per
// (extractor, page) as root.SplitN(e.Name+"|"+url, pi).
func TestExtractionRunAllocationBound(t *testing.T) {
	const bound = 8
	w := world.MustGenerate(world.BenchConfig(42))
	corpus := web.MustGenerate(w, web.BenchConfig(43))
	suite := NewSuite(w, 44)
	perPage := testing.AllocsPerRun(2, func() { suite.Run(w, corpus) }) / float64(len(corpus.Pages))
	t.Logf("%.1f mallocs per page over %d pages", perPage, len(corpus.Pages))
	if perPage > bound {
		t.Errorf("Suite.Run makes %.1f mallocs per page, bound %d", perPage, bound)
	}
}
