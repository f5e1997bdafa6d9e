package mapreduce

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"

	"kfusion/internal/kb"
)

func wordCountJob(workers, partitions int) Job[string, string, int, [2]any] {
	return Job[string, string, int, [2]any]{
		Name: "wordcount",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Reduce: func(k string, vs []int, emit func([2]any)) {
			total := 0
			for _, v := range vs {
				total += v
			}
			emit([2]any{k, total})
		},
		KeyHash:    kb.StringHash,
		Workers:    workers,
		Partitions: partitions,
	}
}

var corpus = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps",
	"a fox and a dog",
}

func TestWordCount(t *testing.T) {
	out, err := Run(wordCountJob(4, 8), corpus)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, o := range out {
		counts[o[0].(string)] = o[1].(int)
	}
	want := map[string]int{"the": 3, "quick": 2, "dog": 3, "fox": 2, "a": 2, "lazy": 1, "brown": 1, "jumps": 1, "and": 1}
	if len(counts) != len(want) {
		t.Fatalf("got %d distinct words, want %d: %v", len(counts), len(want), counts)
	}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, counts[w], n)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, err := Run(wordCountJob(1, 16), corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Run(wordCountJob(workers, 16), corpus)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: output %d = %v, want %v (ordering not deterministic)", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestEquivalentToSequentialGrouping(t *testing.T) {
	f := func(words []string) bool {
		if len(words) > 200 {
			words = words[:200]
		}
		lines := make([]string, 0, len(words))
		for _, w := range words {
			// The wordcount mapper splits on any Unicode whitespace; keep
			// only single-token inputs so the sequential count matches.
			if w == "" || strings.IndexFunc(w, unicode.IsSpace) >= 0 || !utf8.ValidString(w) {
				continue
			}
			lines = append(lines, w)
		}
		out, err := Run(wordCountJob(4, 8), lines)
		if err != nil {
			return false
		}
		seq := map[string]int{}
		for _, l := range lines {
			seq[l]++
		}
		if len(out) != len(seq) {
			return false
		}
		for _, o := range out {
			if seq[o[0].(string)] != o[1].(int) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEmptyInput(t *testing.T) {
	out, err := Run(wordCountJob(4, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("empty input produced %d outputs", len(out))
	}
}

func TestConfigErrors(t *testing.T) {
	j := wordCountJob(1, 1)
	j.Map = nil
	if _, err := Run(j, corpus); err == nil {
		t.Error("accepted job without Map")
	}
	j = wordCountJob(1, 1)
	j.KeyHash = nil
	if _, err := Run(j, corpus); err == nil {
		t.Error("accepted job without KeyHash")
	}
}

func TestMapPanicSurfacesAsError(t *testing.T) {
	j := wordCountJob(2, 4)
	j.Map = func(line string, emit func(string, int)) { panic("boom") }
	if _, err := Run(j, corpus); err == nil || !strings.Contains(err.Error(), "map phase panicked") {
		t.Errorf("map panic not surfaced: %v", err)
	}
}

func TestReducePanicSurfacesAsError(t *testing.T) {
	j := wordCountJob(2, 4)
	j.Reduce = func(k string, vs []int, emit func([2]any)) { panic("boom") }
	if _, err := Run(j, corpus); err == nil || !strings.Contains(err.Error(), "reduce phase panicked") {
		t.Errorf("reduce panic not surfaced: %v", err)
	}
}

func TestValuesGroupedCompletely(t *testing.T) {
	// Each key must see all its values in one Reduce call.
	var calls int64
	j := Job[int, int, int, int]{
		Name: "group",
		Map:  func(in int, emit func(int, int)) { emit(in%7, in) },
		Reduce: func(k int, vs []int, emit func(int)) {
			atomic.AddInt64(&calls, 1)
			emit(len(vs))
		},
		KeyHash: func(k int) uint64 { return uint64(k) },
	}
	inputs := make([]int, 700)
	for i := range inputs {
		inputs[i] = i
	}
	out, err := Run(j, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("Reduce called %d times, want 7", calls)
	}
	for _, n := range out {
		if n != 100 {
			t.Errorf("group size %d, want 100", n)
		}
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Add("x", 1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Get("x"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

func TestIterate(t *testing.T) {
	state, rounds := Iterate(0, 10, func(s, r int) (int, bool) {
		return s + 1, s+1 >= 4
	})
	if state != 4 || rounds != 4 {
		t.Errorf("Iterate converged at state=%d rounds=%d, want 4/4", state, rounds)
	}
	state, rounds = Iterate(0, 3, func(s, r int) (int, bool) { return s + 1, false })
	if state != 3 || rounds != 3 {
		t.Errorf("Iterate forced stop at state=%d rounds=%d, want 3/3", state, rounds)
	}
	state, rounds = Iterate(42, 0, func(s, r int) (int, bool) { return s + 1, false })
	if state != 42 || rounds != 0 {
		t.Errorf("Iterate with maxRounds=0 ran: state=%d rounds=%d", state, rounds)
	}
}

func TestLargeInputManyPartitions(t *testing.T) {
	inputs := make([]string, 5000)
	for i := range inputs {
		inputs[i] = strings.Repeat("w", 1+i%17)
	}
	out, err := Run(wordCountJob(8, 64), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 17 {
		t.Fatalf("distinct keys = %d, want 17", len(out))
	}
	total := 0
	for _, o := range out {
		total += o[1].(int)
	}
	if total != 5000 {
		t.Errorf("total count = %d, want 5000", total)
	}
}

func TestEmitsPerInputHintDoesNotChangeResults(t *testing.T) {
	inputs := make([]int, 5000)
	for i := range inputs {
		inputs[i] = i
	}
	job := Job[int, int, int, [2]int]{
		Name: "hinted",
		Map: func(in int, emit func(int, int)) {
			emit(in%97, 1)
			emit(in%89, 2)
		},
		Reduce: func(k int, vs []int, emit func([2]int)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit([2]int{k, sum})
		},
		KeyHash: func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 },
	}
	plain, err := Run(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	job.EmitsPerInput = 2
	hinted, err := Run(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(hinted) {
		t.Fatalf("hinted output size %d, want %d", len(hinted), len(plain))
	}
	for i := range plain {
		if plain[i] != hinted[i] {
			t.Fatalf("output %d differs: %v vs %v", i, hinted[i], plain[i])
		}
	}
}
