package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public function. Parent is the span that caused
// it (0 for a root); Req groups the spans of one repetition or request.
type span struct {
	Name       string
	ID, Parent int64
	Req        int64
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is tracing switched off: it hands out nil scopes, and every method
// of a nil scope is a no-op, so workload code is written once.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// scope opens a span stack for one goroutine's repetition or one request.
// parent links the stack's root spans to the span that caused them (a
// client call causing a handler), 0 for none.
func (tr *tracer) scope(parent int64) *scope {
	if tr == nil {
		return nil
	}
	return &scope{tr: tr, req: tr.nextReq.Add(1), parent: parent}
}

// add accumulates a counter row (records parsed, bytes written, ...).
func (tr *tracer) add(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.counts[name] += v
	tr.mu.Unlock()
}

// set overwrites a counter row with a gauge value.
func (tr *tracer) set(name string, v float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.counts[name] = v
	tr.mu.Unlock()
}

// since is the time on the tracer's clock (0 with tracing off); workloads
// bracket their timed region with it.
func (tr *tracer) since() time.Duration {
	if tr == nil {
		return 0
	}
	return time.Since(tr.t0)
}

// scope is a stack of open spans owned by one goroutine.
type scope struct {
	tr     *tracer
	req    int64
	parent int64
	open   []span
}

func (s *scope) begin(name string) {
	if s == nil {
		return
	}
	s.open = append(s.open, span{
		Name:   name,
		ID:     s.tr.nextID.Add(1),
		Parent: s.current(),
		Req:    s.req,
		Start:  s.tr.since(),
	})
}

func (s *scope) end() {
	if s == nil {
		return
	}
	sp := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	sp.End = s.tr.since()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
}

// add accumulates a counter row on the scope's tracer.
func (s *scope) add(name string, v float64) {
	if s != nil {
		s.tr.add(name, v)
	}
}

// set overwrites a gauge row on the scope's tracer.
func (s *scope) set(name string, v float64) {
	if s != nil {
		s.tr.set(name, v)
	}
}

// current is the innermost open span, or the scope's cause when none is.
func (s *scope) current() int64 {
	if s == nil {
		return 0
	}
	if n := len(s.open); n > 0 {
		return s.open[n-1].ID
	}
	return s.parent
}

// selfTimes sums per span name the self time — duration minus the direct
// children's durations — of every span lying inside [from, to]. Children of
// one scope are sequential, so their durations never overlap.
func selfTimes(spans []span, from, to time.Duration) map[string]float64 {
	child := map[int64]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		if sp.Start < from || sp.End > to {
			continue
		}
		out[sp.Name] += (sp.End - sp.Start - child[sp.ID]).Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`  // microseconds
	Dur  float64          `json:"dur"` // microseconds
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"` // one per repetition/request
	Args map[string]int64 `json:"args"`
}

// writeChrome dumps the spans as a Chrome trace (chrome://tracing, Perfetto).
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		events = append(events, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			Pid:  1,
			Tid:  sp.Req,
			Args: map[string]int64{"id": sp.ID, "parent": sp.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
