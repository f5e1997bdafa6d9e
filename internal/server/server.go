// Package server implements kfserved: a long-running fusion service that
// owns the live compiled-graph chain and serves fused posteriors over a
// versioned JSON API. The wire contract (routes, DTOs, typed errors) lives
// in internal/httpapi, shared with the typed client in kfusion/client.
//
// # Lifecycle
//
// New validates the configuration, binds the method to its append chain
// (genstore.Chain, the chain kfuse -append runs) and builds the router;
// Hydrate opens the generation store (genstore.Open + journal replay through
// Chain.Apply — the restart path is load-and-replay, never recompile),
// refuses a state another method built (Chain.Check) and publishes the
// recovered generation; Close drains nothing itself (callers
// drain HTTP via http.Server.Shutdown first) but takes the writer lock,
// waits out an in-flight append, writes a final snapshot and closes the
// store. Until Hydrate completes, /readyz reports 503 and every data route
// returns the not_ready error; /healthz is live from the start.
//
// # Generation visibility
//
// Readers never lock: the current generation is an immutable genView behind
// one atomic pointer. An append journals the batch (durability point),
// applies it (incremental graph Append + warm EM), publishes the new view
// with a single pointer swap, and only then takes the periodic snapshot and
// replies — readers see generation g as soon as it exists, not after the
// snapshot of it. A reader holds whichever generation it loaded for its
// whole request, and two reads inside one request never mix generations.
// Appends are single-writer: a second concurrent append is rejected with the
// busy error rather than queued, so the caller owns retry policy and the
// handler never blocks the drain path.
//
// A view holds no rows. It holds the generation's posterior in the engine's
// own form — one probability per compiled triple over the compiled graph
// generation (fusion.Posterior, which the append chain keeps instead of the
// materialised fusion.Result) — and assembles a response row when a request
// needs it: the triple and the support counts are the graph's columns, the
// probability the posterior's. A whole-generation /v1/triples scan filters on
// the probability column and the predicate before it assembles anything. The
// append path never materialises the exchange form, every row plus the
// provenance-accuracy map: a snapshot stores the posterior's own columns.
//
// A view is built from its predecessor, not from scratch. Row positions are
// compiled triple IDs and stable along the chain, so the read index is a
// short list of immutable layers over contiguous position ranges: an append
// indexes only the positions it added, shares every older layer with the
// previous view by pointer, and merges trailing layers by the logarithmic
// method (genView.grow) — at most log2(n)+1 layers, which is what a lookup
// visits, and amortised O(log n) index work per new row. Nothing a published
// view can reach is ever written again — a graph generation addresses only
// its own clipped prefix of the columns the chain keeps extending, its CSRs
// and the posterior's columns are written once — so a reader parked on an
// old generation needs no synchronisation with the appends behind it, and
// what it pins is that generation's graph and two columns, not a row copy.
// Hydrate indexes the recovered generation as one layer: the snapshot stores
// the posterior's columns, and the decoder rebuilds it over the recovered
// graph (columns that do not fit that graph make the snapshot corrupt, and
// recovery falls back one rung).
package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"kfusion/internal/extract"
	"kfusion/internal/faultfs"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
)

// Config parameterizes a Server.
type Config struct {
	// StateDir is the durable state directory (genstore journal +
	// snapshots). Required unless FS is set.
	StateDir string
	// FS overrides the state filesystem (tests and in-memory benchmarks
	// inject faultfs.Mem here). When set, StateDir is ignored.
	FS faultfs.FS
	// Method is the fusion method the daemon serves: vote, accu, popaccu,
	// popaccu+unsup or twolayer. Default popaccu.
	Method string
	// Granularity overrides the claim-layer provenance granularity; the
	// zero value keeps the method preset.
	Granularity fusion.Granularity
	// SiteLevel keys twolayer sources at site level.
	SiteLevel bool
	// Workers bounds fusion/compile parallelism (0 = all cores).
	Workers int
	// WarmRounds is the EM round budget of each post-cold append (online
	// EM; default 1; negative is refused). The first batch always
	// cold-fuses at the method's full round cap.
	WarmRounds int
	// SnapshotEvery snapshots the store after this many appends (0 means
	// the default, 16; the journal makes every append durable regardless —
	// snapshots only bound restart replay time). Negative snapshots only on
	// Close.
	SnapshotEvery int
	// MaxBody caps the append request body in bytes (default 64 MiB;
	// negative is refused).
	MaxBody int64
	// Logf receives operational log lines (degradations, snapshot
	// failures). Nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.WarmRounds < 0 || out.MaxBody < 0 {
		return out, fmt.Errorf("server: WarmRounds (%d) and MaxBody (%d) must not be negative", out.WarmRounds, out.MaxBody)
	}
	if out.Method == "" {
		out.Method = "popaccu"
	}
	if out.WarmRounds == 0 {
		out.WarmRounds = 1
	}
	if out.SnapshotEvery == 0 {
		out.SnapshotEvery = 16
	}
	if out.MaxBody == 0 {
		out.MaxBody = 64 << 20
	}
	if out.FS == nil && out.StateDir == "" {
		return out, fmt.Errorf("server: config needs a StateDir (or an injected FS)")
	}
	return out, nil
}

// Server is the kfserved daemon core, independent of any listener: Handler
// exposes the API, so tests mount it on httptest and cmd/kfserved on a real
// http.Server.
type Server struct {
	cfg     Config
	chain   *genstore.Chain
	handler http.Handler

	// current is the published generation; nil until Hydrate completes.
	// Readers load it exactly once per request.
	current atomic.Pointer[genView]

	// mu is the single-writer lock: appends TryLock it (busy on
	// contention), Hydrate and Close take it. Readers never touch it.
	mu        sync.Mutex
	store     *genstore.Store
	st        *genstore.State
	sinceSnap int
	closed    bool
}

// New validates cfg and builds the server. The store is not opened yet:
// call Hydrate (synchronously or in the background) before the data routes
// can answer.
func New(cfg Config) (*Server, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	chain, err := newChain(&full)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: full, chain: chain}
	s.handler = newRouter(s)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the HTTP API handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Ready reports whether hydration has completed and a generation is
// published.
func (s *Server) Ready() bool { return s.current.Load() != nil }

// Hydrate opens (or creates) the generation store and publishes the
// recovered generation: newest valid snapshot plus journal replay through
// the method's append chain — by the append contract, bit-identical to the
// uncrashed process's state. Degradations are logged, never fatal; a state
// directory built by a different method or granularity is.
func (s *Server) Hydrate() error {
	fsys := s.cfg.FS
	if fsys == nil {
		var err error
		fsys, err = faultfs.NewOS(s.cfg.StateDir)
		if err != nil {
			return err
		}
	}
	store, st, err := genstore.OpenFS(fsys, s.chain.Apply)
	if err != nil {
		return err
	}
	for _, d := range store.Degradations() {
		s.logf("state recovery: %s", d)
	}
	// A foreign method, granularity or source level, or two-layer
	// parameters that are not the graph's, is refused here: with nothing
	// journaled after the snapshot, no Apply has checked the state yet.
	if err := s.chain.Check(st); err != nil {
		store.Close()
		return fmt.Errorf("server: state directory: %w", err)
	}

	v := newGenView(st)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		store.Close()
		return fmt.Errorf("server: hydrate after Close")
	}
	if s.store != nil {
		s.mu.Unlock()
		store.Close()
		return fmt.Errorf("server: already hydrated")
	}
	s.store, s.st = store, st
	// Published under the writer lock: Append grows the published view, so
	// it must never find the store open and no view behind it.
	s.current.Store(v)
	s.mu.Unlock()
	s.logf("hydrated generation %d (%d extractions consumed, %d fused triples)",
		st.Batches, st.Consumed, v.len())
	return nil
}

// Append folds one extraction batch into the live chain: journal (the
// durability point — a crash after this replays the batch on restart),
// incremental graph Append plus warm EM via the method's chain, an atomic
// publish of the new generation, then the periodic snapshot when one is
// due. Single-writer: a concurrent append returns ErrBusy instead of
// queuing, until this one has replied. A failed periodic snapshot is logged
// and does not fail the append — the journal already holds the batch.
func (s *Server) Append(batch []extract.Extraction) (*httpapi.AppendResponse, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", httpapi.ErrBadBatch)
	}
	if !s.mu.TryLock() {
		return nil, fmt.Errorf("%w: another append holds the writer slot", httpapi.ErrBusy)
	}
	defer s.mu.Unlock()
	if s.store == nil || s.closed {
		return nil, fmt.Errorf("%w: hydration has not completed", httpapi.ErrNotReady)
	}
	if err := s.store.Append(s.st, batch); err != nil {
		return nil, err
	}
	// Publish before the periodic snapshot: the batch is already durable in
	// the journal, so readers need not wait out the snapshot to see it.
	v := s.current.Load().grow(s.st)
	s.current.Store(v)
	s.sinceSnap++
	if s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery {
		if err := s.store.Snapshot(s.st); err != nil {
			s.logf("periodic snapshot failed (journal still durable): %v", err)
		} else {
			s.sinceSnap = 0
		}
	}
	return &httpapi.AppendResponse{
		Generation: v.generation,
		Added:      len(batch),
		Triples:    v.len(),
		Rounds:     s.st.Posterior.Rounds,
	}, nil
}

// Close takes the writer lock (waiting out an in-flight append), writes a
// final snapshot and closes the store. Callers drain HTTP first
// (http.Server.Shutdown); after Close every data route reports not ready.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.store == nil {
		return nil
	}
	err := s.store.Snapshot(s.st)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	s.store = nil
	return err
}

// view returns the published generation, or the typed not-ready error
// before hydration.
func (s *Server) view() (*genView, error) {
	v := s.current.Load()
	if v == nil {
		return nil, fmt.Errorf("%w: hydration has not completed", httpapi.ErrNotReady)
	}
	return v, nil
}

// Status summarizes the published generation for /v1/status.
func (s *Server) Status() *httpapi.StatusResponse {
	resp := &httpapi.StatusResponse{Method: s.cfg.Method}
	if v := s.current.Load(); v != nil {
		resp.Ready = true
		resp.Generation = v.generation
		resp.Consumed = v.consumed
		resp.Triples = v.len()
	}
	return resp
}
