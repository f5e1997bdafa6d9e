package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kfusion/client"
	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
	"kfusion/internal/server"
)

// snapshotEvery is kfserved's default snapshot cadence, which the
// write-path replica has to repeat.
const snapshotEvery = 16

// traceHeader carries the client span that caused a request, so the
// handler's span can name it as parent.
const traceHeader = "X-Bench-Span"

// runServeMixed is kfserved as deployed: a real state directory, Handler()
// on a loopback listener, the typed client. Set-up builds a state whose
// directory holds a snapshot plus journaled batches; the timed part cold
// boots copies of it, then runs a mixed phase on exactly two connections —
// one closed-loop appender (kfserved is single-writer) and one open-loop
// reader — against the popaccu daemon, and a shorter one against a twolayer
// daemon. It is the only workload that crosses genstore, server, httpapi,
// client and the disk, and reads beside writes expose an append optimisation
// that pushes its cost onto readers.
func runServeMixed(e *env) (*outcome, error) {
	setup := time.Now()
	cal := newCalibrator()
	sc := e.tr.scope(0)
	xs, err := loadFeed(sc, nil, e.feed, "setup.parse")
	if err != nil {
		return nil, err
	}
	sz := sizesFor(e.seconds, len(xs))
	head := sz.head
	batch := func(i int) []extract.Extraction {
		return xs[head+i*sz.serveBatch : head+(i+1)*sz.serveBatch]
	}
	items := make([]kb.DataItem, 0, 4096) // every one is in the prepared view
	for i := 0; len(items) < cap(items); i++ {
		items = append(items, xs[(i*7919)%head].Triple.Item())
	}

	// Prepared state: one cold append of the feed's head, then prepAppends
	// small ones, copied while the daemon idles so the copy holds the last
	// periodic snapshot plus the journaled batches after it.
	sc.begin("setup.prime")
	prepared := filepath.Join(e.dir, "prepared")
	tlDaemon, err := primeServe(e, xs[:head], batch, prepAppends, prepared)
	sc.end()
	if err != nil {
		return nil, err
	}
	defer tlDaemon.stop()
	preparedGen := 1 + prepAppends
	bootDirs := make([]string, boots)
	for i := range bootDirs {
		bootDirs[i] = filepath.Join(e.dir, fmt.Sprintf("boot-%d", i))
		if err := copyDir(prepared, bootDirs[i]); err != nil {
			return nil, err
		}
	}
	timedBatches := make([][]extract.Extraction, sz.appends)
	for i := range timedBatches {
		timedBatches[i] = batch(prepAppends + i)
	}
	setupS := time.Since(setup).Seconds()

	region := beginTimed(e.tr)

	// Cold boots: New + Hydrate + listen + first served posterior.
	var bootS []float64
	var live *daemon
	for _, dir := range bootDirs {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		bs := e.tr.scope(0)
		bs.begin("bench.boot")
		live, err = startDaemon(bs, e.tr, dir, "popaccu")
		if err != nil {
			bs.end()
			return nil, err
		}
		c, _ := newClient(live.base)
		resp, err := c.Item(context.Background(), string(items[0].Subject), string(items[0].Predicate))
		bs.end()
		if err != nil {
			live.stop()
			return nil, fmt.Errorf("first read after boot: %w", err)
		}
		bootS = append(bootS, time.Since(t).Seconds())
		if resp.Generation != preparedGen {
			live.stop()
			return nil, checkf("booted generation %d, prepared %d", resp.Generation, preparedGen)
		}
	}
	defer live.stop()

	mix, err := mixedPhase(e.tr, cal, live.base, timedBatches, items, readRate, preparedGen)
	if err != nil {
		return nil, err
	}
	// The two-layer daemon runs untraced: the server.* rows and the replica
	// describe the popaccu write path only.
	tlMix, err := mixedPhase(nil, cal, tlDaemon.base, timedBatches[:sz.tlAppends], items, readRate, 1)
	if err != nil {
		return nil, err
	}
	region.end()

	// Output checks. The oracle is a second daemon booted from a copy of the
	// live state directory: snapshot decode plus journal replay must rebuild
	// the served generation bit for bit, and sampled Item answers must equal
	// its rows.
	finalGen := preparedGen + len(timedBatches)
	c, _ := newClient(live.base)
	served, err := dump(c, finalGen)
	if err != nil {
		return nil, err
	}
	oracleDir := filepath.Join(e.dir, "oracle")
	if err := copyDir(live.dir, oracleDir); err != nil {
		return nil, err
	}
	oracle, err := startDaemon(nil, nil, oracleDir, "popaccu")
	if err != nil {
		return nil, err
	}
	oc, _ := newClient(oracle.base)
	replayed, err := dump(oc, finalGen)
	if cerr := oracle.stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	digest := digestResult(served)
	if d := digestResult(replayed); d != digest {
		return nil, checkf("a daemon rebooted from the live state serves digest %s, the live one %s", d, digest)
	}
	if err := checkItems(c, items[:200], replayed, finalGen); err != nil {
		return nil, err
	}

	if e.tr != nil {
		rep, err := replica(e, filepath.Join(e.dir, "replica"), prepared, timedBatches, fileSize(e.feed)/float64(len(xs)))
		if err != nil {
			return nil, err
		}
		// The wire carries the rows, not the round count or the provenance
		// accuracies, so only the rows are compared.
		if d := digestResult(&fusion.Result{Triples: rep.Triples}); d != digest {
			return nil, checkf("the write-path replica ends at digest %s, the server at %s", d, digest)
		}
	}

	label, err := loadGold(e.gold)
	if err != nil {
		return nil, err
	}
	m := map[string]sample{}
	evaluate(sc, served, label).into(m)
	m["boot_s"] = sample{Value: median(bootS), Unit: "s", N: len(bootS)}
	pct := func(name string, ms []float64, p float64) {
		m[name] = sample{Value: percentile(sortedCopy(ms), p), Unit: "ms", N: len(ms), Pct: p, Beyond: beyond(len(ms), p)}
	}
	appendMs := make([]float64, len(mix.appends)) // latencies stay as the client's clock saw them
	for i, l := range mix.appends {
		appendMs[i] = 1000 * l.wallS
	}
	pct("append_p50_ms", appendMs, 50)
	pct("read_p50_ms", mix.readMs, 50)
	pct("read_p95_ms", mix.readMs, 95)
	// Closed loop, so the ingest rate is the batch over the append latency;
	// the median keeps snapshots out of it (they are the p95's business).
	times := cal.unloaded(mix.appends)
	m["fusion_claims_per_s"] = rate(float64(sz.serveBatch), times)
	m["twolayer_claims_per_s"] = rate(float64(sz.serveBatch), cal.unloaded(tlMix.appends))
	if e.tr != nil {
		e.tr.set("client.read_p99_ms", percentile(sortedCopy(mix.readMs), 99))
		// The snapshot tail: SnapshotEvery=16 puts one append in 16 beyond
		// it. A per-layer row, because it moved 20-36% between runs of one
		// build where the issue allows a bound of 15% at most.
		e.tr.set("client.append_p95_ms", percentile(sortedCopy(appendMs), 95))
		e.tr.set("client.append_max_ms", percentile(sortedCopy(appendMs), 100))
		e.tr.set("client.append_body_bytes", float64(mix.bodyBytes))
		e.tr.set("loadgen.reader_sent", float64(mix.readsSent))
		e.tr.set("loadgen.reader_late_p99_ms", percentile(sortedCopy(mix.lateMs), 99))
	}
	return &outcome{
		metrics:   m,
		digest:    digest,
		attempted: len(bootS) + mix.attempted + tlMix.attempted,
		failed:    mix.failed + tlMix.failed,
		setupS:    setupS,
		region:    region,
		cal:       cal,
		unitS:     median(times),
	}, nil
}

// primeServe builds the prepared popaccu state directory and returns a
// running twolayer daemon holding the feed's head.
func primeServe(e *env, head []extract.Extraction, batch func(int) []extract.Extraction, prepAppends int, prepared string) (*daemon, error) {
	build, err := startDaemon(nil, nil, filepath.Join(e.dir, "build"), "popaccu")
	if err != nil {
		return nil, err
	}
	defer build.stop()
	if _, err := build.srv.Append(head); err != nil {
		return nil, err
	}
	for i := 0; i < prepAppends; i++ {
		if _, err := build.srv.Append(batch(i)); err != nil {
			return nil, err
		}
	}
	if err := copyDir(build.dir, prepared); err != nil {
		return nil, err
	}
	tl, err := startDaemon(nil, nil, filepath.Join(e.dir, "twolayer"), "twolayer")
	if err != nil {
		return nil, err
	}
	if _, err := tl.srv.Append(head); err != nil {
		tl.stop()
		return nil, err
	}
	return tl, nil
}

// daemon is kfserved's core on a loopback listener.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	dir     string
	base    string
	served  chan error
	stopped bool
}

// startDaemon is kfserved's boot: New, Hydrate, listen, serve. With a
// tracer, every request is wrapped in a handler span.
func startDaemon(sc *scope, tr *tracer, dir, method string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sc.begin("server.hydrate")
	srv, err := server.New(server.Config{StateDir: dir, Method: method})
	if err == nil {
		err = srv.Hydrate()
	}
	sc.end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: spanHandler(tr, srv.Handler())},
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains HTTP, waits for the serving goroutine and closes the store.
func (d *daemon) stop() error {
	if d == nil || d.stopped {
		return nil
	}
	d.stopped = true
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanHandler is the timing middleware around Server.Handler().
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		sc := tr.scope(parent)
		name := "server.read_handler"
		if r.Method == http.MethodPost {
			name = "server.append_handler"
		}
		sw := &statusWriter{ResponseWriter: w}
		sc.begin(name)
		h.ServeHTTP(sw, r)
		sc.end()
		if sw.status == http.StatusConflict {
			tr.add("server.busy_409", 1)
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

type spanKey struct{}

// wire is the client's transport: one connection, the causing span's ID in
// a header, and a count of request body bytes.
type wire struct {
	base http.RoundTripper
	body atomic.Int64
}

func (t *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatInt(id, 10))
	}
	if req.ContentLength > 0 {
		t.body.Add(req.ContentLength)
	}
	return t.base.RoundTrip(req)
}

// newClient is the typed client over its own single connection, with
// retries off so every failure is counted.
func newClient(base string) (*client.Client, *wire) {
	w := &wire{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: w}),
		client.WithTimeout(60*time.Second), client.WithRetries(0, 0))
	if err != nil {
		panic(err) // base comes from our own listener
	}
	return c, w
}

// call runs one client request under a span whose ID travels with it.
func call(tr *tracer, name string, fn func(ctx context.Context) error) error {
	if tr == nil {
		return fn(context.Background())
	}
	sc := tr.scope(0)
	sc.begin(name)
	err := fn(context.WithValue(context.Background(), spanKey{}, sc.current()))
	sc.end()
	return err
}

type mixStats struct {
	appends           []lap
	readMs, lateMs    []float64
	readsSent         int
	bodyBytes         int64
	attempted, failed int
}

// mixedPhase runs the closed-loop appender and the open-loop reader side by
// side until the appender has sent every batch.
func mixedPhase(tr *tracer, cal *calibrator, base string, batches [][]extract.Extraction, items []kb.DataItem, rate float64, startGen int) (*mixStats, error) {
	st := &mixStats{}
	ac, aw := newClient(base)
	rc, _ := newClient(base)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readFailed int

	wg.Add(1)
	go func() { // open loop: due times never wait for replies
		defer wg.Done()
		sched := schedule{rate: rate}
		start := time.Now()
		lastGen := 0
		for i := 0; ; i++ {
			due := sched.due(i)
			select {
			case <-stop:
				return
			case <-time.After(due - time.Since(start)): // at once when the generator runs late
			}
			it := items[i%len(items)]
			sent := time.Since(start)
			var resp *httpapi.ItemResponse
			err := call(tr, "client.read_rtt", func(ctx context.Context) (err error) {
				resp, err = rc.Item(ctx, string(it.Subject), string(it.Predicate))
				return err
			})
			late, lat := account(due, sent, time.Since(start))
			if err != nil || len(resp.Triples) == 0 || resp.Generation < lastGen {
				readFailed++ // a failed or refused read is over any limit: it gets no latency
				continue
			}
			lastGen = resp.Generation
			st.readMs = append(st.readMs, lat)
			st.lateMs = append(st.lateMs, late)
		}
	}()

	var appendErr error
	cal.begin()
	for i, b := range batches {
		var resp *httpapi.AppendResponse
		err := call(tr, "client.append_rtt", func(ctx context.Context) (err error) {
			resp, err = ac.Append(ctx, b)
			return err
		})
		st.appends = append(st.appends, cal.end())
		if err != nil {
			st.failed++
			continue
		}
		if resp.Generation != startGen+i+1 || resp.Added != len(b) {
			appendErr = checkf("append %d published generation %d with %d records, want %d with %d",
				i, resp.Generation, resp.Added, startGen+i+1, len(b))
			break
		}
	}
	close(stop)
	wg.Wait()
	if appendErr != nil {
		return nil, appendErr
	}
	st.bodyBytes = aw.body.Load()
	st.readsSent = len(st.readMs) + readFailed
	st.failed += readFailed
	st.attempted = len(batches) + st.readsSent
	return st, nil
}

// dump reads the daemon's whole fused view back as a fusion.Result.
func dump(c *client.Client, wantGen int) (*fusion.Result, error) {
	resp, err := c.Triples(context.Background(), client.TriplesQuery{Limit: 1 << 30})
	if err != nil {
		return nil, err
	}
	if resp.Generation != wantGen {
		return nil, checkf("daemon serves generation %d, want %d", resp.Generation, wantGen)
	}
	res := &fusion.Result{Triples: make([]fusion.FusedTriple, 0, len(resp.Triples))}
	for _, t := range resp.Triples {
		obj, err := kb.ParseObject(t.Object)
		if err != nil {
			return nil, err
		}
		res.Triples = append(res.Triples, fusion.FusedTriple{
			Triple:          kb.Triple{Subject: kb.EntityID(t.Subject), Predicate: kb.PredicateID(t.Predicate), Object: obj},
			Probability:     t.Probability,
			Predicted:       t.Predicted,
			Provenances:     t.Provenances,
			ItemProvenances: t.ItemProvenances,
			Extractors:      t.Extractors,
		})
	}
	return res, nil
}

// checkItems reads items through the item route and compares every answer
// bit for bit with the oracle's rows of the same generation.
func checkItems(c *client.Client, items []kb.DataItem, oracle *fusion.Result, gen int) error {
	rows := map[kb.DataItem][]httpapi.FusedTriple{}
	for _, t := range oracle.Triples {
		rows[t.Item()] = append(rows[t.Item()], httpapi.FromFused(t))
	}
	for _, it := range items {
		resp, err := c.Item(context.Background(), string(it.Subject), string(it.Predicate))
		if err != nil {
			return fmt.Errorf("read %v: %w", it, err)
		}
		want := rows[it]
		if resp.Generation != gen || len(resp.Triples) != len(want) {
			return checkf("item %v: %d rows of generation %d, oracle has %d of generation %d",
				it, len(resp.Triples), resp.Generation, len(want), gen)
		}
		for i := range want {
			if resp.Triples[i] != want[i] {
				return checkf("item %v row %d: served %+v, oracle %+v", it, i, resp.Triples[i], want[i])
			}
		}
	}
	return nil
}

// replica repeats the timed write path outside HTTP: genstore.Open on a
// copy of the prepared directory with an apply that makes the same calls as
// the server's claim driver, then the same batches with the same snapshot
// cadence. It decomposes a boot into restore and replay, and an append into
// journal, apply stages and snapshot; its final result must equal the
// server's.
func replica(e *env, dir, prepared string, batches [][]extract.Extraction, feedBytesPerRecord float64) (*fusion.Result, error) {
	if err := copyDir(prepared, dir); err != nil {
		return nil, err
	}
	sc := e.tr.scope(0)
	cfg := fusion.PopAccuConfig()
	warm := cfg
	warm.Rounds = 1
	var stream *fusion.ClaimStream
	var applyS, appendS, fuseS float64
	timed := func(name string, acc *float64, fn func() error) error {
		t := time.Now()
		sc.begin(name)
		err := fn()
		sc.end()
		*acc += time.Since(t).Seconds()
		return err
	}
	calls := 0
	apply := func(st *genstore.State, b []extract.Extraction) error {
		t := time.Now()
		defer func() { applyS += time.Since(t).Seconds() }()
		if stream == nil {
			if st.Claim != nil {
				stream = fusion.SeedClaimStream(cfg.Granularity, st.Claim)
			} else {
				stream = fusion.NewClaimStream(cfg.Granularity)
			}
		}
		claims := stream.Add(b)
		run := warm
		if st.Claim == nil {
			run = cfg
			c, err := fusion.CompileWorkers(claims, 0, 0)
			if err != nil {
				return err
			}
			st.Claim = c
		} else if err := timed("fusion.append", &appendS, func() (err error) {
			st.Claim, err = st.Claim.Append(claims)
			return err
		}); err != nil {
			return err
		}
		calls++
		err := timed("fusion.fusewarm", &fuseS, func() (err error) {
			st.Result, err = st.Claim.FuseWarm(run, st.Result)
			return err
		})
		st.Method, st.Gran = "popaccu", cfg.Granularity
		return err
	}

	t := time.Now()
	sc.begin("genstore.open")
	store, st, err := genstore.Open(dir, apply)
	sc.end()
	if err != nil {
		return nil, err
	}
	defer store.Close()
	e.tr.set("genstore.restore_busy_s", time.Since(t).Seconds()-applyS)
	e.tr.set("genstore.replay_busy_s", applyS)

	applyS, appendS, fuseS, calls = 0, 0, 0, 0
	var journalS, snapS, journalB, snapB, feedB float64
	snaps := 0
	for i, b := range batches {
		before, size := applyS, globSize(dir, "*.kfj")
		t := time.Now()
		sc.begin("genstore.append")
		err := store.Append(st, b)
		sc.end()
		if err != nil {
			return nil, err
		}
		journalS += time.Since(t).Seconds() - (applyS - before)
		journalB += globSize(dir, "*.kfj") - size
		feedB += feedBytesPerRecord * float64(len(b))
		if (i+1)%snapshotEvery == 0 {
			if err := timed("genstore.snapshot", &snapS, func() error { return store.Snapshot(st) }); err != nil {
				return nil, err
			}
			snaps++
			if names, _ := filepath.Glob(filepath.Join(dir, "snap-*.kfg")); len(names) > 0 {
				snapB += fileSize(names[len(names)-1]) // Glob sorts; the newest is last
			}
		}
	}
	e.tr.set("genstore.journal_busy_s", journalS)
	e.tr.set("genstore.journal_bytes", journalB)
	e.tr.set("genstore.snapshot_busy_s", snapS)
	e.tr.set("genstore.snapshot_bytes", snapB)
	e.tr.set("genstore.snapshots", float64(snaps))
	e.tr.set("genstore.bytes_per_feed_byte", (journalB+snapB)/feedB)
	e.tr.set("fusion.append_busy_s", appendS)
	e.tr.set("fusion.append_calls", float64(calls))
	e.tr.set("fusion.fusewarm_busy_s", fuseS)
	e.tr.set("replica.write_path_busy_s", journalS+applyS+snapS)
	return st.Result, nil
}

// globSize sums the sizes of dir's files matching pattern.
func globSize(dir, pattern string) float64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	total := 0.0
	for _, n := range names {
		total += fileSize(n)
	}
	return total
}

// copyDir copies a flat state directory (journal and snapshots).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
