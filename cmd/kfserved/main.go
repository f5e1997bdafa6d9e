// Command kfserved runs the long-running fusion service: it opens a durable
// state directory (genstore journal + snapshots), hydrates the compiled
// graph chain — a restart is load-and-replay, never a recompile — and
// serves fused posteriors over the versioned JSON API in internal/httpapi.
//
// Usage:
//
//	kfserved -state /var/lib/kfusion -addr :7607 -method popaccu
//
// The listener is up immediately: /healthz answers while hydration runs in
// the background, /readyz and the data routes return 503 not_ready until it
// completes. SIGINT/SIGTERM drain in-flight requests, then write a final
// snapshot before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kfusion/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("kfserved: ")

	var (
		state     = flag.String("state", "", "state directory (journal + snapshots); required")
		addr      = flag.String("addr", ":7607", "listen address")
		method    = flag.String("method", "popaccu", "fusion method: vote, accu, popaccu, popaccu+unsup, twolayer")
		gran      = flag.String("granularity", "", "provenance granularity: url, site, site-pred, site-pred-pattern; twolayer: url or site (default: method preset)")
		workers   = flag.Int("workers", 0, "fusion worker cap (0 = all cores)")
		warm      = flag.Int("warm-rounds", 1, "EM rounds per append after the cold start")
		snapEvery = flag.Int("snapshot-every", 16, "snapshot the store every N appends (0 = the default 16, negative = only on shutdown; the journal is durable regardless)")
		maxBody   = flag.Int64("max-body", 64<<20, "append request body cap in bytes")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()
	if *state == "" {
		log.Fatal("-state is required")
	}

	cfg := server.Config{
		StateDir:      *state,
		Method:        *method,
		Granularity:   *gran,
		Workers:       *workers,
		WarmRounds:    *warm,
		SnapshotEvery: *snapEvery,
		MaxBody:       *maxBody,
		Logf:          log.Printf,
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Hydrate in the background so the listener (and /healthz) is up
	// immediately; hydrateErr gates the exit status if recovery fails.
	hydrateErr := make(chan error, 1)
	go func() {
		start := time.Now()
		if err := srv.Hydrate(); err != nil {
			log.Printf("hydration failed: %v", err)
			hydrateErr <- err
			return
		}
		log.Printf("ready in %v", time.Since(start).Round(time.Millisecond))
		hydrateErr <- nil
	}()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		log.Printf("serving %s state on %s (method %s)", *state, *addr, *method)
		serveErr <- hs.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	exit := 0
	select {
	case sig := <-stop:
		log.Printf("received %v, draining", sig)
	case err := <-serveErr:
		log.Printf("listener failed: %v", err)
		exit = 1
	case err := <-hydrateErr:
		if err == nil {
			// Hydration finished; keep serving until a signal or listener
			// failure.
			select {
			case sig := <-stop:
				log.Printf("received %v, draining", sig)
			case err := <-serveErr:
				log.Printf("listener failed: %v", err)
				exit = 1
			}
		} else {
			exit = 1
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("final snapshot: %v", err)
		exit = 1
	} else {
		log.Print("state closed cleanly")
	}
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "kfserved: exiting with errors")
	}
	os.Exit(exit)
}
