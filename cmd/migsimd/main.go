// Command migsimd serves the hybridmig scenario engine over HTTP:
// simulation as a service. It accepts JSON scenario specs, runs them on a
// bounded worker pool with FIFO admission and load shedding, and exposes
// per-run status, typed results, cancellation, live NDJSON trace streaming,
// and Prometheus-style text metrics.
//
// Usage:
//
//	migsimd [-addr :8080] [-workers N] [-queue N] [-max-wall 300]
//
// Endpoints: POST /v1/runs, GET /v1/runs, GET /v1/runs/{id},
// GET /v1/runs/{id}/result, POST /v1/runs/{id}/cancel,
// GET /v1/runs/{id}/events, GET /metrics, GET /healthz, GET /readyz.
// See README.md for a curl quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hybridmig/hybridmig/internal/service"
	_ "github.com/hybridmig/hybridmig/internal/strategy/adaptive" // register the sixth strategy
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 16, "admission queue depth; a full queue sheds with HTTP 429")
		maxWall  = flag.Float64("max-wall", 300, "per-run wall-clock budget cap in seconds (runaway breaker)")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "migsimd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	if *pprofSrv != "" {
		// The profiler gets its own listener so it is never exposed on the
		// service address; net/http/pprof registers on DefaultServeMux, which
		// the service handler does not use.
		go func() {
			log.Printf("migsimd: pprof on http://%s/debug/pprof/", *pprofSrv)
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				log.Printf("migsimd: pprof: %v", err)
			}
		}()
	}

	srv := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		MaxWall:    time.Duration(*maxWall * float64(time.Second)),
	})
	srv.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("migsimd: listening on %s (workers=%d queue=%d max-wall=%gs)",
		*addr, *workers, *queue, *maxWall)

	select {
	case <-ctx.Done():
		log.Printf("migsimd: shutting down")
	case err := <-errc:
		log.Fatalf("migsimd: serve: %v", err)
	}

	// Stop accepting connections first, then drain the pool: queued and
	// running runs are canceled and workers exit once they finish tearing
	// their runs down.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("migsimd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("migsimd: pool shutdown: %v", err)
	}
	log.Printf("migsimd: bye")
}
