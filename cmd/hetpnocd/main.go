// Command hetpnocd serves photonic-NoC simulations over HTTP/JSON: a
// bounded worker pool executes hetpnoc runs, identical configs are
// deduplicated through a content-addressed result cache, duplicate
// in-flight requests coalesce onto one simulation, and a full queue
// answers 429 with a Retry-After hint. SIGINT/SIGTERM drain gracefully.
//
// Usage:
//
//	hetpnocd -addr :8347 -workers 8 -queue 16 -cache 1024
//
// Endpoints: POST /v1/run, POST /v1/sweep, GET /healthz, GET /metricsz.
// The API and its semantics are documented in docs/SERVING.md.
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

	"hetpnoc/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hetpnocd:", err)
		os.Exit(1)
	}
}

// serverConfig maps the flag values onto the serve configuration.
func serverConfig(workers, queue, cacheCap, maxCycles int, jobTimeout, retryAfter time.Duration) serve.Config {
	return serve.Config{
		Workers:       workers,
		QueueDepth:    queue,
		CacheCapacity: cacheCap,
		JobTimeout:    jobTimeout,
		MaxCycles:     maxCycles,
		RetryAfter:    retryAfter,
	}
}

// The connection deadlines. A client has readHeaderTimeout to send its
// request line and headers, so one that trickles a partial header
// (slowloris) cannot hold a goroutine and a file descriptor for ever; a
// keep-alive connection with no request in flight is closed after
// idleTimeout. Request bodies are bounded in size and in time by the
// handlers (internal/serve's bodyTimeout), and no deadline covers a
// simulation.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the daemon's listener-side server: h at addr, with the
// connection deadlines.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// run is the daemon body: flag parsing, server construction, signal
// handling and graceful drain.
func run(args []string) error {
	fs := flag.NewFlagSet("hetpnocd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8347", "listen address")
		workers    = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		cacheCap   = fs.Int("cache", 1024, "result cache entries")
		jobTimeout = fs.Duration("job-timeout", 2*time.Minute, "per-simulation timeout (0 = none)")
		maxCycles  = fs.Int("max-cycles", 10_000_000, "largest accepted cycle count per request (0 = unlimited)")
		retryAfter = fs.Duration("retry-after", time.Second, "backoff hint sent with 429 responses")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight work on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "hetpnocd: ", log.LstdFlags)
	srv := serve.New(serverConfig(*workers, *queue, *cacheCap, *maxCycles, *jobTimeout, *retryAfter))
	httpSrv := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving on %s (workers, queue, cache per /metricsz)", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		// The listener died before any signal (bad address, port in
		// use). The worker pool is already running; drain it so its
		// goroutines exit rather than leaking into the caller.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if poolErr := srv.Close(drainCtx); poolErr != nil && err == nil {
			err = fmt.Errorf("pool drain: %w", poolErr)
		}
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// in-flight simulations finish inside the grace period.
	logger.Printf("signal received, draining (up to %s)", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	poolErr := srv.Close(drainCtx)
	if err := <-errc; err != nil {
		return err
	}
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	if poolErr != nil {
		return fmt.Errorf("pool drain: %w", poolErr)
	}
	logger.Printf("drained cleanly")
	return nil
}
