// Package serve turns the simulator into a concurrent service: a
// bounded worker pool executes hetpnoc runs, a content-addressed LRU
// cache (internal/serve/cache) deduplicates identical configs, and
// identical in-flight requests coalesce onto a single simulation. The
// robustness semantics are explicit — per-request context cancellation
// threaded into the cycle loop, per-job timeouts, bounded-queue
// backpressure surfaced as ErrBusy (HTTP 429), and graceful drain on
// shutdown. See docs/SERVING.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetpnoc"
	"hetpnoc/internal/batch"
	"hetpnoc/internal/serve/cache"
)

// ErrBusy reports that both the worker pool and the admission queue are
// full; the caller should retry after backing off (HTTP maps it to 429
// with a Retry-After hint).
var ErrBusy = errors.New("serve: worker pool and queue are full")

// ErrDraining reports that the server is shutting down and no longer
// admits work.
var ErrDraining = errors.New("serve: server is draining")

// ErrSimulation wraps a simulator-side failure of an admitted run — the
// config validated but the run still errored (HTTP maps it to 500).
var ErrSimulation = errors.New("serve: simulation failed")

// Config parameterizes a Server. The zero value serves with
// GOMAXPROCS workers, a queue twice that deep, a 1024-entry cache and a
// 2-minute per-job timeout.
type Config struct {
	// Workers is the number of concurrent simulations (default
	// GOMAXPROCS).
	Workers int

	// QueueDepth bounds the jobs admitted but not yet running; beyond
	// it Submit fails fast with ErrBusy (default 2×Workers).
	QueueDepth int

	// CacheCapacity bounds the result cache entries (default 1024).
	CacheCapacity int

	// JobTimeout caps one simulation's lifetime from admission to
	// completion; 0 means no limit (default 2 minutes).
	JobTimeout time.Duration

	// MaxCycles rejects configs asking for more simulated cycles than
	// the service is willing to spend on one request; 0 means no limit
	// (default 10,000,000).
	MaxCycles int

	// RetryAfter is the backoff hint returned with ErrBusy responses
	// (default 1s).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 10_000_000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// flight is one admitted simulation and the set of requests subscribed
// to its outcome. The job context is refcounted: it is canceled only
// when every subscriber has gone away (or the job timeout fires), so one
// impatient client cannot abort a simulation another still wants.
type flight struct {
	cfg    hetpnoc.Config
	key    cache.Key
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	entry  *cache.Entry // the cached, rendered result, set when err is nil
	err    error

	subs int // guarded by Server.mu
}

// Server executes simulation requests on a bounded worker pool with
// result caching and request coalescing.
//
// Submit's call tree takes both the server mutex and the cache's
// internal mutex: the two critical sections never nest; keep it so.
type Server struct {
	cfg   Config
	cache *cache.Cache
	queue chan *flight

	// run simulates one flight's config — hetpnoc.RunContext; tests swap
	// it to inject faults into an admitted job.
	run func(context.Context, hetpnoc.Config) (hetpnoc.Result, error)
	// bodyTimeout and replyTimeout are the constants of those names;
	// tests shorten them.
	bodyTimeout, replyTimeout time.Duration

	baseCtx    context.Context
	baseCancel context.CancelFunc
	started    time.Time
	wg         sync.WaitGroup

	mu       sync.Mutex
	pending  map[cache.Key]*flight // guarded by mu
	draining bool                  // guarded by mu

	inFlight        atomic.Int64
	queued          atomic.Int64
	completed       atomic.Int64
	canceled        atomic.Int64
	failed          atomic.Int64
	panicked        atomic.Int64
	rejected        atomic.Int64
	coalesced       atomic.Int64
	cyclesSimulated atomic.Int64
}

// New starts a server: cfg.Workers goroutines consuming the admission
// queue. Stop it with Close. Every job's context derives from the
// server's base context, which Close cancels.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		cache:        cache.New(cfg.CacheCapacity),
		queue:        make(chan *flight, cfg.QueueDepth),
		run:          hetpnoc.RunContext,
		bodyTimeout:  bodyTimeout,
		replyTimeout: replyTimeout,
		baseCtx:      ctx,
		baseCancel:   cancel,
		started:      time.Now(),
		pending:      make(map[cache.Key]*flight),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Outcome is one Submit's result and how it was obtained.
type Outcome struct {
	Result hetpnoc.Result
	// Key is the content address the result is cached under.
	Key cache.Key
	// Cached reports a completed-cache hit: no simulation ran.
	Cached bool
	// Coalesced reports the request joined an identical in-flight
	// simulation instead of starting its own.
	Coalesced bool

	// entry is the cache entry Result was read from: its rendered bytes
	// are what the HTTP handlers reply with.
	entry *cache.Entry
}

// Submit validates, normalizes and executes cfg, deduplicating against
// the cache and identical in-flight runs. It blocks until the result is
// available, ctx is done, or admission fails with ErrBusy/ErrDraining.
// A miss whose ctx is already done is refused before admission, so a
// departed client never holds a queue slot.
func (s *Server) Submit(ctx context.Context, cfg hetpnoc.Config) (Outcome, error) {
	cfg, out, err := s.resolve(cfg)
	if err != nil || out.Cached {
		return out, err
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	fl, joined, err := s.admit(cfg, out.Key)
	if err != nil {
		return Outcome{}, err
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			return Outcome{}, fl.err
		}
	case <-ctx.Done():
		s.unsubscribe(fl)
		return Outcome{}, ctx.Err()
	}
	out.Result, out.entry, out.Coalesced = fl.entry.Result, fl.entry, joined
	return out, nil
}

// resolve is the front half of every submission: normalize, validate,
// apply the cycle limit, derive the content key and consult the cache.
// It returns the normalized config and an Outcome carrying the key and,
// on a cache hit, the result.
func (s *Server) resolve(cfg hetpnoc.Config) (hetpnoc.Config, Outcome, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return cfg, Outcome{}, err
	}
	if s.cfg.MaxCycles > 0 && cfg.Cycles > s.cfg.MaxCycles {
		return cfg, Outcome{}, fmt.Errorf("serve: %d cycles exceeds the per-request limit of %d", cfg.Cycles, s.cfg.MaxCycles)
	}
	canonical, err := cfg.CanonicalJSON()
	if err != nil {
		return cfg, Outcome{}, err
	}
	out := Outcome{Key: cache.KeyOf(canonical)}
	if out.entry, out.Cached = s.cache.Lookup(out.Key); out.Cached {
		out.Result = out.entry.Result
	}
	return cfg, out, nil
}

// admit enqueues a new flight for cfg without blocking, or subscribes
// the caller to an identical flight already in the pool. joined reports
// the latter.
func (s *Server) admit(cfg hetpnoc.Config, key cache.Key) (fl *flight, joined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if fl, ok := s.pending[key]; ok {
		fl.subs++
		s.coalesced.Add(1)
		return fl, true, nil
	}
	jobCtx, cancel := s.jobContext()
	fl = &flight{cfg: cfg, key: key, ctx: jobCtx, cancel: cancel, done: make(chan struct{}), subs: 1}
	select {
	case s.queue <- fl:
		s.queued.Add(1)
		s.pending[key] = fl
		return fl, false, nil
	default:
		cancel()
		s.rejected.Add(1)
		return nil, false, ErrBusy
	}
}

// jobContext derives one flight's context from the server's base
// context, applying the job timeout.
func (s *Server) jobContext() (context.Context, context.CancelFunc) {
	if s.cfg.JobTimeout > 0 {
		return context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	}
	return context.WithCancel(s.baseCtx)
}

// unsubscribe removes one waiter from fl; the last one out cancels the
// job so its worker (or queue slot) is reclaimed promptly, and retires it
// from pending so an identical request starts a live flight of its own.
func (s *Server) unsubscribe(fl *flight) {
	s.mu.Lock()
	fl.subs--
	last := fl.subs == 0
	if last && s.pending[fl.key] == fl {
		delete(s.pending, fl.key)
	}
	s.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// worker executes flights until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for fl := range s.queue {
		s.queued.Add(-1)
		s.runFlight(fl)
	}
}

// runFlight executes one admitted flight and publishes its outcome.
// This is the one place results are cached — and rendered into their
// reply bytes — and the run counters move.
func (s *Server) runFlight(fl *flight) {
	if err := fl.ctx.Err(); err != nil {
		// Every subscriber left (or the timeout fired) while the job
		// was still queued; skip the run entirely.
		fl.err = err
		s.canceled.Add(1)
		s.finish(fl)
		return
	}
	s.inFlight.Add(1)
	res, err := s.runRecovered(fl)
	s.inFlight.Add(-1)
	if err == nil {
		fl.entry, err = s.cache.Add(fl.key, res)
	}
	switch {
	case err == nil:
		s.cyclesSimulated.Add(int64(fl.cfg.Cycles))
		s.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
	default:
		err = fmt.Errorf("%w: %v", ErrSimulation, err)
		s.failed.Add(1)
	}
	fl.err = err
	s.finish(fl)
}

// runRecovered runs fl's config and turns a panic below it into the
// flight's error, named by the flight's cache key: a bug one config
// trips fails that job and the requests coalesced onto it, and the
// worker goes back to the queue.
func (s *Server) runRecovered(fl *flight) (res hetpnoc.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked.Add(1)
			res, err = hetpnoc.Result{}, fmt.Errorf("run %s panicked: %v", fl.key, r)
		}
	}()
	return s.run(fl.ctx, fl.cfg)
}

// finish wakes fl's subscribers, first retiring fl from the pending set
// unless unsubscribe already did (its key may then name a live flight).
func (s *Server) finish(fl *flight) {
	s.mu.Lock()
	if s.pending[fl.key] == fl {
		delete(s.pending, fl.key)
	}
	s.mu.Unlock()
	fl.cancel()
	close(fl.done)
}

// Close drains the server: no new admissions, queued and in-flight jobs
// run to completion until ctx expires, at which point they are canceled.
// It returns ctx.Err() if the drain was cut short.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel stragglers, then wait for them
		<-done
		return ctx.Err()
	}
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics is the /metricsz read-out.
type Metrics struct {
	Workers       int `json:"workers"`
	QueueCapacity int `json:"queueCapacity"`

	QueueDepth int64 `json:"queueDepth"`
	InFlight   int64 `json:"inFlight"`

	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`
	// Panicked counts the failed runs that ended in a recovered panic
	// rather than a returned error.
	Panicked  int64 `json:"panicked"`
	Rejected  int64 `json:"rejected"`
	Coalesced int64 `json:"coalesced"`

	CacheEntries  int     `json:"cacheEntries"`
	CacheCapacity int     `json:"cacheCapacity"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	CacheHitRate  float64 `json:"cacheHitRate"`

	CyclesSimulated int64   `json:"cyclesSimulated"`
	CyclesPerSecond float64 `json:"cyclesPerSecond"`
	UptimeSeconds   float64 `json:"uptimeSeconds"`

	// FabricBuilds and FabricForks count, for the whole process, the
	// fabrics built and the runs forked off a kept pristine build instead
	// (internal/batch): a miss on a build prefix seen before costs a
	// fork, not a build.
	FabricBuilds int64 `json:"fabricBuilds"`
	FabricForks  int64 `json:"fabricForks"`
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Metrics {
	cs := s.cache.Stats()
	uptime := time.Since(s.started).Seconds()
	m := Metrics{
		Workers:         s.cfg.Workers,
		QueueCapacity:   s.cfg.QueueDepth,
		QueueDepth:      s.queued.Load(),
		InFlight:        s.inFlight.Load(),
		Completed:       s.completed.Load(),
		Canceled:        s.canceled.Load(),
		Failed:          s.failed.Load(),
		Panicked:        s.panicked.Load(),
		Rejected:        s.rejected.Load(),
		Coalesced:       s.coalesced.Load(),
		CacheEntries:    cs.Entries,
		CacheCapacity:   cs.Capacity,
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheHitRate:    cs.HitRate(),
		CyclesSimulated: s.cyclesSimulated.Load(),
		UptimeSeconds:   uptime,
	}
	if uptime > 0 {
		m.CyclesPerSecond = float64(m.CyclesSimulated) / uptime
	}
	m.FabricBuilds, m.FabricForks = batch.Counters()
	return m
}
