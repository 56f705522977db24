package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpnoc"
)

// smallCfg is a ~10ms simulation (1200 cycles, 1000 warm-up); seed
// variations make distinct cache keys.
func smallCfg(seed uint64) hetpnoc.Config {
	return hetpnoc.Config{Cycles: 1200, WarmupCycles: 1000, Seed: seed}
}

// bigCfg is a multi-second simulation used as a worker blocker; tests
// cancel it rather than wait it out.
func bigCfg(seed uint64) hetpnoc.Config {
	return hetpnoc.Config{Cycles: 2_000_000, WarmupCycles: 1000, Seed: seed}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func closeServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestSubmitCacheHitOnDuplicate(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeServer(t, s)
	ctx := context.Background()

	first, err := s.Submit(ctx, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Coalesced {
		t.Fatalf("first submit reported cached=%v coalesced=%v", first.Cached, first.Coalesced)
	}
	second, err := s.Submit(ctx, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("duplicate submit missed the cache")
	}
	if second.Key != first.Key {
		t.Fatal("duplicate submit produced a different key")
	}
	ea, _ := first.Result.CanonicalJSON()
	eb, _ := second.Result.CanonicalJSON()
	if string(ea) != string(eb) {
		t.Fatal("cached result differs from the computed one")
	}

	// A differently-spelled config selecting the same simulation shares
	// the entry: explicit Table 3-3 defaults vs zero values.
	explicit := smallCfg(1)
	explicit.Architecture = hetpnoc.DHetPNoC
	explicit.BandwidthSet = 1
	explicit.Traffic = hetpnoc.Traffic{Kind: hetpnoc.UniformRandom}
	explicit.LoadScale = 1.0
	third, err := s.Submit(ctx, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Key != first.Key {
		t.Fatal("explicitly-spelled default config did not hit the same cache entry")
	}

	if m := s.Metrics(); m.CacheHits < 2 || m.Completed != 1 {
		t.Fatalf("metrics = %+v, want >=2 cache hits from 1 completed run", m)
	}
}

func TestSubmitCoalescesIdenticalInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer closeServer(t, s)

	// Occupy the single worker with a cancelable blocker.
	blockCtx, stopBlocker := context.WithCancel(context.Background())
	blockDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(blockCtx, bigCfg(99))
		blockDone <- err
	}()
	waitFor(t, "blocker in flight", func() bool { return s.Metrics().InFlight == 1 })

	// Two clients ask for the same queued simulation: the second joins
	// the first's flight instead of enqueueing its own.
	var wg sync.WaitGroup
	outs := make([]Outcome, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Submit(context.Background(), smallCfg(2))
		}(i)
		// Admit strictly in order so exactly one request creates the
		// flight and the other coalesces.
		if i == 0 {
			waitFor(t, "first duplicate queued", func() bool { return s.Metrics().QueueDepth == 1 })
		}
	}
	waitFor(t, "duplicate coalesced", func() bool { return s.Metrics().Coalesced == 1 })

	stopBlocker()
	if err := <-blockDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker returned %v, want context.Canceled", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("duplicate %d: %v", i, err)
		}
	}
	if outs[0].Key != outs[1].Key {
		t.Fatal("coalesced submits returned different keys")
	}
	if !outs[1].Coalesced && !outs[0].Coalesced {
		t.Fatal("neither duplicate reported coalescing")
	}
	if m := s.Metrics(); m.Completed != 1 {
		t.Fatalf("coalesced pair ran %d simulations, want 1", m.Completed)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer closeServer(t, s)

	blockCtx, stopBlocker := context.WithCancel(context.Background())
	defer stopBlocker()
	blockDone := make(chan struct{})
	go func() {
		defer close(blockDone)
		s.Submit(blockCtx, bigCfg(50))
	}()
	waitFor(t, "blocker in flight", func() bool { return s.Metrics().InFlight == 1 })

	queuedCtx, dropQueued := context.WithCancel(context.Background())
	defer dropQueued()
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		s.Submit(queuedCtx, bigCfg(51))
	}()
	waitFor(t, "queue full", func() bool { return s.Metrics().QueueDepth == 1 })

	// Pool busy, queue full: a third distinct config must fail fast.
	_, err := s.Submit(context.Background(), smallCfg(52))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated submit returned %v, want ErrBusy", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
	// But a duplicate of the queued config still coalesces — backpressure
	// never applies to work already admitted.
	dupCtx, dropDup := context.WithCancel(context.Background())
	dupDone := make(chan struct{})
	go func() {
		defer close(dupDone)
		s.Submit(dupCtx, bigCfg(51))
	}()
	waitFor(t, "duplicate coalesced under saturation", func() bool { return s.Metrics().Coalesced == 1 })

	dropDup()
	dropQueued()
	stopBlocker()
	<-blockDone
	<-queuedDone
	<-dupDone
}

// TestSubmitDoneContextTakesNoSlot: a miss submitted with a context that
// is already done is refused before admission. It holds no queue slot,
// so the points a departed sweep client still had to submit cannot push
// anyone else into ErrBusy.
func TestSubmitDoneContextTakesNoSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer closeServer(t, s)

	pinCtx, unpin := context.WithCancel(context.Background())
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		s.Submit(pinCtx, bigCfg(110))
	}()
	defer func() {
		unpin()
		<-pinned
	}()
	waitFor(t, "pinning run in flight", func() bool { return s.Metrics().InFlight == 1 })

	gone, leave := context.WithCancel(context.Background())
	leave()
	if _, err := s.Submit(gone, smallCfg(111)); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a done context returned %v, want context.Canceled", err)
	}
	if m := s.Metrics(); m.QueueDepth != 0 {
		t.Fatalf("a done context left %d flights queued, want 0", m.QueueDepth)
	}

	// The one queue slot is still free: the next distinct miss is queued.
	nextCtx, dropNext := context.WithCancel(context.Background())
	nextDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(nextCtx, smallCfg(112))
		nextDone <- err
	}()
	waitFor(t, "next miss queued or refused", func() bool {
		m := s.Metrics()
		return m.QueueDepth == 1 || m.Rejected > 0
	})
	dropNext()
	if err := <-nextDone; !errors.Is(err, context.Canceled) {
		t.Errorf("next distinct submit returned %v, want to be queued until its client left", err)
	}
}

// TestLiveRequestDoesNotAdoptAbandonedFlight: a flight whose last
// subscriber left is cancelled but stays queued until a worker reaches
// it. An identical request arriving in that window starts a live flight
// of its own; joining the dead one would fail it with context.Canceled,
// which /v1/run answers as 499 to a client that is still there.
func TestLiveRequestDoesNotAdoptAbandonedFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer closeServer(t, s)

	pinCtx, unpin := context.WithCancel(context.Background())
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		s.Submit(pinCtx, bigCfg(110))
	}()
	waitFor(t, "pinning run in flight", func() bool { return s.Metrics().InFlight == 1 })

	aCtx, leaveA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(aCtx, smallCfg(111))
		aDone <- err
	}()
	waitFor(t, "A queued", func() bool { return s.Metrics().QueueDepth == 1 })
	leaveA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("A returned %v, want context.Canceled", err)
	}

	bDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), smallCfg(111))
		bDone <- err
	}()
	waitFor(t, "B queued or joined", func() bool {
		m := s.Metrics()
		return m.QueueDepth == 2 || m.Coalesced > 0
	})
	unpin()
	<-pinned
	if err := <-bDone; err != nil {
		t.Fatalf("B, whose client never left, returned %v", err)
	}
}

func TestSubmitCancelReclaimsWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeServer(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, bigCfg(60))
		done <- err
	}()
	waitFor(t, "job in flight", func() bool { return s.Metrics().InFlight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v, want context.Canceled", err)
	}

	// The worker must come back within a cancellation check interval, so
	// a fresh small job completes rather than queueing behind a zombie.
	out, err := s.Submit(context.Background(), smallCfg(61))
	if err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
	if out.Cached {
		t.Fatal("fresh config reported a cache hit")
	}
	if m := s.Metrics(); m.Canceled < 1 || m.InFlight != 0 {
		t.Fatalf("metrics after cancel = %+v", m)
	}
}

func TestSubmitJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	defer closeServer(t, s)
	_, err := s.Submit(context.Background(), bigCfg(70))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out submit returned %v, want context.DeadlineExceeded", err)
	}
}

func TestSubmitMaxCycles(t *testing.T) {
	s := New(Config{Workers: 1, MaxCycles: 1000})
	defer closeServer(t, s)
	_, err := s.Submit(context.Background(), smallCfg(80))
	if err == nil || !strings.Contains(err.Error(), "per-request limit") {
		t.Fatalf("oversized request returned %v, want the cycle-limit rejection", err)
	}
}

func TestSubmitInvalidConfig(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeServer(t, s)
	cfg := smallCfg(90)
	cfg.BandwidthSet = 9
	if _, err := s.Submit(context.Background(), cfg); err == nil {
		t.Fatal("invalid bandwidth set accepted")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s := New(Config{Workers: 2})
	ctx := context.Background()
	if _, err := s.Submit(ctx, smallCfg(100)); err != nil {
		t.Fatal(err)
	}
	closeServer(t, s)
	if !s.Draining() {
		t.Fatal("server not draining after Close")
	}
	if _, err := s.Submit(ctx, smallCfg(101)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close submit returned %v, want ErrDraining", err)
	}
	// Close is idempotent.
	closeServer(t, s)
}

// TestCloseCancelsJobInFlight: a drain whose context ends cancels the
// job still running, with or without a job timeout, so Close returns
// soon after its deadline instead of when a 2^30-cycle run would end.
// Zero takes the default timeout, so a negative JobTimeout is the one
// that sets none.
func TestCloseCancelsJobInFlight(t *testing.T) {
	for _, timeout := range []time.Duration{time.Hour, -1} {
		s := New(Config{Workers: 1, JobTimeout: timeout, MaxCycles: 1 << 30})
		submitted := make(chan error, 1)
		go func() {
			_, err := s.Submit(context.Background(), hetpnoc.Config{Cycles: 1 << 30, WarmupCycles: 1000, Seed: 110})
			submitted <- err
		}()
		waitFor(t, "job in flight", func() bool { return s.Metrics().InFlight == 1 })
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		closed := make(chan error, 1)
		go func() { closed <- s.Close(ctx) }()
		select {
		case err := <-closed:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("job timeout %v: Close returned %v, want its deadline's error", timeout, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job timeout %v: Close still waiting 10s after a 50ms deadline", timeout)
		}
		cancel()
		if err := <-submitted; !errors.Is(err, context.Canceled) {
			t.Errorf("job timeout %v: the cut job returned %v, want context.Canceled", timeout, err)
		}
	}
}

// TestUnencodableResultFailsTheRun: a result encoding/json cannot write
// (a NaN) cannot be rendered into a reply, so its run fails with
// ErrSimulation — a 500 — and nothing is cached, where it used to be
// answered 200 with an empty body.
func TestUnencodableResultFailsTheRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.run = func(context.Context, hetpnoc.Config) (hetpnoc.Result, error) {
		return hetpnoc.Result{FairnessJain: math.NaN()}, nil
	}
	if _, err := s.Submit(context.Background(), smallCfg(1)); !errors.Is(err, ErrSimulation) {
		t.Fatalf("Submit = %v, want ErrSimulation", err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":1}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Failed != 2 || m.CacheEntries != 0 {
		t.Fatalf("failed %d, cache entries %d, want 2 and 0", m.Failed, m.CacheEntries)
	}
}
