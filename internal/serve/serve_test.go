package serve

import (
	"context"
	"errors"
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
