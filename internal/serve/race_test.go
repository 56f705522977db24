package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpnoc"
	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/testutil/leakcheck"
	"hetpnoc/internal/traffic"
)

// TestSoakConcurrentClients is the service's concurrency proof (run it
// under -race via `make race`): 32 clients hammer /v1/run with a mix of
// duplicate and distinct configs. Every request must come back 200 (or
// 429, in which case the client honors Retry-After and retries), no
// response may be lost, duplicates must be byte-identical and produce
// cache hits, and the server must drain cleanly afterwards.
func TestSoakConcurrentClients(t *testing.T) {
	leakcheck.Check(t)
	const (
		clients     = 32
		perClient   = 4
		distinctCfg = 8 // seeds 0..7 → every config requested ~16 times
	)
	s := New(Config{Workers: 4, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())

	type reply struct {
		seed int
		body string
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		replies []reply
	)
	client := ts.Client()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				seed := (c*perClient + r) % distinctCfg
				body := fmt.Sprintf(`{"cycles":1200,"warmupCycles":1000,"seed":%d}`, seed+1)
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("client %d: read: %v", c, err)
						return
					}
					switch resp.StatusCode {
					case http.StatusOK:
						mu.Lock()
						replies = append(replies, reply{seed: seed, body: string(data)})
						mu.Unlock()
					case http.StatusTooManyRequests:
						if resp.Header.Get("Retry-After") == "" {
							t.Errorf("429 without Retry-After")
							return
						}
						if attempt > 50 {
							t.Errorf("client %d: still busy after %d retries", c, attempt)
							return
						}
						time.Sleep(10 * time.Millisecond)
						continue
					default:
						t.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
						return
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()

	if len(replies) != clients*perClient {
		t.Fatalf("lost responses: got %d, want %d", len(replies), clients*perClient)
	}
	// Duplicates are byte-identical end to end — same key, same result
	// bytes — which is the canonical-encoding determinism guarantee
	// observed through the whole HTTP/cache/pool stack.
	bySeed := map[int]map[string]bool{}
	for _, r := range replies {
		var rr RunResponse
		if err := json.Unmarshal([]byte(r.body), &rr); err != nil {
			t.Fatalf("bad body: %v", err)
		}
		res, err := json.Marshal(rr.Result)
		if err != nil {
			t.Fatal(err)
		}
		if bySeed[r.seed] == nil {
			bySeed[r.seed] = map[string]bool{}
		}
		bySeed[r.seed][rr.Key+"|"+string(res)] = true
	}
	for seed, variants := range bySeed {
		if len(variants) != 1 {
			t.Errorf("seed %d produced %d distinct responses, want 1", seed, len(variants))
		}
	}

	// The soak itself cannot guarantee a cache hit: under -race the
	// simulations run slowly enough that every duplicate may coalesce
	// onto a still-in-flight flight. One more request after every
	// response is in IS deterministic — finish() retires a flight
	// before waking its subscribers, so with no flight pending the
	// repeat must be served from the cache.
	resp, err := client.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"cycles":1200,"warmupCycles":1000,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-soak probe: status %d", resp.StatusCode)
	}

	m := s.Metrics()
	if m.CacheHits < 1 {
		t.Errorf("post-soak repeat request did not hit the cache: %+v", m)
	}
	// Every distinct config simulates at most once per flight; duplicates
	// resolve via the cache or coalescing, never by redundant runs beyond
	// the races inherent in concurrent first arrivals.
	if m.Completed < distinctCfg {
		t.Errorf("completed %d runs, want at least %d", m.Completed, distinctCfg)
	}
	if m.Completed+m.CacheHits+m.Coalesced < clients*perClient+1 {
		t.Errorf("accounting hole: completed=%d hits=%d coalesced=%d for %d requests",
			m.Completed, m.CacheHits, m.Coalesced, clients*perClient+1)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if got := s.Metrics().InFlight; got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
}

// TestSoakClientCancellation: a client that disconnects mid-run aborts
// its simulation within the fabric's cancellation check interval and
// hands the worker back.
func TestSoakClientCancellation(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"cycles":2000000,"warmupCycles":1000,"seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("big run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}

	// The worker must be reclaimed promptly: a small follow-up run
	// completes instead of queueing behind a zombie simulation.
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"cycles":1200,"warmupCycles":1000,"seed":43}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel run status %d", resp.StatusCode)
	}
	if m := s.Metrics(); m.Canceled < 1 {
		t.Fatalf("no cancellation recorded: %+v", m)
	}
}

// TestSoakSaturation429: with one worker and a one-slot queue, a third
// concurrent distinct request must be answered 429 with a Retry-After
// hint while the first two are still running/queued.
func TestSoakSaturation429(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	slow := func(seed int) (context.CancelFunc, chan struct{}) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		body := fmt.Sprintf(`{"cycles":2000000,"warmupCycles":1000,"seed":%d}`, seed)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(done)
			resp, err := ts.Client().Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		return cancel, done
	}

	stop1, done1 := slow(1)
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first slow run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop2, done2 := slow(2)
	for s.Metrics().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second slow run never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"cycles":2000000,"warmupCycles":1000,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if m := s.Metrics(); m.Rejected < 1 {
		t.Fatalf("no rejection recorded: %+v", m)
	}

	stop1()
	stop2()
	<-done1
	<-done2
}

// TestSoakConcurrentSweepsStayInPool: sweep points are pool jobs.
// Four concurrent multi-point sweeps against a one-worker, one-slot
// server must never run more than one simulation at a time, must see the
// full pool as ErrBusy and ride it out by retrying, and must still
// return, point for point, the bytes of a standalone run.
func TestSoakConcurrentSweepsStayInPool(t *testing.T) {
	leakcheck.Check(t)
	const (
		sweeps = 4
		points = 4 // per sweep: 2 load scales x 2 seeds, one build prefix
	)
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	// Watch the pool for the whole test.
	stopWatch := make(chan struct{})
	peak := make(chan int64, 1)
	watching := true
	stopWatching := func() int64 {
		watching = false
		close(stopWatch)
		return <-peak
	}
	defer func() {
		if watching {
			stopWatching()
		}
	}()
	go func() {
		var max int64
		for {
			select {
			case <-stopWatch:
				peak <- max
				return
			default:
			}
			if n := s.Metrics().InFlight; n > max {
				max = n
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Pin the only worker so the sweeps arrive at a full pool.
	pinCtx, unpin := context.WithCancel(context.Background())
	pinned := make(chan struct{})
	go func() {
		defer close(pinned)
		_, err := s.Submit(pinCtx, hetpnoc.Config{Cycles: 2_000_000, Seed: 99})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("pinning run: want context.Canceled, got %v", err)
		}
	}()
	defer func() {
		unpin()
		<-pinned
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pinning run never started")
		}
		time.Sleep(time.Millisecond)
	}

	bodies := make([][]byte, sweeps)
	var wg sync.WaitGroup
	defer wg.Wait()
	for k := 0; k < sweeps; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := fmt.Sprintf(`{"base":{"cycles":2000,"warmupCycles":1000},"seeds":[%d,%d],"loadScales":[0.5,1]}`,
				10*k+1, 10*k+2)
			resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
			if err != nil {
				t.Errorf("sweep %d: %v", k, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("sweep %d: status %d, read error %v: %s", k, resp.StatusCode, err, data)
				return
			}
			bodies[k] = data
		}(k)
	}
	// One sweep's point takes the queue slot; the other three sweeps must
	// be refused.
	for s.Metrics().Rejected < sweeps-1 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeps were not refused by the full pool: %+v", s.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	unpin()
	<-pinned
	wg.Wait()
	if max := stopWatching(); max > 1 {
		t.Errorf("observed %d simulations in flight on a one-worker server", max)
	}

	for k, body := range bodies {
		if body == nil {
			continue // already reported
		}
		var sr SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("sweep %d: %v", k, err)
		}
		if len(sr.Points) != points {
			t.Fatalf("sweep %d returned %d points, want %d", k, len(sr.Points), points)
		}
		for i, p := range sr.Points {
			// Expansion order: load scales outermost, seeds innermost.
			cfg := hetpnoc.Config{
				Cycles: 2000, WarmupCycles: 1000,
				LoadScale: []float64{0.5, 1}[i/2],
				Seed:      uint64(10*k + 1 + i%2),
			}
			want, err := hetpnoc.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Result.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("sweep %d point %d diverges from the standalone run:\nsweep: %s\nsolo:  %s", k, i, a, b)
			}
		}
	}
}

// TestSoakCloseDuringSubmit closes the server while clients are still
// submitting, which no other test does: admit reads draining and sends
// on the queue that Close flips and closes, so under -race this is the
// gate on Close's critical section. Every submission must end in a
// result, ErrBusy or ErrDraining — never a send on the closed queue —
// and the pool must be gone afterwards.
func TestSoakCloseDuringSubmit(t *testing.T) {
	leakcheck.Check(t)
	const (
		clients = 16
		shared  = 4 // seeds every client asks for, so duplicates coalesce or hit the cache
	)
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer closeServer(t, s) // idempotent; releases the clients if waitFor gives up

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Odd iterations use a seed nobody else does: those can never
			// be served from the cache, so every client keeps reaching
			// admit until it is told the server is draining.
			for i := 0; ; i++ {
				seed := uint64(i/2%shared + 1)
				if i%2 == 1 {
					seed = uint64(1000*(c+1) + i)
				}
				out, err := s.Submit(context.Background(), smallCfg(seed))
				switch {
				case err == nil:
					if out.Result.PacketsDelivered == 0 {
						t.Errorf("client %d: submission %d (key %s) returned an empty result", c, i, out.Key)
						return
					}
				case errors.Is(err, ErrBusy):
					time.Sleep(time.Millisecond)
				case errors.Is(err, ErrDraining):
					return
				default:
					t.Errorf("client %d: submission %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}

	// Close once the pool is demonstrably busy, with submissions in
	// every stage: queued, running, coalesced and cached.
	waitFor(t, "the pool to get busy", func() bool { return s.Metrics().Completed >= shared })
	closeServer(t, s)
	wg.Wait()
	if m := s.Metrics(); m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("after drain: in flight %d, queued %d", m.InFlight, m.QueueDepth)
	}
}

// poisonRemap is a remap pattern that, when it fires, waits for release
// to close and then panics the way an indexing bug in the simulator
// would.
type poisonRemap struct{ release <-chan struct{} }

func (poisonRemap) Name() string { return "poison" }

func (p poisonRemap) Assign(traffic.BandwidthSet) (traffic.Assignment, error) {
	<-p.release
	panic("index out of range [64] with length 64")
}

// TestPanickingJobFailsOnlyItsFlight: a run that panics inside a worker
// fails that flight — the request that started it and the two coalesced
// onto it — with ErrSimulation naming the cache key, is counted on
// /metricsz, and leaves the one-worker pool at strength: the next request
// is simulated, and the server drains with no goroutine lost. The panic
// is raised below the batch plan, by a remap pattern inside the member's
// run, where the simulator's own would be.
func TestPanickingJobFailsOnlyItsFlight(t *testing.T) {
	leakcheck.Check(t)
	const poisonSeed, waiters = 666, 3
	s := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.run = func(ctx context.Context, cfg hetpnoc.Config) (hetpnoc.Result, error) {
		if cfg.Seed == poisonSeed {
			plan, err := batch.NewPlan([]fabric.Config{{
				Pattern: traffic.Uniform{}, Cycles: cfg.Cycles, WarmupCycles: cfg.WarmupCycles, Seed: cfg.Seed,
				Remaps: []fabric.Remap{{At: 100, Pattern: poisonRemap{release}}},
			}}, batch.Options{})
			if err == nil {
				_, err = plan.Run(ctx)
			}
			return hetpnoc.Result{}, err
		}
		return hetpnoc.RunContext(ctx, cfg)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	poison := hetpnoc.Config{Cycles: 1200, WarmupCycles: 1000, Seed: poisonSeed}
	_, resolved, err := s.resolve(poison)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := s.Submit(context.Background(), poison)
			errs <- err
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Coalesced != waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never coalesced: %+v", s.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		err := <-errs
		if !errors.Is(err, ErrSimulation) || !strings.Contains(err.Error(), resolved.Key.String()) ||
			!strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("waiter %d got %v, want ErrSimulation naming run %s and the panic", i, err, resolved.Key)
		}
	}

	// The only worker survived: a healthy request is simulated, over HTTP.
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"cycles":1200,"warmupCycles":1000,"seed":43}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the panic answered %d, want 200", resp.StatusCode)
	}
	// The poisoned config is not cached: asking again runs (and fails) again,
	// as a 500.
	resp, err = ts.Client().Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"cycles":1200,"warmupCycles":1000,"seed":%d}`, poisonSeed)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned run answered %d, want 500", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Panicked != 2 || m.Failed != 2 || m.Completed != 1 || m.InFlight != 0 {
		t.Fatalf("metricsz = %+v, want 2 panicked, 2 failed, 1 completed, none in flight", m)
	}
}
