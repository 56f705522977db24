package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetpnoc"
	"hetpnoc/internal/testutil/leakcheck"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// getMetricsz reads the server's /metricsz counters.
func getMetricsz(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHTTPRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	if len(rr.Key) != 64 || rr.Cached || rr.Result.PacketsDelivered == 0 {
		t.Fatalf("unexpected response: key=%q cached=%v delivered=%d", rr.Key, rr.Cached, rr.Result.PacketsDelivered)
	}

	// The duplicate comes back cached with the same key.
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":5}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate status %d: %s", resp2.StatusCode, body2)
	}
	var rr2 RunResponse
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	if !rr2.Cached || rr2.Key != rr.Key {
		t.Fatalf("duplicate not served from cache: %+v", rr2)
	}
}

func TestHTTPRunRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"cyclez":100}`,
		`{"architecture":"hypercube"}`,
		`not json`,
		`{"cycles":100}{"cycles":200}`,
	}
	for _, body := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPOversizedBodyIs413: a body one byte over maxBodyBytes answers
// 413 on both endpoints, whatever it would have decoded to; a well-formed
// body of exactly maxBodyBytes is still served.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ path, body string }{
		{"/v1/run", `{"cycles":1200,"warmupCycles":1000}`},
		{"/v1/sweep", `{"base":{"cycles":1200,"warmupCycles":1000},"seeds":[1]}`},
	} {
		atLimit := tc.body + strings.Repeat(" ", maxBodyBytes-len(tc.body))
		if resp, data := postJSON(t, ts.URL+tc.path, atLimit); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d-byte body: status %d, want 200: %s", tc.path, len(atLimit), resp.StatusCode, data)
		}
		resp, data := postJSON(t, ts.URL+tc.path, atLimit+" ")
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body: status %d, want 413", tc.path, len(atLimit)+1, resp.StatusCode)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: 413 body is not an error document: %s", tc.path, data)
		}
	}
}

func TestHTTPSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000, "seed": 6},
		"architectures": ["firefly", "d-hetpnoc"],
		"loadScales": [0.5, 1]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 4 {
		t.Fatalf("sweep returned %d points, want 4", len(sr.Points))
	}
	keys := map[string]bool{}
	for i, p := range sr.Points {
		if p.Result.PacketsDelivered == 0 {
			t.Errorf("point %d delivered an empty result", i)
		}
		keys[p.Key] = true
	}
	if len(keys) != 4 {
		t.Fatalf("sweep points share keys: %d distinct of 4", len(keys))
	}
}

// TestHTTPSweepForksTheKeptBuild: a sweep point is a run, so a sweep
// whose points differ only in seed and load scale, after a /v1/run of the
// same build prefix, builds no fabric: the primed point is served from
// the cache and every other point forks the build the process kept. Each
// forked point is byte-identical to the standalone /v1/run of its config.
// One worker keeps the points sequential, so each takes the one kept
// build in turn instead of a concurrent point building its own.
// TestHTTPSweepClientCancellation: a sweep whose client disconnects
// gives up its points, so the simulation it started is canceled and the
// worker comes back, where it would otherwise run 2^30 cycles.
func TestHTTPSweepClientCancellation(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{Workers: 1, MaxCycles: 1 << 30})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The pool closes first, so a point left running is canceled rather
	// than waited out by the HTTP server's Close.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"base":{"cycles":1073741824,"warmupCycles":1000},"seeds":[120,121]}`))
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
	waitFor(t, "sweep point in flight", func() bool { return s.Metrics().InFlight == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m := s.Metrics(); m.InFlight != 0 || m.Canceled < 1; m = s.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("10s after its client left, the sweep's point still runs: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPSweepForksTheKeptBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Prime the cache, and the shelf of kept builds, with one of the
	// sweep's points.
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime status %d: %s", resp.StatusCode, body)
	}
	var primed RunResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}

	before := getMetricsz(t, ts.URL)
	resp, body = postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000},
		"seeds": [1, 2, 3],
		"loadScales": [1, 2]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	after := getMetricsz(t, ts.URL)
	if builds, forks := after.FabricBuilds-before.FabricBuilds, after.FabricForks-before.FabricForks; builds != 0 || forks != 5 {
		t.Errorf("the sweep cost %d builds and %d forks, want 0 and 5", builds, forks)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 6 {
		t.Fatalf("sweep returned %d points, want 6", len(sr.Points))
	}
	cached := 0
	for i, p := range sr.Points {
		if p.Cached {
			cached++
			if p.Key != primed.Key {
				t.Errorf("point %d cached under key %s, primed key was %s", i, p.Key, primed.Key)
			}
		}
		if p.Result.PacketsDelivered == 0 {
			t.Errorf("point %d delivered an empty result", i)
		}
	}
	if cached != 1 {
		t.Fatalf("got %d cached points, want 1", cached)
	}

	// A forked point's result matches the standalone run byte for byte.
	resp, body = postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":3,"loadScale":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo status %d: %s", resp.StatusCode, body)
	}
	var solo RunResponse
	if err := json.Unmarshal(body, &solo); err != nil {
		t.Fatal(err)
	}
	if !solo.Cached {
		t.Error("the sweep did not publish its results to the cache")
	}
	want, err := hetpnoc.Run(hetpnoc.Config{Cycles: 1200, WarmupCycles: 1000, Seed: 3, LoadScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range sr.Points {
		if p.Key != solo.Key {
			continue
		}
		found = true
		a, err := p.Result.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("forked point diverges from hetpnoc.Run:\nsweep: %s\nsolo:  %s", a, b)
		}
	}
	if !found {
		t.Errorf("no sweep point has the standalone run's key %s", solo.Key)
	}
}

// TestHTTPSweepPointCoalescesWithRun: a sweep point is admitted like a
// /v1/run, so a point identical to a run still in flight joins that
// flight instead of simulating the config a second time.
func TestHTTPSweepPointCoalescesWithRun(t *testing.T) {
	const heldSeed = 7
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	var heldRuns atomic.Int32
	s.run = func(ctx context.Context, cfg hetpnoc.Config) (hetpnoc.Result, error) {
		if cfg.Seed == heldSeed && heldRuns.Add(1) == 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return hetpnoc.Result{}, ctx.Err()
			}
		}
		return hetpnoc.RunContext(ctx, cfg)
	}

	runBody := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(fmt.Sprintf(`{"cycles":1200,"warmupCycles":1000,"seed":%d}`, heldSeed)))
		if err != nil {
			t.Error(err)
			runBody <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		runBody <- data
	}()
	waitFor(t, "the held run in flight", func() bool { return heldRuns.Load() == 1 })

	sweepBody := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(fmt.Sprintf(`{"base":{"cycles":1200,"warmupCycles":1000},"seeds":[%d,%d]}`, heldSeed, heldSeed+1)))
		if err != nil {
			t.Error(err)
			sweepBody <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		sweepBody <- data
	}()
	// A sweep that runs the held config itself shows up as a second run.
	waitFor(t, "the sweep point to join the held run", func() bool {
		return s.Metrics().Coalesced == 1 || heldRuns.Load() > 1
	})
	close(release)

	var run RunResponse
	if err := json.Unmarshal(<-runBody, &run); err != nil {
		t.Fatalf("run reply: %v", err)
	}
	var sr SweepResponse
	if err := json.Unmarshal(<-sweepBody, &sr); err != nil || len(sr.Points) != 2 {
		t.Fatalf("sweep reply: %v, %d points", err, len(sr.Points))
	}
	if p := sr.Points[0]; !p.Coalesced || p.Key != run.Key {
		t.Errorf("the held config's sweep point: coalesced=%v key=%s, want coalesced onto run %s", p.Coalesced, p.Key, run.Key)
	}
	if n := heldRuns.Load(); n != 1 {
		t.Errorf("the held config was simulated %d times, want 1", n)
	}
	a, _ := sr.Points[0].Result.CanonicalJSON()
	b, _ := run.Result.CanonicalJSON()
	if string(a) != string(b) {
		t.Errorf("coalesced point diverges from the run it joined:\nsweep: %s\nrun:   %s", a, b)
	}
}

// TestHTTPSweepUsesEveryWorker: the points of a one-prefix sweep are
// separate pool jobs, so two of them run at once on a two-worker server.
// The run seam is a two-party barrier: a point that waits out the timeout
// alone fails the sweep.
func TestHTTPSweepUsesEveryWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var entered atomic.Int32
	both := make(chan struct{})
	s.run = func(ctx context.Context, cfg hetpnoc.Config) (hetpnoc.Result, error) {
		if entered.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
			return hetpnoc.Result{}, errors.New("no second point entered run within 5s")
		}
		return hetpnoc.RunContext(ctx, cfg)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", `{"base":{"cycles":1200,"warmupCycles":1000},"seeds":[21,22]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPHealthzAndMetricsz(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 1 || m.QueueCapacity != 2 {
		t.Fatalf("metrics = %+v, want 1 worker, queue capacity 2", m)
	}

	// Draining flips healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

// TestMetricszCountsForks: /metricsz reports the process's fabric builds
// and forks, so an operator can see that a miss on a build prefix the
// process has run before forks a kept build instead of building one.
func TestMetricszCountsForks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for seed := 1; seed <= 2; seed++ {
		before := getMetricsz(t, ts.URL)
		resp, body := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"cycles":1300,"warmupCycles":1000,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		after := getMetricsz(t, ts.URL)
		builds, forks := after.FabricBuilds-before.FabricBuilds, after.FabricForks-before.FabricForks
		if seed == 2 && (builds != 0 || forks != 1) {
			t.Errorf("a miss on a prefix run before cost %d builds and %d forks, want 0 and 1", builds, forks)
		}
		if builds+forks != 1 {
			t.Errorf("seed %d: one run cost %d builds and %d forks, want one of either", seed, builds, forks)
		}
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/run should not succeed")
	}
}

// TestStalledBodyIsCut: a client that sends its headers and then stops
// in the middle of its body is answered 408, or cut, once the body
// deadline has passed, instead of holding its handler for ever.
func TestStalledBodyIsCut(t *testing.T) {
	const deadline = 200 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1})
	s.bodyTimeout = deadline
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const head = "POST /v1/run HTTP/1.1\r\nHost: hetpnoc\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n"
	if _, err := io.WriteString(conn, head+`{"cycles":`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * deadline)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the stalled body still held the connection after %v: %v", time.Since(start), err)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 408 ") {
		t.Errorf("the stalled body was answered\n%s\nwant a 408 or a closed connection", reply)
	}
}

// TestStalledReaderIsCut: a client that stops reading a reply larger
// than the socket buffers (both kept small here) holds the handler for
// the reply deadline only.
func TestStalledReaderIsCut(t *testing.T) {
	leakcheck.Check(t)
	s := New(Config{Workers: 1})
	s.replyTimeout = 200 * time.Millisecond
	returned := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			_ = c.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
	}
	ts.Start()
	defer closeServer(t, s)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	// 256 points of one run: one simulation, a reply of about 330 kB.
	body := `{"base":{"cycles":1200,"warmupCycles":1000},"seeds":[` + strings.Repeat("1,", 255) + `1]}`
	fmt.Fprintf(conn, "POST /v1/sweep HTTP/1.1\r\nHost: hetpnoc\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler still writes to a client that stopped reading")
	}
}

// TestRunOutlivesBodyDeadline: the body deadline ends with the body and
// the reply deadline starts with the reply, so a run that takes longer
// than either is still answered.
func TestRunOutlivesBodyDeadline(t *testing.T) {
	const deadline = 100 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1})
	s.bodyTimeout, s.replyTimeout = deadline, deadline
	s.run = func(ctx context.Context, cfg hetpnoc.Config) (hetpnoc.Result, error) {
		select {
		case <-time.After(3 * deadline):
		case <-ctx.Done():
			return hetpnoc.Result{}, ctx.Err()
		}
		return hetpnoc.RunContext(ctx, cfg)
	}
	resp, data := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a run longer than the body deadline was answered %d: %s", resp.StatusCode, data)
	}
}
