package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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

// TestHTTPSweepBatched exercises the shared-prefix fast path: a sweep
// whose points differ only in seed and load scale forms one batch
// partition, so every executed point reports batched=true and must
// still be byte-identical to the standalone /v1/run result for the
// same config. A point already in the result cache is served from it
// instead of re-entering the batch.
func TestHTTPSweepBatched(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Prime the cache with one of the sweep's points.
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime status %d: %s", resp.StatusCode, body)
	}
	var primed RunResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sweep", `{
		"base": {"cycles": 1200, "warmupCycles": 1000},
		"seeds": [1, 2, 3],
		"loadScales": [1, 2]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 6 {
		t.Fatalf("sweep returned %d points, want 6", len(sr.Points))
	}
	var batched, cached int
	for i, p := range sr.Points {
		switch {
		case p.Cached:
			cached++
			if p.Key != primed.Key {
				t.Errorf("point %d cached under key %s, primed key was %s", i, p.Key, primed.Key)
			}
		case p.Batched:
			batched++
		default:
			t.Errorf("point %d neither batched nor cached: %+v", i, p)
		}
		if p.Result.PacketsDelivered == 0 {
			t.Errorf("point %d delivered an empty result", i)
		}
	}
	if cached != 1 || batched != 5 {
		t.Fatalf("got %d cached and %d batched points, want 1 and 5", cached, batched)
	}

	// A batched point's result matches the standalone run byte for byte.
	resp, body = postJSON(t, ts.URL+"/v1/run", `{"cycles":1200,"warmupCycles":1000,"seed":3,"loadScale":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo status %d: %s", resp.StatusCode, body)
	}
	var solo RunResponse
	if err := json.Unmarshal(body, &solo); err != nil {
		t.Fatal(err)
	}
	if !solo.Cached {
		t.Error("batched sweep did not publish its results to the cache")
	}
	for _, p := range sr.Points {
		if p.Key != solo.Key {
			continue
		}
		a, err := p.Result.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := solo.Result.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("batched point diverges from the standalone run:\nbatched: %s\nsolo:    %s", a, b)
		}
	}

	if m := s.Metrics(); m.BatchedRuns != 5 {
		t.Errorf("metrics report %d batched runs, want 5", m.BatchedRuns)
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
	metricsz := func() Metrics {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metricsz")
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
	for seed := 1; seed <= 2; seed++ {
		before := metricsz()
		resp, body := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"cycles":1300,"warmupCycles":1000,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
		after := metricsz()
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
