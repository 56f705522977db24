package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetpnoc"
	"hetpnoc/internal/serve/cache"
)

// encoded is what json.NewEncoder(w).Encode writes for v: the form every
// /v1/run and /v1/sweep reply had when the handlers encoded them, and the
// one their pre-rendered bytes must keep.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directRun is the RunResponse a /v1/run of body must carry, its result
// from hetpnoc.Run of the decoded config.
func directRun(t *testing.T, body string, cached, coalesced bool) RunResponse {
	t.Helper()
	cfg, err := DecodeRunRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return directRunOf(t, cfg, cached, coalesced)
}

func directRunOf(t *testing.T, cfg hetpnoc.Config, cached, coalesced bool) RunResponse {
	t.Helper()
	res, err := hetpnoc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return RunResponse{Key: directKey(t, cfg), Cached: cached, Coalesced: coalesced, Result: res}
}

// directKey is the hex content key the server must report for cfg.
func directKey(t *testing.T, cfg hetpnoc.Config) string {
	t.Helper()
	canonical, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return cache.KeyOf(canonical).String()
}

// postRaw posts body and returns the status, the Content-Type and the
// reply bytes.
func postRaw(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, data := postJSON(t, url, body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// wantWire fails unless a reply is a 200 JSON document byte-identical to
// the encoding of want.
func wantWire(t *testing.T, what string, status int, contentType string, got []byte, want any) {
	t.Helper()
	if status != http.StatusOK || contentType != "application/json" {
		t.Errorf("%s: status %d, Content-Type %q, want 200 application/json: %s", what, status, contentType, got)
		return
	}
	if w := encoded(t, want); !bytes.Equal(got, w) {
		t.Errorf("%s: reply bytes differ from encoding/json\n got: %s\nwant: %s", what, got, w)
	}
}

// TestRunReplyWireBytes pins every /v1/run reply — a miss, a content-key
// hit, a body-index hit and both sides of a coalesced join — to the bytes
// json.NewEncoder writes for the same RunResponse.
func TestRunReplyWireBytes(t *testing.T) {
	const heldSeed = 11
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
	url := ts.URL + "/v1/run"

	body := `{"cycles":1200,"warmupCycles":1000,"seed":5}`
	respelled := `{"seed":5,"cycles":1200,"warmupCycles":1000,"bandwidthSet":1}`
	status, ct, got := postRaw(t, url, body)
	wantWire(t, "miss", status, ct, got, directRun(t, body, false, false))
	status, ct, got = postRaw(t, url, respelled)
	wantWire(t, "content-key hit", status, ct, got, directRun(t, body, true, false))
	if _, ok := s.cache.LookupBody(cache.KeyOf([]byte(body))); !ok {
		t.Fatal("a served body was not indexed")
	}
	status, ct, got = postRaw(t, url, body)
	wantWire(t, "body-index hit", status, ct, got, directRun(t, body, true, false))

	held := fmt.Sprintf(`{"cycles":1200,"warmupCycles":1000,"seed":%d}`, heldSeed)
	type reply struct {
		status int
		ct     string
		body   []byte
	}
	first, joiner := make(chan reply, 1), make(chan reply, 1)
	post := func(out chan<- reply) {
		resp, err := http.Post(url, "application/json", strings.NewReader(held))
		if err != nil {
			t.Error(err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		out <- reply{resp.StatusCode, resp.Header.Get("Content-Type"), data}
	}
	go post(first)
	waitFor(t, "the held run in flight", func() bool { return heldRuns.Load() == 1 })
	go post(joiner)
	waitFor(t, "the second request to join the held run", func() bool { return s.Metrics().Coalesced == 1 })
	close(release)
	r := <-first
	wantWire(t, "coalesced join: the flight's owner", r.status, r.ct, r.body, directRun(t, held, false, false))
	r = <-joiner
	wantWire(t, "coalesced join: the joiner", r.status, r.ct, r.body, directRun(t, held, false, true))
}

// TestSweepReplyWireBytes pins a /v1/sweep reply mixing a cached point
// with fresh ones to the encoding of the same SweepResponse.
func TestSweepReplyWireBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base := `{"cycles":1200,"warmupCycles":1000,"seed":21}`
	status, ct, got := postRaw(t, ts.URL+"/v1/run", base)
	wantWire(t, "the cached point's run", status, ct, got, directRun(t, base, false, false))

	status, ct, got = postRaw(t, ts.URL+"/v1/sweep", `{"base":{"cycles":1200,"warmupCycles":1000},"seeds":[21,22,23]}`)
	cfg, err := DecodeRunRequest([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	var want SweepResponse
	for i, seed := range []uint64{21, 22, 23} {
		cfg.Seed = seed
		want.Points = append(want.Points, directRunOf(t, cfg, i == 0, false))
	}
	wantWire(t, "sweep", status, ct, got, want)
}

// TestRunReplyWireBytesEscapesAndCustomTraffic pins the two result shapes
// most likely to drift from encoding/json: an event log, whose lines hold
// "->" (escaped as \u003e), and a custom-traffic config.
func TestRunReplyWireBytesEscapesAndCustomTraffic(t *testing.T) {
	const events = 128
	s, ts := newTestServer(t, Config{Workers: 1})
	// The wire request has no event-log field: the run seam turns the
	// log on, and the expected result is a direct run with the same
	// capacity under the key of the config as requested.
	s.run = func(ctx context.Context, cfg hetpnoc.Config) (hetpnoc.Result, error) {
		cfg.EventCapacity = events
		return hetpnoc.RunContext(ctx, cfg)
	}
	logged := func(body string, cached bool) RunResponse {
		t.Helper()
		cfg, err := DecodeRunRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		cfg.EventCapacity = events
		want := directRunOf(t, cfg, cached, false)
		cfg.EventCapacity = 0
		want.Key = directKey(t, cfg)
		return want
	}

	body := `{"traffic":{"kind":"skewed","skewLevel":3},"cycles":300,"warmupCycles":60,"seed":3}`
	want := logged(body, false)
	if !strings.Contains(strings.Join(want.Result.Events, "\n"), "->") {
		t.Fatalf("the event log holds no \"->\" to escape: %q", want.Result.Events)
	}
	status, ct, got := postRaw(t, ts.URL+"/v1/run", body)
	wantWire(t, "event log", status, ct, got, want)
	if !bytes.Contains(got, []byte(`-\u003e`)) {
		t.Errorf("event-log reply carries no escaped \"->\": %s", got)
	}
	want.Cached = true
	status, ct, got = postRaw(t, ts.URL+"/v1/run", body)
	wantWire(t, "event log, body-index hit", status, ct, got, want)

	specs := make([]string, 64)
	for i := range specs {
		specs[i] = `{}`
	}
	specs[0] = `{"rateGbps":50,"demandGbps":50,"dests":[1,8,9]}`
	specs[12] = `{"rateGbps":20}`
	custom := fmt.Sprintf(`{"traffic":{"kind":"custom","custom":[%s]},"cycles":1500,"warmupCycles":300,"seed":4}`, strings.Join(specs, ","))
	status, ct, got = postRaw(t, ts.URL+"/v1/run", custom)
	wantWire(t, "custom traffic", status, ct, got, logged(custom, false))
}

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{500 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Nanosecond, 3},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
