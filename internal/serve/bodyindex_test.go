package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetpnoc/internal/testutil/leakcheck"
)

// serveBody runs one /v1/run through the handler in process and returns
// the status and the reply bytes.
func serveBody(h http.Handler, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestBodyIndexSoundness holds the body index to being a pure shortcut:
// a body it answers gets the bytes the full decode → normalize → key
// path would have produced, a body that fails is never indexed, an
// evicted entry is simulated again, the index stays within the cache
// capacity, and its hits count like any other cache hit.
func TestBodyIndexSoundness(t *testing.T) {
	leakcheck.Check(t)

	t.Run("spellings-share-one-entry", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		a := `{"cycles":1200,"warmupCycles":1000,"seed":3}`
		b := `{"seed":3,"architecture":"d-hetpnoc","bandwidthSet":1,"loadScale":1,"warmupCycles":1000,"cycles":1200,"traffic":{"kind":"uniform"}}`
		status, ct, got := postRaw(t, ts.URL+"/v1/run", a)
		wantWire(t, "first spelling", status, ct, got, directRun(t, a, false, false))
		for i := 0; i < 2; i++ {
			for _, body := range []string{a, b} {
				status, ct, got := postRaw(t, ts.URL+"/v1/run", body)
				wantWire(t, body, status, ct, got, directRun(t, a, true, false))
			}
		}
		st := s.cache.Stats()
		if st.Entries != 1 || st.IndexedBodies != 2 {
			t.Errorf("two spellings left %d entries and %d indexed bodies, want 1 and 2", st.Entries, st.IndexedBodies)
		}
		if m := s.Metrics(); m.Completed != 1 {
			t.Errorf("two spellings ran %d simulations, want 1", m.Completed)
		}
	})

	t.Run("failing-bodies-are-never-indexed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, MaxCycles: 5000})
		good := `{"cycles":1200,"warmupCycles":1000,"seed":4}`
		if status, _, got := postRaw(t, ts.URL+"/v1/run", good); status != http.StatusOK {
			t.Fatalf("good body: status %d: %s", status, got)
		}
		for _, tc := range []struct {
			name, body string
			status     int
		}{
			{"unknown-field", `{"cycles":1200,"warmupCycles":1000,"seed":4,"cyclez":1}`, http.StatusBadRequest},
			{"trailing-data", good + `{"cycles":1200}`, http.StatusBadRequest},
			{"over-max-cycles", `{"cycles":6000,"warmupCycles":1000,"seed":4}`, http.StatusBadRequest},
			{"over-1-MiB", good + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
		} {
			var first []byte
			for i := 0; i < 3; i++ {
				status, _, got := postRaw(t, ts.URL+"/v1/run", tc.body)
				if status != tc.status {
					t.Errorf("%s, try %d: status %d, want %d: %s", tc.name, i, status, tc.status, got)
				}
				if i == 0 {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Errorf("%s, try %d: reply %s differs from the first %s", tc.name, i, got, first)
				}
			}
		}
		if st := s.cache.Stats(); st.IndexedBodies != 1 || st.Entries != 1 {
			t.Errorf("after the failing bodies: %d indexed bodies, %d entries, want only the good body's 1 and 1", st.IndexedBodies, st.Entries)
		}
	})

	t.Run("evicted-entry-is-simulated-again", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, CacheCapacity: 1})
		a := `{"cycles":1200,"warmupCycles":1000,"seed":5}`
		b := `{"cycles":1200,"warmupCycles":1000,"seed":6}`
		for _, step := range []struct {
			body   string
			cached bool
		}{{a, false}, {a, true}, {b, false}, {a, false}, {a, true}} {
			status, ct, got := postRaw(t, ts.URL+"/v1/run", step.body)
			wantWire(t, step.body, status, ct, got, directRun(t, step.body, step.cached, false))
		}
		if m := s.Metrics(); m.Completed != 3 {
			t.Errorf("%d simulations, want 3 (a, b, a again after its eviction)", m.Completed)
		}
	})

	t.Run("index-is-bounded-by-capacity", func(t *testing.T) {
		const capacity, bodies = 4, 10_000
		s := New(Config{Workers: 1, CacheCapacity: capacity})
		defer closeServer(t, s)
		h := s.Handler()
		for i := 0; i < bodies; i++ {
			// capacity configs, each in bodies/capacity spellings.
			body := fmt.Sprintf(`{"cycles":1200,"warmupCycles":1000,"seed":%d}%s`, i%capacity+1, strings.Repeat(" ", i/capacity))
			if status, got := serveBody(h, body); status != http.StatusOK {
				t.Fatalf("body %d: status %d: %s", i, status, got)
			}
			if st := s.cache.Stats(); st.IndexedBodies > capacity {
				t.Fatalf("after %d bodies the index holds %d records, capacity %d", i+1, st.IndexedBodies, capacity)
			}
		}
		if m := s.Metrics(); m.Completed != capacity {
			t.Errorf("%d distinct bodies of %d configs ran %d simulations, want %d", bodies, capacity, m.Completed, capacity)
		}
	})

	t.Run("metricsz-counts-body-index-hits", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		a := `{"cycles":1200,"warmupCycles":1000,"seed":7}`
		respelled := `{"seed":7,"cycles":1200,"warmupCycles":1000}`
		steps := []struct {
			body         string
			hits, misses int64
		}{
			{a, 0, 1},         // miss: a content-key lookup that finds nothing
			{respelled, 1, 1}, // content-key hit
			{a, 2, 1},         // body-index hit
			{respelled, 3, 1}, // body-index hit
		}
		for i, step := range steps {
			if status, _, got := postRaw(t, ts.URL+"/v1/run", step.body); status != http.StatusOK {
				t.Fatalf("step %d: status %d: %s", i, status, got)
			}
			m := getMetricsz(t, ts.URL)
			if m.CacheHits != step.hits || m.CacheMisses != step.misses {
				t.Errorf("step %d: cacheHits %d, cacheMisses %d, want %d and %d", i, m.CacheHits, m.CacheMisses, step.hits, step.misses)
			}
		}
	})
}
