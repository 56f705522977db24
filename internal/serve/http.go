package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hetpnoc"
	"hetpnoc/internal/serve/cache"
)

// maxBodyBytes bounds request bodies; a full 64-core custom workload
// fits in a few kilobytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// RunResponse is the /v1/run reply. The handlers never encode one: every
// reply is written from the bytes its cache entry was rendered into
// (cache.AppendReply), which are exactly this type's encoding/json form.
type RunResponse struct {
	// Key is the hex content address of the simulation.
	Key string `json:"key"`
	// Cached reports the result came from the completed-run cache.
	Cached bool `json:"cached"`
	// Coalesced reports the request shared an identical in-flight run.
	Coalesced bool           `json:"coalesced"`
	Result    hetpnoc.Result `json:"result"`
}

// SweepResponse is the /v1/sweep reply; points preserve request order.
type SweepResponse struct {
	Points []RunResponse `json:"points"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/run      — execute (or fetch) one simulation
//	POST /v1/sweep    — execute a parameter sweep through the same pool
//	GET  /healthz     — liveness; 503 while draining
//	GET  /metricsz    — JSON counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

// readBody reads a request body of at most maxBodyBytes. When it cannot,
// it has already answered — 413 for a body over the bound, 400 for one
// that failed to arrive — and reports false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return nil, false
	}
	return body, true
}

// handleRun answers a body it has served before from the body index —
// one digest, one lookup, one write — and decodes and submits any other.
// A body is indexed only once it has produced a result, so a body that
// fails is never indexed and fails the same way every time.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	digest := cache.KeyOf(body)
	if e, ok := s.cache.LookupBody(digest); ok {
		writeReply(w, e.Reply)
		return
	}
	cfg, err := DecodeRunRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.Submit(r.Context(), cfg)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.cache.IndexBody(digest, out.Key)
	writeReply(w, out.reply())
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	configs, err := DecodeSweepRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	outs, err := s.runSweep(r.Context(), configs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	// The bytes encoding/json writes for SweepResponse, from each
	// point's rendered result.
	reply := []byte(`{"points":[`)
	for i, out := range outs {
		if i > 0 {
			reply = append(reply, ',')
		}
		reply = out.appendReply(reply)
	}
	writeReply(w, append(reply, "]}\n"...))
}

// runSweep submits every point through Submit, exactly as a /v1/run of
// that config: a point may be served from the cache or coalesce with an
// identical run in flight, and a point whose build prefix the process
// has run before forks the kept build (internal/batch). At most Workers
// points of one sweep are outstanding at a time. A point hitting pool
// backpressure backs off and retries until the request context expires —
// a sweep is one logical request, so a transiently full queue should
// stretch it, not shred it.
func (s *Server) runSweep(ctx context.Context, configs []hetpnoc.Config) ([]Outcome, error) {
	points := make([]Outcome, len(configs))
	errs := make([]error, len(configs))
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i, cfg := range configs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, cfg hetpnoc.Config) {
			defer wg.Done()
			defer func() { <-sem }()
			points[i], errs[i] = s.submitWithRetry(ctx, cfg)
		}(i, cfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// reply is out's /v1/run reply: a cache hit's stored bytes, or the
// stored result in an envelope saying how it was obtained.
func (out Outcome) reply() []byte {
	if out.Cached {
		return out.entry.Reply
	}
	return append(out.appendReply(make([]byte, 0, len(out.entry.Reply)+1)), '\n')
}

// appendReply appends out's RunResponse object, without a trailing
// newline, to dst.
func (out Outcome) appendReply(dst []byte) []byte {
	return cache.AppendReply(dst, out.Key, out.Cached, out.Coalesced, out.entry.JSON)
}

// submitWithRetry is Submit retrying ErrBusy with the server's backoff
// hint until ctx gives up.
func (s *Server) submitWithRetry(ctx context.Context, cfg hetpnoc.Config) (Outcome, error) {
	for {
		out, err := s.Submit(ctx, cfg)
		if !errors.Is(err, ErrBusy) {
			return out, err
		}
		t := time.NewTimer(s.cfg.RetryAfter)
		select {
		case <-ctx.Done():
			t.Stop()
			return Outcome{}, ctx.Err()
		case <-t.C:
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// writeSubmitError maps Submit failures onto HTTP semantics: full queue
// → 429 + Retry-After, draining → 503, job timeout → 504, client gone →
// 499 (nginx's convention), config rejection → 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		writeError(w, 499, err)
	case errors.Is(err, ErrSimulation):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// retryAfterSeconds renders the hint in whole seconds, rounded up so a
// client never comes back before the server asked, and at least 1 (a
// Retry-After of 0 invites an immediate stampede).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeReply writes a 200 JSON reply already rendered to bytes.
func writeReply(w http.ResponseWriter, reply []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reply)
}

// writeJSON encodes v as the reply: errors, /healthz and /metricsz.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
