package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hetpnoc"
	"hetpnoc/internal/serve"
	"hetpnoc/internal/serve/cache"
)

// instance is one workload after set-up, ready to be timed.
type instance interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op runs operation index of one client's stream and returns the
	// simulated cycles its successful result carries. Any error counts
	// the op as failed.
	op(client, index int) (cycles int64, err error)
	// verify runs the output checks that were kept out of the timed
	// section because they cost a simulation each.
	verify() (attempted, failed int)
	// close stops everything set-up started and waits for it.
	close() error
}

// workload is one named traffic mix.
type workload struct {
	name  string
	why   string
	shape shape
	// own is the section of the traced pass that gets most of its budget.
	own   sectionKind
	setup func(ctx context.Context, seed uint64) (instance, error)
}

// sectionKind names the three sections of the traced pass.
type sectionKind int

const (
	panelKind sectionKind = iota
	sweepKind
	serveKind
)

// workloads lists the mixes in the order the suite runs them. The why
// strings are the ones BENCHMARK.json carries.
var workloads = []workload{
	{
		name:  "run-saturated",
		why:   "paper operating point: six 10,000-cycle runs at full skewed-3 load; Fabric.Step and router/xbar kernels are >98% of the time",
		shape: shapeSaturated,
		setup: func(_ context.Context, seed uint64) (instance, error) {
			return setupPanel(shapeSaturated, seed, 1)
		},
	},
	{
		name:  "run-lightload",
		why:   "same six runs at 5% uniform load: routers idle, so per-cycle fixed cost, the token tick and fabric.New dominate",
		shape: shapeLightload,
		setup: func(_ context.Context, seed uint64) (instance, error) {
			return setupPanel(shapeLightload, seed, 10)
		},
	},
	{
		name:  "sweep-fork",
		why:   "one RunBatch of the 256-point corpus per op: the only mix where batch scheduling, checkpoint forks and two cores matter",
		shape: shapeSweep,
		own:   sweepKind,
		setup: func(_ context.Context, seed uint64) (instance, error) { return setupSweep(seed) },
	},
	{
		name:  "serve-mixed",
		why:   "HTTP /v1/run on loopback, 99% cache hits beside 1% simulated misses: decode, hash, cache and net/http are ~40% of the time",
		shape: shapeServe,
		own:   serveKind,
		setup: setupServe,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// errNothingDelivered marks a run whose measurement window saw no
// packet arrive: a simulator that stopped simulating.
var errNothingDelivered = errors.New("run delivered no packets")

// runPanel executes the configs in order and returns their results.
func runPanel(cfgs []hetpnoc.Config) ([]hetpnoc.Result, int64, error) {
	results := make([]hetpnoc.Result, len(cfgs))
	var cycles int64
	for i, cfg := range cfgs {
		res, err := hetpnoc.Run(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("panel member %s: %w", panelMembers[i].name, err)
		}
		if res.PacketsDelivered <= 0 {
			return nil, 0, fmt.Errorf("panel member %s: %w", panelMembers[i].name, errNothingDelivered)
		}
		results[i] = res
		cycles += int64(cfg.Cycles)
	}
	return results, cycles, nil
}

// sameBytes reports whether two results encode to identical canonical
// bytes.
func sameBytes(a, b hetpnoc.Result) (bool, error) {
	ab, err := a.CanonicalJSON()
	if err != nil {
		return false, err
	}
	bb, err := b.CanonicalJSON()
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}

// panelInstance drives run-saturated and run-lightload: one client, one
// op = the six runs of a panel at a fresh seed.
type panelInstance struct {
	sh   shape
	seed uint64
}

// setupPanel runs the warm-up panels and checks determinism: the same
// config run twice must give identical canonical bytes.
func setupPanel(sh shape, seed uint64, warmups int) (instance, error) {
	var last []hetpnoc.Result
	var lastCfgs []hetpnoc.Config
	for w := 0; w < warmups; w++ {
		lastCfgs = panelConfigs(sh, simSeed(seed, streamWarmup, uint64(w)))
		res, _, err := runPanel(lastCfgs)
		if err != nil {
			return nil, fmt.Errorf("warm-up panel %d: %w", w, err)
		}
		last = res
	}
	again, err := hetpnoc.Run(lastCfgs[0])
	if err != nil {
		return nil, fmt.Errorf("determinism check: %w", err)
	}
	same, err := sameBytes(last[0], again)
	if err != nil {
		return nil, fmt.Errorf("determinism check: %w", err)
	}
	if !same {
		return nil, errors.New("determinism check: identical config gave different canonical bytes")
	}
	return &panelInstance{sh: sh, seed: seed}, nil
}

func (p *panelInstance) clients() int { return 1 }

func (p *panelInstance) op(_, index int) (int64, error) {
	_, cycles, err := runPanel(panelConfigs(p.sh, simSeed(p.seed, streamPanel, uint64(index))))
	return cycles, err
}

func (p *panelInstance) verify() (int, int) { return 0, 0 }
func (p *panelInstance) close() error       { return nil }

// sweepSamplesPerOp is how many points of each batch are re-run alone
// to hold RunBatch to byte-identity with Run.
const sweepSamplesPerOp = 8

// sweepSample is one batch result kept for the deferred solo re-run.
type sweepSample struct {
	cfg   hetpnoc.Config
	bytes []byte
}

// sweepInstance drives sweep-fork: one caller, one op = one RunBatch of
// a freshly seeded 256-point corpus.
type sweepInstance struct {
	seed    uint64
	samples []sweepSample
}

func setupSweep(seed uint64) (instance, error) {
	s := &sweepInstance{seed: seed}
	if _, err := s.runBatch(sweepConfigs(seed, streamWarmup, 0), 0); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	attempted, failed := s.verify()
	if failed > 0 {
		return nil, fmt.Errorf("warm-up sweep: %d of %d sampled points differ from a solo Run", failed, attempted)
	}
	s.samples = nil
	return s, nil
}

// runBatch runs one corpus through RunBatch, checks that it delivered
// packets, and keeps sweepSamplesPerOp points for verify.
func (s *sweepInstance) runBatch(cfgs []hetpnoc.Config, sampleIndex uint64) (int64, error) {
	results, err := hetpnoc.RunBatch(cfgs)
	if err != nil {
		return 0, err
	}
	if len(results) != len(cfgs) {
		return 0, fmt.Errorf("RunBatch returned %d results for %d configs", len(results), len(cfgs))
	}
	// The lightest corpus points (uniform traffic at half load) inject
	// nothing in 600 cycles, so delivery is required of the sweep as a
	// whole, not of every point.
	var cycles, delivered int64
	for i, res := range results {
		delivered += res.PacketsDelivered
		cycles += int64(cfgs[i].Cycles)
	}
	if delivered <= 0 {
		return 0, fmt.Errorf("sweep: %w", errNothingDelivered)
	}
	for j := uint64(0); j < sweepSamplesPerOp; j++ {
		i := mix(s.seed, streamSample, sampleIndex*sweepSamplesPerOp+j) % uint64(len(cfgs))
		b, err := results[i].CanonicalJSON()
		if err != nil {
			return 0, err
		}
		s.samples = append(s.samples, sweepSample{cfg: cfgs[i], bytes: b})
	}
	return cycles, nil
}

func (s *sweepInstance) clients() int { return 1 }

func (s *sweepInstance) op(_, index int) (int64, error) {
	return s.runBatch(sweepConfigs(s.seed, streamSweep, uint64(index)), uint64(index)+1)
}

// verify re-runs every kept sample alone: batching is a performance
// choice only if the bytes agree.
func (s *sweepInstance) verify() (attempted, failed int) {
	for _, sm := range s.samples {
		attempted++
		res, err := hetpnoc.Run(sm.cfg)
		if err != nil {
			failed++
			continue
		}
		b, err := res.CanonicalJSON()
		if err != nil || !bytes.Equal(b, sm.bytes) {
			failed++
		}
	}
	return attempted, failed
}

func (s *sweepInstance) close() error { return nil }

// runReply is the /v1/run reply with the result kept as the bytes the
// server sent, so they can be compared with a direct Run's canonical
// encoding without a decode/re-encode round trip.
type runReply struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
	Batched   bool            `json:"batched"`
	Result    json.RawMessage `json:"result"`
}

// delivered extracts the one result field every reply is checked for.
func (r runReply) delivered() (int64, error) {
	var probe struct{ PacketsDelivered int64 }
	if err := json.Unmarshal(r.Result, &probe); err != nil {
		return 0, err
	}
	return probe.PacketsDelivered, nil
}

// expectedKey is the content address the server must report for cfg.
func expectedKey(cfg hetpnoc.Config) (string, error) {
	canonical, err := cfg.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return cache.KeyOf(canonical).String(), nil
}

// missSample is one miss reply kept for the deferred direct re-run.
type missSample struct {
	cfg    hetpnoc.Config
	result []byte
}

// missSamplesKept bounds the misses verify re-runs directly.
const missSamplesKept = 8

// httpClient is one closed-loop client: its own transport, so it holds
// exactly one keep-alive connection.
type httpClient struct {
	transport *http.Transport
	client    *http.Client
	buf       bytes.Buffer
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{transport: tr, client: &http.Client{Transport: tr}}
}

// post sends body and returns the status and the reply bytes, which
// stay valid until the client's next post.
func (c *httpClient) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// serveInstance drives serve-mixed: benchProcs() clients posting the
// seeded schedule to a real HTTP server on loopback.
type serveInstance struct {
	ctx     context.Context
	seed    uint64
	srv     *serve.Server
	ts      *httptest.Server
	conns   []*httpClient
	hotBody [][]byte // request bytes of each hot config
	hotWant [][]byte // the reply bytes a cache hit on it must carry

	mu     sync.Mutex
	misses []missSample
}

// serveDrainTimeout bounds the server's graceful drain at close.
const serveDrainTimeout = 30 * time.Second

// startServe starts the server and its clients without warming
// anything.
func startServe(ctx context.Context, seed uint64, clients int) *serveInstance {
	srv := serve.New(serve.Config{Workers: benchProcs()})
	s := &serveInstance{ctx: ctx, seed: seed, srv: srv, ts: httptest.NewServer(srv.Handler())}
	for c := 0; c < clients; c++ {
		s.conns = append(s.conns, newHTTPClient())
	}
	return s
}

// setupServe starts the service, warms the hot set through it, records
// the reply each hot config must produce from then on, exercises
// /v1/sweep once and sends a few warm-up hits.
func setupServe(ctx context.Context, seed uint64) (instance, error) {
	s := startServe(ctx, seed, benchProcs())
	if err := s.warm(hotSetSize); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if err := s.checkSweepEndpoint(); err != nil {
		return nil, errors.Join(fmt.Errorf("/v1/sweep check: %w", err), s.close())
	}
	for g := 0; g < 2000; g++ {
		if err := s.hit(0, g%len(s.hotBody)); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up hit: %w", err), s.close())
		}
	}
	return s, nil
}

func (s *serveInstance) runURL() string { return s.ts.URL + "/v1/run" }

// warm posts the first n hot configs (clients in parallel, so the
// simulations use every worker), then posts each again to capture the
// exact bytes a hit returns, checking key, flag and — for a sample —
// the result against a direct Run.
func (s *serveInstance) warm(n int) error {
	cfgs := make([]hetpnoc.Config, n)
	s.hotBody = make([][]byte, n)
	s.hotWant = make([][]byte, n)
	for h := range cfgs {
		cfgs[h] = serveConfig(simSeed(s.seed, streamHot, uint64(h)))
		body, err := requestBody(cfgs[h])
		if err != nil {
			return err
		}
		s.hotBody[h] = body
	}

	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for h := c; h < n; h += len(s.conns) {
				if _, err := s.miss(c, cfgs[h], s.hotBody[h]); err != nil {
					errs[c] = fmt.Errorf("warm hot config %d: %w", h, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	for h, cfg := range cfgs {
		status, reply, err := s.conns[0].post(s.ctx, s.runURL(), s.hotBody[h])
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("hot config %d: status %d: %s", h, status, reply)
		}
		var rr runReply
		if err := json.Unmarshal(reply, &rr); err != nil {
			return fmt.Errorf("hot config %d: %w", h, err)
		}
		key, err := expectedKey(cfg)
		if err != nil {
			return err
		}
		if !rr.Cached || rr.Key != key {
			return fmt.Errorf("hot config %d: cached=%v key=%s, want a hit on %s", h, rr.Cached, rr.Key, key)
		}
		if h%(n/missSamplesKept+1) == 0 {
			if err := matchesDirectRun(cfg, rr.Result); err != nil {
				return fmt.Errorf("hot config %d: %w", h, err)
			}
		}
		s.hotWant[h] = append([]byte(nil), reply...)
	}
	return nil
}

// matchesDirectRun holds an HTTP result to the bytes of hetpnoc.Run.
func matchesDirectRun(cfg hetpnoc.Config, got []byte) error {
	res, err := hetpnoc.Run(cfg)
	if err != nil {
		return err
	}
	want, err := res.CanonicalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("HTTP result differs from a direct Run")
	}
	return nil
}

// checkSweepEndpoint posts one four-point sweep and checks its shape and
// its first point against a direct Run. /v1/sweep is not a timed op: it
// runs through the same batch engine sweep-fork already times.
func (s *serveInstance) checkSweepEndpoint() error {
	base := serveConfig(simSeed(s.seed, streamWarmup, 0))
	baseBody, err := requestBody(base)
	if err != nil {
		return err
	}
	seeds := []uint64{simSeed(s.seed, streamWarmup, 1), simSeed(s.seed, streamWarmup, 2)}
	body, err := json.Marshal(struct {
		Base       json.RawMessage `json:"base"`
		LoadScales []float64       `json:"loadScales"`
		Seeds      []uint64        `json:"seeds"`
	}{baseBody, []float64{0.5, 1}, seeds})
	if err != nil {
		return err
	}
	status, reply, err := s.conns[0].post(s.ctx, s.ts.URL+"/v1/sweep", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, reply)
	}
	var sr struct {
		Points []runReply `json:"points"`
	}
	if err := json.Unmarshal(reply, &sr); err != nil {
		return err
	}
	if len(sr.Points) != 4 {
		return fmt.Errorf("%d points, want 4", len(sr.Points))
	}
	for i, p := range sr.Points {
		n, err := p.delivered()
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf("point %d: %w", i, errNothingDelivered)
		}
	}
	first := base
	first.LoadScale, first.Seed = 0.5, seeds[0]
	return matchesDirectRun(first, sr.Points[0].Result)
}

// hit posts hot config h and requires the recorded hit reply byte for
// byte — status, key, cached flag and result in one comparison.
func (s *serveInstance) hit(client, h int) error {
	status, reply, err := s.conns[client].post(s.ctx, s.runURL(), s.hotBody[h])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("hit: status %d: %s", status, reply)
	}
	if !bytes.Equal(reply, s.hotWant[h]) {
		return fmt.Errorf("hit on hot config %d: reply differs from the recorded cache hit", h)
	}
	return nil
}

// miss posts a never-seen config and requires a fresh simulation under
// the right key. It returns the result bytes.
func (s *serveInstance) miss(client int, cfg hetpnoc.Config, body []byte) ([]byte, error) {
	status, reply, err := s.conns[client].post(s.ctx, s.runURL(), body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("miss: status %d: %s", status, reply)
	}
	var rr runReply
	if err := json.Unmarshal(reply, &rr); err != nil {
		return nil, err
	}
	key, err := expectedKey(cfg)
	if err != nil {
		return nil, err
	}
	if rr.Cached || rr.Key != key {
		return nil, fmt.Errorf("miss: cached=%v key=%s, want a fresh run under %s", rr.Cached, rr.Key, key)
	}
	n, err := rr.delivered()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errNothingDelivered
	}
	return rr.Result, nil
}

func (s *serveInstance) clients() int { return len(s.conns) }

// op sends request index of the client's stream: the clients interleave
// over one global schedule.
func (s *serveInstance) op(client, index int) (int64, error) {
	return s.request(client, scheduleAt(s.seed, uint64(index*len(s.conns)+client)))
}

func (s *serveInstance) request(client int, r serveRequest) (int64, error) {
	if r.hot >= 0 {
		return serveCycles, s.hit(client, r.hot)
	}
	cfg := serveConfig(r.seed)
	body, err := requestBody(cfg)
	if err != nil {
		return 0, err
	}
	result, err := s.miss(client, cfg, body)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	if len(s.misses) < missSamplesKept {
		s.misses = append(s.misses, missSample{cfg: cfg, result: append([]byte(nil), result...)})
	}
	s.mu.Unlock()
	return serveCycles, nil
}

// verify re-runs the kept misses directly.
func (s *serveInstance) verify() (attempted, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.misses {
		attempted++
		if err := matchesDirectRun(m.cfg, m.result); err != nil {
			failed++
		}
	}
	return attempted, failed
}

// metricsz reads the server's own counters over HTTP.
func (s *serveInstance) metricsz() (serve.Metrics, error) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.ts.URL+"/metricsz", nil)
	if err != nil {
		return serve.Metrics{}, err
	}
	resp, err := s.conns[0].client.Do(req)
	if err != nil {
		return serve.Metrics{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Metrics{}, err
	}
	var m serve.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return serve.Metrics{}, err
	}
	return m, nil
}

// close drops the client connections, stops the listener and drains the
// worker pool.
func (s *serveInstance) close() error {
	for _, c := range s.conns {
		c.transport.CloseIdleConnections()
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(s.ctx, serveDrainTimeout)
	defer cancel()
	return s.srv.Close(ctx)
}
