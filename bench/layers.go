package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"hetpnoc"
	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/serve"
	"hetpnoc/internal/serve/cache"
)

// perLayerUnits names every per-layer metric of the traced pass and its
// unit; layer = module name. BENCHMARK.json carries the same table with
// each metric's direction. A traced run reports every one of them on
// every workload: the workload's own section runs for most of the time
// budget and the other sections run once, so no layer reads zero for
// want of being exercised.
var perLayerUnits = map[string]string{
	"hetpnoc.validate_us":        "us",
	"hetpnoc.canonical_us":       "us",
	"hetpnoc.result_encode_us":   "us",
	"hetpnoc.run_ms.dhet-bw1":    "ms",
	"hetpnoc.run_ms.dhet-bw2":    "ms",
	"hetpnoc.run_ms.dhet-bw3":    "ms",
	"hetpnoc.run_ms.firefly-bw1": "ms",
	"hetpnoc.run_ms.firefly-bw2": "ms",
	"hetpnoc.run_ms.firefly-bw3": "ms",

	"fabric.build_us":                     "us",
	"fabric.build_allocs":                 "count",
	"fabric.step_ns_per_cycle.warmup":     "ns",
	"fabric.step_ns_per_cycle.measure":    "ns",
	"fabric.step_allocs_per_cycle":        "count",
	"fabric.host_us_per_delivered_packet": "us",
	"fabric.finish_us":                    "us",
	"fabric.checkpoint_us":                "us",
	"fabric.restore_us":                   "us",
	"fabric.reseed_us":                    "us",

	"fabric.sim.delivered_gbps":     "Gb/s",
	"fabric.sim.epm_pj":             "pJ",
	"fabric.sim.p99_latency_cycles": "cycles",
	"fabric.sim.drop_frac":          "ratio",
	"fabric.sim.retx_per_delivered": "ratio",
	"fabric.sim.token_rotations":    "count",
	"fabric.sim.channel_busy_mean":  "ratio",
	"fabric.sim.dhet_bw_gain_pct":   "%",
	"fabric.sim.dhet_epm_delta_pct": "%",
	"fabric.sim.result_digest32":    "count",

	"core.token_tick_ns":    "ns",
	"router.tick_stream_ns": "ns",
	"router.tick_idle_ns":   "ns",

	"batch.plan_us":            "us",
	"batch.run_ms":             "ms",
	"batch.groups":             "count",
	"batch.members":            "count",
	"batch.worker_busy_frac":   "ratio",
	"batch.fork_overhead_frac": "ratio",

	"serve.decode_us":        "us",
	"serve.submit_hit_us":    "us",
	"serve.submit_miss_ms":   "ms",
	"serve.http_hit_p50_us":  "us",
	"serve.http_hit_p99_us":  "us",
	"serve.http_miss_p50_ms": "ms",
	"serve.http_miss_p99_ms": "ms",
	"serve.http_overhead_us": "us",
	"serve.sim_frac":         "ratio",
	"serve.cache_hit_rate":   "ratio",
	"serve.completed":        "count",
	"serve.rejected":         "count",
	"serve.coalesced":        "count",

	"cache.key_ns": "ns",
	"cache.get_ns": "ns",
	"cache.put_ns": "ns",

	"bench.op_p50_ms":     "ms",
	"bench.op_tail_ms":    "ms",
	"bench.op_tail_pct":   "%",
	"bench.op_samples":    "count",
	"host.peak_rss_mb":    "MiB",
	"host.gc_cycles":      "count",
	"host.gc_pause_ms":    "ms",
	"trace.overhead_frac": "ratio",
}

// primaryShare is the share of a traced run's length its workload's own
// section gets.
const primaryShare = 0.6

// checks counts output comparisons made by the traced pass.
type checks struct{ attempted, failed int }

// record counts one comparison: a mismatch is a failed check, any other
// error aborts the pass.
func (c *checks) record(err error, logf func(string, ...any)) error {
	c.attempted++
	if err == nil {
		return nil
	}
	if errors.Is(err, errMismatch) {
		c.failed++
		logf("%v", err)
		return nil
	}
	return err
}

// section is what the pass keeps from one section beside its spans:
// the latencies of the ops it ran whole (untraced) and decomposed
// (traced), which give the op distribution and the tracing overhead.
type section struct {
	untracedMS []float64
	tracedMS   []float64
}

// until runs body for iterations 0,1,2,… until budget has elapsed,
// always at least once.
func until(budget time.Duration, body func(iter int) error) error {
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < budget; iter++ {
		if err := body(iter); err != nil {
			return err
		}
	}
	return nil
}

// panelSection alternates whole panels (six hetpnoc.Run calls, which
// also supply the reference results) with decomposed panels of the same
// configs, and fills the hetpnoc.run_ms.*, fabric.* and fabric.sim.*
// values.
func panelSection(ctx context.Context, tr *tracer, sh shape, o options, budget time.Duration, ck *checks, out map[string]float64) (section, error) {
	var sec section
	runMS := make(map[string][]float64)
	var buildAllocs []float64
	var warmNS, measNS, warmCycles, measCycles, delivered int64
	var measAllocs uint64
	store := cache.New(0)

	err := until(budget, func(iter int) error {
		cfgs := panelConfigs(sh, simSeed(o.seed, streamTrace, uint64(iter)))
		refs := make([]hetpnoc.Result, len(cfgs))
		t0 := time.Now()
		for i, cfg := range cfgs {
			r0 := time.Now()
			res, err := hetpnoc.RunContext(ctx, cfg)
			if err != nil {
				return err
			}
			runMS[panelMembers[i].name] = append(runMS[panelMembers[i].name], float64(time.Since(r0))/1e6)
			refs[i] = res
		}
		sec.untracedMS = append(sec.untracedMS, float64(time.Since(t0))/1e6)
		if iter == 0 {
			if err := simulatedStats(refs, out); err != nil {
				return err
			}
		}

		t0 = time.Now()
		op := tr.begin("op", 0, iter)
		for i, cfg := range cfgs {
			cost, err := decomposedRun(ctx, tr, op, iter, cfg, refs[i], store)
			if err := ck.record(err, o.logf); err != nil {
				return err
			}
			buildAllocs = append(buildAllocs, float64(cost.buildAllocs))
			warmNS += cost.warmupNS
			measNS += cost.measureNS
			warmCycles += int64(cfg.WarmupCycles)
			measCycles += int64(cfg.Cycles - cfg.WarmupCycles)
			measAllocs += cost.measureAllocs
			delivered += cost.delivered
		}
		tr.end(op)
		sec.tracedMS = append(sec.tracedMS, float64(time.Since(t0))/1e6)
		return nil
	})
	if err != nil {
		return sec, fmt.Errorf("panel section: %w", err)
	}

	for name, ms := range runMS {
		out["hetpnoc.run_ms."+name] = median(ms)
	}
	out["fabric.build_allocs"] = median(buildAllocs)
	out["fabric.step_ns_per_cycle.warmup"] = float64(warmNS) / float64(warmCycles)
	out["fabric.step_ns_per_cycle.measure"] = float64(measNS) / float64(measCycles)
	out["fabric.step_allocs_per_cycle"] = float64(measAllocs) / float64(measCycles)
	if delivered > 0 {
		out["fabric.host_us_per_delivered_packet"] = float64(measNS) / 1e3 / float64(delivered)
	}
	return sec, nil
}

// simulatedStats condenses one panel's results into the fabric.sim.*
// values: what the modelled network did, in simulated time. They depend
// on the seed and the model only, so two commits compare exactly.
func simulatedStats(panel []hetpnoc.Result, out map[string]float64) error {
	byName := make(map[string]hetpnoc.Result, len(panel))
	var gbps, epm, busy float64
	var busyN int
	var injected, deliveredPk, dropped, retx, rotations, p99 int64
	var canonical bytes.Buffer
	for i, r := range panel {
		byName[panelMembers[i].name] = r
		gbps += float64(r.DeliveredGbps)
		epm += float64(r.EnergyPerMessagePJ)
		for _, b := range r.ChannelBusyFraction {
			busy += b
			busyN++
		}
		injected += r.PacketsInjected
		deliveredPk += r.PacketsDelivered
		dropped += r.PacketsDroppedRX
		retx += r.Retransmissions
		rotations += r.TokenRotations
		if r.P99LatencyCycles > p99 {
			p99 = r.P99LatencyCycles
		}
		b, err := r.CanonicalJSON()
		if err != nil {
			return err
		}
		canonical.Write(b)
	}
	n := float64(len(panel))
	out["fabric.sim.delivered_gbps"] = gbps / n
	out["fabric.sim.epm_pj"] = epm / n
	out["fabric.sim.p99_latency_cycles"] = float64(p99)
	out["fabric.sim.drop_frac"] = float64(dropped) / float64(injected)
	out["fabric.sim.retx_per_delivered"] = float64(retx) / float64(deliveredPk)
	out["fabric.sim.token_rotations"] = float64(rotations)
	out["fabric.sim.channel_busy_mean"] = busy / float64(busyN)
	var bwGain, epmDelta float64
	for _, set := range []string{"bw1", "bw2", "bw3"} {
		dh, ff := byName["dhet-"+set], byName["firefly-"+set]
		bwGain += (float64(dh.DeliveredGbps)/float64(ff.DeliveredGbps) - 1) * 100
		epmDelta += (float64(dh.EnergyPerMessagePJ)/float64(ff.EnergyPerMessagePJ) - 1) * 100
	}
	out["fabric.sim.dhet_bw_gain_pct"] = bwGain / 3
	out["fabric.sim.dhet_epm_delta_pct"] = epmDelta / 3
	digest := sha256.Sum256(canonical.Bytes())
	out["fabric.sim.result_digest32"] = float64(binary.BigEndian.Uint32(digest[:4]))
	return nil
}

// membersPerGroup is how many corpus points share one build prefix;
// sweepConfigs emits them consecutively.
const membersPerGroup = sweepSeeds * 4

// probeMembers is how many members of each group a non-primary batch
// section forks: enough for the per-call medians at a fraction of the
// cost of the whole corpus.
const probeMembers = 2

// batchSection alternates whole RunBatch ops with the same corpus
// forked by hand — build, checkpoint, then restore / reseed / step /
// finish per member, groups dealt over the workers as batch.Plan deals
// them — and fills the batch.* values. The checkpoint, restore and
// reseed spans it records are the only source of those fabric.* values.
func batchSection(ctx context.Context, tr *tracer, o options, budget time.Duration, whole bool, ck *checks, out map[string]float64) (section, error) {
	var sec section
	var planUS, busy []float64
	workers := benchProcs()
	members := probeMembers
	if whole {
		members = membersPerGroup
	}

	err := until(budget, func(iter int) error {
		cfgs := sweepConfigs(o.seed, streamTrace, uint64(iter))
		cpu0, err := processCPU()
		if err != nil {
			return err
		}
		t0 := time.Now()
		refs, err := hetpnoc.RunBatchContext(ctx, cfgs)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		cpu1, err := processCPU()
		if err != nil {
			return err
		}
		sec.untracedMS = append(sec.untracedMS, float64(wall)/1e6)
		busy = append(busy, float64(cpu1-cpu0)/(float64(wall)*float64(workers)))

		specs, err := lowerAll(cfgs)
		if err != nil {
			return err
		}
		t0 = time.Now()
		plan, err := batch.NewPlan(specs, batch.Options{})
		if err != nil {
			return err
		}
		planUS = append(planUS, float64(time.Since(t0))/1e3)
		st := plan.Stats()
		out["batch.groups"], out["batch.members"] = float64(st.Groups), float64(st.Members)
		if st.Groups*membersPerGroup != len(specs) {
			return fmt.Errorf("batch plan has %d groups for %d specs; the hand fork assumes %d members each", st.Groups, len(specs), membersPerGroup)
		}

		t0 = time.Now()
		op := tr.begin("op", 0, iter)
		errs := make([]error, workers)
		fails := make([]checks, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for g := w; g < st.Groups; g += workers {
					lo := g * membersPerGroup
					if err := forkGroup(ctx, tr, op, iter, specs[lo:lo+members], refs[lo:lo+members], &fails[w], o.logf); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		tr.end(op)
		sec.tracedMS = append(sec.tracedMS, float64(time.Since(t0))/1e6)
		for _, f := range fails {
			ck.attempted += f.attempted
			ck.failed += f.failed
		}
		return errors.Join(errs...)
	})
	if err != nil {
		return sec, fmt.Errorf("batch section: %w", err)
	}

	out["batch.plan_us"] = median(planUS)
	out["batch.run_ms"] = median(sec.untracedMS)
	out["batch.worker_busy_frac"] = median(busy)
	fork := tr.medianUS("fabric.build") + tr.medianUS("fabric.checkpoint") +
		membersPerGroup*(tr.medianUS("fabric.restore")+tr.medianUS("fabric.reseed")+tr.medianUS("fabric.finish"))
	out["batch.fork_overhead_frac"] = fork / (fork + membersPerGroup*tr.medianUS("fabric.step"))
	return sec, nil
}

// forkGroup builds one shared fabric and forks the given members off
// its pristine checkpoint, exactly the call sequence of batch.Plan's
// group runner, holding each member to RunBatch's result.
func forkGroup(ctx context.Context, tr *tracer, parent, op int, specs []fabric.Config, refs []hetpnoc.Result, ck *checks, logf func(string, ...any)) error {
	group := tr.begin("batch.group", parent, op)
	defer tr.end(group)

	var f *fabric.Fabric
	if err := tr.timed("fabric.build", group, op, func() (err error) {
		f, err = fabric.New(specs[0])
		return err
	}); err != nil {
		return err
	}
	id := tr.begin("fabric.checkpoint", group, op)
	cp := f.Checkpoint()
	tr.end(id)

	for i, spec := range specs {
		member := tr.begin("batch.member", group, op)
		if err := tr.timed("fabric.restore", member, op, func() error { return f.Restore(cp) }); err != nil {
			return err
		}
		if err := tr.timed("fabric.reseed", member, op, func() error {
			if err := f.SetLoadScale(spec.LoadScale); err != nil {
				return err
			}
			return f.Reseed(spec.Seed)
		}); err != nil {
			return err
		}
		if err := tr.timed("fabric.step", member, op, func() error { return f.StepContext(ctx, spec.Cycles) }); err != nil {
			return err
		}
		var got fabric.Result
		if err := tr.timed("fabric.finish", member, op, func() (err error) {
			got, err = f.Finish()
			return err
		}); err != nil {
			return err
		}
		tr.end(member)
		var mismatch error
		if !agrees(got, refs[i]) {
			mismatch = fmt.Errorf("%w: hand-forked member %d of %s/%s differs from RunBatch", errMismatch, i, spec.Arch, spec.Set.Name)
		}
		if err := ck.record(mismatch, logf); err != nil {
			return err
		}
	}
	return nil
}

// Sizes of the serve section.
const (
	stageProbeCalls  = 200 // direct calls per decomposed serving stage
	submitMissProbes = 8   // direct Server.Submit calls on fresh configs
	probeHotSet      = 32  // hot-set size of a non-primary serve section
	probeBlock       = 300 // requests per client per block, non-primary
	primaryBlock     = 5000
)

// serveSection starts the service, times the serving stages by direct
// calls, then alternates untraced and traced blocks of the HTTP
// schedule (one http.request client span per traced request), and fills
// the serve.* values.
func serveSection(ctx context.Context, tr *tracer, o options, budget time.Duration, primary bool, ck *checks, out map[string]float64) (section, error) {
	var sec section
	hot, block := probeHotSet, probeBlock
	if primary {
		hot, block = hotSetSize, primaryBlock
	}
	s := startServe(ctx, o.seed, benchProcs())
	fail := func(err error) (section, error) {
		return sec, errors.Join(fmt.Errorf("serve section: %w", err), s.close())
	}
	if err := s.warm(hot); err != nil {
		return fail(err)
	}
	if err := serveStages(ctx, tr, s, o.seed); err != nil {
		return fail(err)
	}

	// Latencies per client, merged afterwards.
	clients := len(s.conns)
	type clientLat struct{ hitUS, missMS, untracedMS, tracedMS []float64 }
	lat := make([]clientLat, clients)
	var simMS, wallMS float64
	next := 0 // per-client stream index of the next block's first request
	err := until(budget, func(iter int) error {
		for _, traced := range []bool{false, true} {
			failed := make([]int, clients)
			t0 := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					l := &lat[c]
					for i := next; i < next+block; i++ {
						g := i*clients + c
						r := scheduleAt(o.seed, uint64(g))
						r.hot %= hot
						var id int
						if traced {
							id = tr.begin("http.request", 0, g)
						}
						r0 := time.Now()
						_, err := s.request(c, r)
						d := time.Since(r0)
						if traced {
							tr.end(id)
						}
						if err != nil {
							failed[c]++
							o.logf("request %d: %v", g, err)
							continue
						}
						if r.hot >= 0 {
							l.hitUS = append(l.hitUS, float64(d)/1e3)
						} else {
							l.missMS = append(l.missMS, float64(d)/1e6)
						}
						if traced {
							l.tracedMS = append(l.tracedMS, float64(d)/1e6)
						} else {
							l.untracedMS = append(l.untracedMS, float64(d)/1e6)
						}
					}
				}(c)
			}
			wg.Wait()
			wallMS += float64(time.Since(t0)) / 1e6
			next += block
			ck.attempted += clients * block
			for _, n := range failed {
				ck.failed += n
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}

	var hitUS, missMS []float64
	for _, l := range lat {
		hitUS = append(hitUS, l.hitUS...)
		missMS = append(missMS, l.missMS...)
		sec.untracedMS = append(sec.untracedMS, l.untracedMS...)
		sec.tracedMS = append(sec.tracedMS, l.tracedMS...)
	}
	if len(hitUS) == 0 || len(missMS) == 0 {
		return fail(errors.New("the schedule produced no successful hit or no successful miss"))
	}
	sort.Float64s(hitUS)
	sort.Float64s(missMS)
	for _, ms := range missMS {
		simMS += ms
	}
	out["serve.http_hit_p50_us"] = percentile(hitUS, 50)
	out["serve.http_hit_p99_us"] = percentile(hitUS, 99)
	out["serve.http_miss_p50_ms"] = percentile(missMS, 50)
	out["serve.http_miss_p99_ms"] = percentile(missMS, 99)
	out["serve.sim_frac"] = simMS / (wallMS * float64(clients))
	stages := tr.medianUS("serve.decode") + tr.medianUS("hetpnoc.validate") + tr.medianUS("hetpnoc.canonical") +
		tr.medianUS("cache.key") + tr.medianUS("cache.get") + tr.medianUS("serve.response_encode")
	out["serve.http_overhead_us"] = out["serve.http_hit_p50_us"] - stages
	out["serve.decode_us"] = tr.medianUS("serve.decode")
	out["serve.submit_hit_us"] = tr.medianUS("serve.submit_hit")
	out["serve.submit_miss_ms"] = tr.medianUS("serve.submit_miss") / 1e3

	m, err := s.metricsz()
	if err != nil {
		return fail(err)
	}
	out["serve.cache_hit_rate"] = m.CacheHitRate
	out["serve.completed"] = float64(m.Completed)
	out["serve.rejected"] = float64(m.Rejected)
	out["serve.coalesced"] = float64(m.Coalesced)
	if err := s.close(); err != nil {
		return sec, fmt.Errorf("serve section: close: %w", err)
	}
	return sec, nil
}

// serveStages times, by direct calls on hot config 0, each stage a
// cache-hit request passes through on the server — decode, validate,
// canonicalise, hash, look up, encode the reply — and Server.Submit
// itself on a hit and on fresh configs. The HTTP hit median minus the
// sum of the stage medians is what net/http and the loopback cost.
func serveStages(ctx context.Context, tr *tracer, s *serveInstance, seed uint64) error {
	body := s.hotBody[0]
	cfg, err := serve.DecodeRunRequest(body)
	if err != nil {
		return err
	}
	canonical, err := cfg.CanonicalJSON()
	if err != nil {
		return err
	}
	key := cache.KeyOf(canonical)
	hit, err := s.srv.Submit(ctx, cfg)
	if err != nil {
		return err
	}
	if !hit.Cached || hit.Key != key {
		return errors.New("serve stages: warmed config is not a cache hit under its own key")
	}
	store := cache.New(0)
	store.Put(key, hit.Result)

	op := tr.begin("op", 0, -1)
	defer tr.end(op)
	for i := 0; i < stageProbeCalls; i++ {
		if err := tr.timed("serve.decode", op, -1, func() error {
			_, err := serve.DecodeRunRequest(body)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("hetpnoc.validate", op, -1, func() error { return cfg.Normalized().Validate() }); err != nil {
			return err
		}
		if err := tr.timed("hetpnoc.canonical", op, -1, func() error {
			_, err := cfg.CanonicalJSON()
			return err
		}); err != nil {
			return err
		}
		id := tr.begin("cache.key", op, -1)
		k := cache.KeyOf(canonical)
		tr.end(id)
		id = tr.begin("cache.get", op, -1)
		_, ok := store.Get(k)
		tr.end(id)
		if !ok {
			return errors.New("serve stages: private cache lost its only entry")
		}
		if err := tr.timed("serve.response_encode", op, -1, func() error {
			_, err := json.Marshal(serve.RunResponse{Key: k.String(), Cached: true, Result: hit.Result})
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("hetpnoc.result_encode", op, -1, func() error {
			_, err := hit.Result.CanonicalJSON()
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("serve.submit_hit", op, -1, func() error {
			_, err := s.srv.Submit(ctx, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < submitMissProbes; i++ {
		fresh := serveConfig(simSeed(seed, streamTrace, uint64(1<<20+i)))
		if err := tr.timed("serve.submit_miss", op, -1, func() error {
			o, err := s.srv.Submit(ctx, fresh)
			if err == nil && o.Cached {
				err = errors.New("serve stages: fresh config came back cached")
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the traced pass: the fixed probes, then the three
// sections, the workload's own for most of the budget.
func runTraced(ctx context.Context, w workload, o options) (result, error) {
	tr := newTracer()
	out := make(map[string]float64, len(perLayerUnits))
	var ck checks
	// The workload's own section gets primaryShare of the run length; the
	// other two run one iteration each.
	budgetOf := func(k sectionKind) time.Duration {
		if k == w.own {
			return time.Duration(primaryShare * float64(o.duration))
		}
		return 0
	}

	var err error
	if out["core.token_tick_ns"], err = probeTokenTick(); err != nil {
		return result{}, err
	}
	if out["router.tick_idle_ns"], err = probeRouterIdle(); err != nil {
		return result{}, err
	}
	if out["router.tick_stream_ns"], err = probeRouterStream(); err != nil {
		return result{}, err
	}

	panel, err := panelSection(ctx, tr, w.shape, o, budgetOf(panelKind), &ck, out)
	if err != nil {
		return result{}, err
	}
	sweep, err := batchSection(ctx, tr, o, budgetOf(sweepKind), w.own == sweepKind, &ck, out)
	if err != nil {
		return result{}, err
	}
	srv, err := serveSection(ctx, tr, o, budgetOf(serveKind), w.own == serveKind, &ck, out)
	if err != nil {
		return result{}, err
	}

	ref, err := hetpnoc.RunContext(ctx, serveConfig(simSeed(o.seed, streamTrace, 0)))
	if err != nil {
		return result{}, err
	}
	cp, err := probeCache(o.seed, ref)
	if err != nil {
		return result{}, err
	}
	out["cache.key_ns"], out["cache.get_ns"], out["cache.put_ns"] = cp.keyNS, cp.getNS, cp.putNS

	out["hetpnoc.validate_us"] = tr.medianUS("hetpnoc.validate")
	out["hetpnoc.canonical_us"] = tr.medianUS("hetpnoc.canonical")
	out["hetpnoc.result_encode_us"] = tr.medianUS("hetpnoc.result_encode")
	out["fabric.build_us"] = tr.medianUS("fabric.build")
	out["fabric.finish_us"] = tr.medianUS("fabric.finish")
	out["fabric.checkpoint_us"] = tr.medianUS("fabric.checkpoint")
	out["fabric.restore_us"] = tr.medianUS("fabric.restore")
	out["fabric.reseed_us"] = tr.medianUS("fabric.reseed")

	own := [...]section{panelKind: panel, sweepKind: sweep, serveKind: srv}[w.own]
	sorted := append([]float64(nil), own.untracedMS...)
	sort.Float64s(sorted)
	tail := tailPercentile(len(sorted))
	out["bench.op_p50_ms"] = percentile(sorted, 50)
	out["bench.op_tail_ms"] = percentile(sorted, tail)
	out["bench.op_tail_pct"] = tail
	out["bench.op_samples"] = float64(len(sorted))
	out["trace.overhead_frac"] = median(own.tracedMS)/median(own.untracedMS) - 1

	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["host.peak_rss_mb"] = rss
	out["host.gc_cycles"] = float64(ms.NumGC)
	out["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6

	path, err := tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.info, "# %s: traced pass, seed=%d, %d own ops whole + %d decomposed, %d output checks, trace written to %s\n",
		w.name, o.seed, len(own.untracedMS), len(own.tracedMS), ck.attempted, path)

	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: make(map[string]metric, len(perLayerUnits))}
	for name, unit := range perLayerUnits {
		v, ok := out[name]
		if !ok {
			return result{}, fmt.Errorf("traced pass of %s produced no value for %s", w.name, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}
