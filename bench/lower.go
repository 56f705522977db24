package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"

	"hetpnoc"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/serve/cache"
	"hetpnoc/internal/traffic"
)

// lower is the benchmark's own copy of the Config → fabric.Config
// lowering hetpnoc.Run performs internally, restricted to the fields
// the benchmark's configs set. The traced pass needs it to call
// fabric.New, StepContext and Finish one by one; every decomposed run
// is held to the results of hetpnoc.Run on the same config, so a
// lowering that drifts from the program's fails the run instead of
// skewing it.
func lower(cfg hetpnoc.Config) (fabric.Config, error) {
	fc := fabric.Config{
		LoadScale:    cfg.LoadScale,
		Cycles:       cfg.Cycles,
		WarmupCycles: cfg.WarmupCycles,
		Seed:         cfg.Seed,
		IntraCluster: fabric.AllToAll,
	}
	switch cfg.Architecture {
	case hetpnoc.DHetPNoC:
		fc.Arch = fabric.DHetPNoC
	case hetpnoc.Firefly:
		fc.Arch = fabric.Firefly
	default:
		return fabric.Config{}, fmt.Errorf("lower: architecture %v not used by the benchmark", cfg.Architecture)
	}
	switch cfg.BandwidthSet {
	case 1:
		fc.Set = traffic.BWSet1
	case 2:
		fc.Set = traffic.BWSet2
	case 3:
		fc.Set = traffic.BWSet3
	default:
		return fabric.Config{}, fmt.Errorf("lower: bandwidth set %d not used by the benchmark", cfg.BandwidthSet)
	}
	switch cfg.Traffic.Kind {
	case hetpnoc.UniformRandom:
		fc.Pattern = traffic.Uniform{}
	case hetpnoc.SkewedKind:
		fc.Pattern = traffic.Skewed{Level: cfg.Traffic.SkewLevel}
	default:
		return fabric.Config{}, fmt.Errorf("lower: traffic kind %v not used by the benchmark", cfg.Traffic.Kind)
	}
	return fc, nil
}

func lowerAll(cfgs []hetpnoc.Config) ([]fabric.Config, error) {
	specs := make([]fabric.Config, len(cfgs))
	for i, cfg := range cfgs {
		fc, err := lower(cfg)
		if err != nil {
			return nil, err
		}
		specs[i] = fc
	}
	return specs, nil
}

// errMismatch marks a decomposed call sequence whose result differs
// from the program's own: a failed output check, not a failed run.
var errMismatch = errors.New("output mismatch")

// agrees reports whether a fabric-level result reproduces the public
// one bit for bit in delivered packets, delivered bandwidth and total
// energy.
func agrees(got fabric.Result, want hetpnoc.Result) bool {
	return got.Stats.PacketsDelivered == want.PacketsDelivered &&
		got.Stats.DeliveredGbps == want.DeliveredGbps &&
		got.EnergyTotalPJ == want.EnergyTotalPJ
}

// heapAllocs reads the cumulative heap object count without stopping
// the world, so it can sit between two spans.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// runCost is what one decomposed run observed beside its spans.
type runCost struct {
	buildAllocs   uint64
	measureAllocs uint64
	warmupNS      int64
	measureNS     int64
	delivered     int64
}

// decomposedRun makes, one call at a time, the calls hetpnoc.Run and
// the serving layer make for one config, each inside its own span under
// a hetpnoc.run span. want is hetpnoc.Run's result for cfg: the
// decomposed run must agree with it, and it stands in for the encode
// step (the fabric → public result conversion is not exported).
func decomposedRun(ctx context.Context, tr *tracer, parent, op int, cfg hetpnoc.Config, want hetpnoc.Result, store *cache.Cache) (runCost, error) {
	var cost runCost
	run := tr.begin("hetpnoc.run", parent, op)
	defer tr.end(run)

	if err := tr.timed("hetpnoc.validate", run, op, func() error { return cfg.Normalized().Validate() }); err != nil {
		return cost, err
	}
	var canonical []byte
	if err := tr.timed("hetpnoc.canonical", run, op, func() (err error) {
		canonical, err = cfg.CanonicalJSON()
		return err
	}); err != nil {
		return cost, err
	}
	id := tr.begin("cache.key", run, op)
	key := cache.KeyOf(canonical)
	tr.end(id)
	id = tr.begin("cache.get", run, op)
	_, hit := store.Get(key)
	tr.end(id)
	if hit {
		return cost, fmt.Errorf("decomposed run: fresh config %s already cached", key)
	}

	fc, err := lower(cfg)
	if err != nil {
		return cost, err
	}
	var f *fabric.Fabric
	a0 := heapAllocs()
	if err := tr.timed("fabric.build", run, op, func() (err error) {
		f, err = fabric.New(fc)
		return err
	}); err != nil {
		return cost, err
	}
	cost.buildAllocs = heapAllocs() - a0

	id = tr.begin("fabric.step.warmup", run, op)
	err = f.StepContext(ctx, cfg.WarmupCycles)
	tr.end(id)
	if err != nil {
		return cost, err
	}
	cost.warmupNS = tr.spanNS(id)

	a0 = heapAllocs()
	id = tr.begin("fabric.step.measure", run, op)
	err = f.StepContext(ctx, cfg.Cycles-cfg.WarmupCycles)
	tr.end(id)
	if err != nil {
		return cost, err
	}
	cost.measureNS = tr.spanNS(id)
	cost.measureAllocs = heapAllocs() - a0

	var got fabric.Result
	if err := tr.timed("fabric.finish", run, op, func() (err error) {
		got, err = f.Finish()
		return err
	}); err != nil {
		return cost, err
	}
	if err := tr.timed("hetpnoc.result_encode", run, op, func() error {
		_, err := want.CanonicalJSON()
		return err
	}); err != nil {
		return cost, err
	}
	id = tr.begin("cache.put", run, op)
	store.Put(key, want)
	tr.end(id)

	if !agrees(got, want) {
		return cost, fmt.Errorf("%w: decomposed run of %s/BW%d delivered %d packets, %v, %v; hetpnoc.Run gave %d, %v, %v",
			errMismatch, cfg.Architecture, cfg.BandwidthSet,
			got.Stats.PacketsDelivered, got.Stats.DeliveredGbps, got.EnergyTotalPJ,
			want.PacketsDelivered, want.DeliveredGbps, want.EnergyTotalPJ)
	}
	cost.delivered = got.Stats.PacketsDelivered
	return cost, nil
}
