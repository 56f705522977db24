package main

import (
	"encoding/json"
	"fmt"

	"hetpnoc"
	"hetpnoc/internal/serve"
)

// Every input is a pure function of the -seed argument and an index, so
// the same seed gives the same configs and request bytes on any commit,
// and a faster commit simply gets further into the same stream.

// Streams keep the seed spaces of the different input kinds apart.
const (
	streamWarmup uint64 = iota + 1
	streamPanel
	streamSweep
	streamSample
	streamHot
	streamMissSlot
	streamMissSeed
	streamHotPick
	streamTrace
)

// mix is splitmix64 over (seed, stream, index).
func mix(seed, stream, index uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1) + 0xbf58476d1ce4e5b9*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// simSeed derives a simulator seed: non-zero (zero selects the default)
// and below 2^53 so it survives any JSON number round trip.
func simSeed(seed, stream, index uint64) uint64 {
	return mix(seed, stream, index)%(1<<53-1) + 1
}

// shape is the part of a run every member of a panel shares.
type shape struct {
	traffic hetpnoc.Traffic
	load    float64
	cycles  int
	warmup  int
}

// The run shape of each workload: the Table 3-3 operating point for the
// run-* workloads, the corpus point for sweep-fork and the miss shape
// for serve-mixed. The traced pass decomposes runs of the workload's own
// shape, so fabric.* and hetpnoc.run_ms.* describe the runs that
// workload actually makes.
var (
	shapeSaturated = shape{traffic: hetpnoc.SkewedTraffic(3), load: 1.0, cycles: 10000, warmup: 1000}
	shapeLightload = shape{traffic: hetpnoc.UniformTraffic(), load: 0.05, cycles: 10000, warmup: 1000}
	shapeSweep     = shape{traffic: hetpnoc.SkewedTraffic(2), load: 1.0, cycles: sweepCycles, warmup: sweepWarmup}
	shapeServe     = shape{traffic: hetpnoc.SkewedTraffic(2), load: 1.0, cycles: serveCycles, warmup: serveWarmup}
)

// panelMember names one of the six runs of a panel.
type panelMember struct {
	name string
	arch hetpnoc.Architecture
	set  int
}

// panelMembers is {d-HetPNoC, Firefly} × bandwidth set {1,2,3}, the
// comparison every figure of the paper's evaluation is built from.
var panelMembers = []panelMember{
	{"dhet-bw1", hetpnoc.DHetPNoC, 1},
	{"dhet-bw2", hetpnoc.DHetPNoC, 2},
	{"dhet-bw3", hetpnoc.DHetPNoC, 3},
	{"firefly-bw1", hetpnoc.Firefly, 1},
	{"firefly-bw2", hetpnoc.Firefly, 2},
	{"firefly-bw3", hetpnoc.Firefly, 3},
}

// panelConfigs returns the six configs of one panel. Both architectures
// share the seed, so the d-HetPNoC/Firefly comparison is paired.
func panelConfigs(sh shape, simulatorSeed uint64) []hetpnoc.Config {
	cfgs := make([]hetpnoc.Config, len(panelMembers))
	for i, m := range panelMembers {
		cfgs[i] = hetpnoc.Config{
			Architecture: m.arch,
			BandwidthSet: m.set,
			Traffic:      sh.traffic,
			LoadScale:    sh.load,
			Cycles:       sh.cycles,
			WarmupCycles: sh.warmup,
			Seed:         simulatorSeed,
		}
	}
	return cfgs
}

// Sweep corpus dimensions: the 256-point shape of the repository's
// BenchmarkBatchSweep256 (2 architectures × 2 bandwidth sets × 2 traffic
// patterns = 8 build prefixes, × 8 seeds × 4 load scales).
const (
	sweepCycles = 600
	sweepWarmup = 150
	sweepSeeds  = 8
	sweepPoints = 256
)

var sweepLoads = []float64{0.5, 1, 1.5, 2}

// sweepConfigs returns the corpus of sweep op opIndex. The eight seeds
// are redrawn per op, so no op repeats an earlier op's points.
func sweepConfigs(seed uint64, stream, opIndex uint64) []hetpnoc.Config {
	cfgs := make([]hetpnoc.Config, 0, sweepPoints)
	for _, arch := range []hetpnoc.Architecture{hetpnoc.DHetPNoC, hetpnoc.Firefly} {
		for _, set := range []int{1, 2} {
			for _, tr := range []hetpnoc.Traffic{hetpnoc.UniformTraffic(), hetpnoc.SkewedTraffic(2)} {
				for k := uint64(0); k < sweepSeeds; k++ {
					s := simSeed(seed, stream, opIndex*sweepSeeds+k)
					for _, load := range sweepLoads {
						cfgs = append(cfgs, hetpnoc.Config{
							Architecture: arch,
							BandwidthSet: set,
							Traffic:      tr,
							LoadScale:    load,
							Cycles:       sweepCycles,
							WarmupCycles: sweepWarmup,
							Seed:         s,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// Serve request dimensions.
const (
	serveCycles  = 1000
	serveWarmup  = 200
	hotSetSize   = 256
	missPerBlock = 100 // one miss in every block of this many requests
)

// serveConfig is the one run shape serve-mixed requests: hits and misses
// differ only in whether the seed has been seen before.
func serveConfig(simulatorSeed uint64) hetpnoc.Config {
	return hetpnoc.Config{
		Architecture: hetpnoc.DHetPNoC,
		BandwidthSet: 1,
		Traffic:      shapeServe.traffic,
		LoadScale:    shapeServe.load,
		Cycles:       serveCycles,
		WarmupCycles: serveWarmup,
		Seed:         simulatorSeed,
	}
}

// requestBody renders cfg as the /v1/run wire form. Only the fields the
// benchmark's configs set are carried.
func requestBody(cfg hetpnoc.Config) ([]byte, error) {
	req := serve.RunRequest{
		BandwidthSet: cfg.BandwidthSet,
		LoadScale:    cfg.LoadScale,
		Cycles:       cfg.Cycles,
		WarmupCycles: cfg.WarmupCycles,
		Seed:         cfg.Seed,
	}
	switch cfg.Architecture {
	case hetpnoc.DHetPNoC:
		req.Architecture = "d-hetpnoc"
	case hetpnoc.Firefly:
		req.Architecture = "firefly"
	default:
		return nil, fmt.Errorf("request body: architecture %v not used by the benchmark", cfg.Architecture)
	}
	switch cfg.Traffic.Kind {
	case hetpnoc.UniformRandom:
		req.Traffic = &serve.TrafficRequest{Kind: "uniform"}
	case hetpnoc.SkewedKind:
		req.Traffic = &serve.TrafficRequest{Kind: "skewed", SkewLevel: cfg.Traffic.SkewLevel}
	default:
		return nil, fmt.Errorf("request body: traffic kind %v not used by the benchmark", cfg.Traffic.Kind)
	}
	return json.Marshal(req)
}

// serveRequest is one entry of the serve-mixed schedule.
type serveRequest struct {
	hot  int    // index into the hot set, or -1 for a miss
	seed uint64 // simulator seed of a miss
}

// scheduleAt returns request g of the schedule. Every block of
// missPerBlock consecutive requests holds exactly one miss at a seeded
// position, so the hit ratio is 99 % over any whole number of blocks
// rather than only in expectation; the other requests draw uniformly
// from the hot set.
func scheduleAt(seed uint64, g uint64) serveRequest {
	block := g / missPerBlock
	if g%missPerBlock == mix(seed, streamMissSlot, block)%missPerBlock {
		return serveRequest{hot: -1, seed: simSeed(seed, streamMissSeed, g)}
	}
	return serveRequest{hot: int(mix(seed, streamHotPick, g) % hotSetSize)}
}
