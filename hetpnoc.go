// Package hetpnoc is a cycle-accurate simulator and analytic model suite
// for heterogeneous photonic networks-on-chip with dynamic bandwidth
// allocation, reproducing "Heterogeneous Photonic Network-on-Chip with
// Dynamic Bandwidth Allocation" (Shah, RIT / IEEE SOCC 2014).
//
// Two architectures are modeled end to end on a 64-core, 16-cluster chip
// multiprocessor:
//
//   - Firefly: the baseline crossbar photonic NoC with reservation-assisted
//     single-write-multiple-read channels and uniform static wavelength
//     allocation.
//   - d-HetPNoC: the proposed architecture, which reallocates DWDM
//     wavelengths between cluster write channels through a token-passing
//     protocol driven by per-application demand tables.
//
// The package front door is Run:
//
//	res, err := hetpnoc.Run(hetpnoc.Config{
//	    Architecture: hetpnoc.DHetPNoC,
//	    BandwidthSet: 1,
//	    Traffic:      hetpnoc.SkewedTraffic(3),
//	})
//
// Lower-level building blocks (the router microarchitecture, the DBA
// token protocol, the photonic crossbar engines, the analytic area model)
// live under internal/ and are exercised through this API, its examples
// (example_test.go, checked by go test) and the benchmark harness.
package hetpnoc

import (
	"context"
	"fmt"
	"math"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// Architecture selects which photonic NoC to simulate.
type Architecture int

// Supported architectures.
const (
	// Firefly is the crossbar baseline with static uniform wavelength
	// allocation.
	Firefly Architecture = iota + 1
	// DHetPNoC is the dynamic heterogeneous photonic NoC with
	// token-passing bandwidth allocation.
	DHetPNoC
	// TorusPNoC is the related-work circuit-switched photonic 2D folded
	// torus (§2.1.3 of the thesis, Shacham et al. [15]): PSE-based
	// blocking routers with an electronic path-setup network. Note that
	// its per-link full-DWDM provisioning gives it far more aggregate
	// photonic hardware than the budget-normalized crossbar
	// architectures — it is a protocol baseline, not an equal-area one.
	TorusPNoC
)

// String returns the architecture name.
func (a Architecture) String() string {
	switch a {
	case Firefly:
		return "firefly"
	case DHetPNoC:
		return "d-hetpnoc"
	case TorusPNoC:
		return "torus-pnoc"
	default:
		return "unknown"
	}
}

// TrafficKind enumerates the built-in workloads of the thesis evaluation.
type TrafficKind int

// Workload kinds.
const (
	// UniformRandom: every core offers the same rate to uniformly random
	// foreign destinations.
	UniformRandom TrafficKind = iota + 1
	// SkewedKind: the Table 3-1 skewed patterns (level 1-3).
	SkewedKind
	// SkewedHotspotKind: §3.4.2 synthetic case studies — a hotspot
	// cluster plus a skewed remainder.
	SkewedHotspotKind
	// RealApplication: the §3.4.2 GPU/memory scenario (MUM, BFS, CP,
	// RAY, LPS plus four memory clusters).
	RealApplication
	// PermutationKind: classic synthetic permutations (transpose,
	// bit-complement, bit-reverse, shuffle, neighbor).
	PermutationKind
	// CustomKind: a user-supplied per-core workload.
	CustomKind
)

// Traffic describes the workload offered to the network.
type Traffic struct {
	Kind TrafficKind

	// SkewLevel selects the Table 3-1 row (1-3) for SkewedKind and the
	// base pattern for SkewedHotspotKind.
	SkewLevel int

	// HotspotFraction is the share of traffic aimed at the hotspot
	// cluster for SkewedHotspotKind (e.g. 0.1 or 0.2).
	HotspotFraction float64

	// Permutation names the synthetic pattern for PermutationKind:
	// "transpose", "bit-complement", "bit-reverse", "shuffle" or
	// "neighbor".
	Permutation string

	// Burstiness, when above 1, turns every core into an on/off Markov
	// source: the peak rate is Burstiness x the nominal rate and the
	// long-run average is preserved. Applies to any built-in kind.
	Burstiness float64

	// Custom supplies per-core workloads for CustomKind; it must have
	// one entry per core.
	Custom []CoreSpec
}

// UniformTraffic returns the uniform-random workload.
func UniformTraffic() Traffic { return Traffic{Kind: UniformRandom} }

// SkewedTraffic returns the Table 3-1 skewed workload at level 1-3.
func SkewedTraffic(level int) Traffic { return Traffic{Kind: SkewedKind, SkewLevel: level} }

// HotspotTraffic returns a §3.4.2 skewed-hotspot workload.
func HotspotTraffic(fraction float64, baseLevel int) Traffic {
	return Traffic{Kind: SkewedHotspotKind, HotspotFraction: fraction, SkewLevel: baseLevel}
}

// RealAppTraffic returns the GPU/memory real-application workload.
func RealAppTraffic() Traffic { return Traffic{Kind: RealApplication} }

// PermutationTraffic returns a classic synthetic permutation workload:
// "transpose", "bit-complement", "bit-reverse", "shuffle" or "neighbor".
func PermutationTraffic(name string) Traffic {
	return Traffic{Kind: PermutationKind, Permutation: name}
}

// CustomTraffic returns a workload built from per-core specifications.
func CustomTraffic(cores []CoreSpec) Traffic { return Traffic{Kind: CustomKind, Custom: cores} }

// CoreSpec describes one core's workload for CustomTraffic.
type CoreSpec struct {
	// RateGbps is the core's offered injection rate.
	RateGbps float64
	// DemandGbps is the bandwidth class of the core's application,
	// driving the d-HetPNoC demand tables. Zero defaults to RateGbps
	// times the cluster size.
	DemandGbps float64
	// Dests lists the destination cores, sampled uniformly. Destinations
	// in the source's own cluster travel the intra-cluster electrical
	// network; the source core itself is not a valid destination. Empty
	// means every foreign core.
	Dests []int
}

// Config parameterizes one simulation. The zero value of every optional
// field selects the thesis's Table 3-3 setting.
type Config struct {
	// Architecture defaults to DHetPNoC.
	Architecture Architecture

	// BandwidthSet selects the photonic provisioning point: 1 (64
	// wavelengths), 2 (256) or 3 (512). Defaults to 1.
	BandwidthSet int

	// Traffic defaults to UniformTraffic().
	Traffic Traffic

	// LoadScale multiplies every offered rate (default 1.0).
	LoadScale float64

	// Cycles and WarmupCycles default to 10,000 and 1,000.
	Cycles       int
	WarmupCycles int

	// Seed makes runs reproducible (default 1).
	Seed uint64

	// Concentrated switches the intra-cluster electrical network from
	// the all-to-all wiring of §3.1 to Firefly-style concentration.
	Concentrated bool

	// ProportionalDBA switches d-HetPNoC's allocation policy from the
	// thesis's greedy §3.2.1 rule to the demand-proportional extension
	// (the thesis's stated future work): under contention every cluster
	// receives its demand-weighted share of the dynamic pool.
	ProportionalDBA bool

	// EventCapacity, when positive, enables the protocol event log;
	// Result.Events then carries the most recent events (reservations,
	// drops, allocation changes, remaps) formatted one per line.
	EventCapacity int

	// Remaps change the workload mid-run. They fire in cycle order, ties
	// in the order listed.
	Remaps []TrafficRemap `json:",omitempty"`

	// ProbeEvery, when positive, samples the run every ProbeEvery cycles;
	// Result.Probe then carries the rows.
	ProbeEvery int64 `json:",omitempty"`
}

// TrafficRemap changes the workload mid-run: at cycle AtCycle the task
// mapping switches to Traffic and every core re-reports its demand table,
// triggering DBA reconfiguration on the following token rotations (§3.2).
// AtCycle must lie inside the run, 0 <= AtCycle < Cycles; anything else is
// a configuration error.
type TrafficRemap struct {
	AtCycle int64
	Traffic Traffic
}

// Run simulates the configured network for the configured cycles and
// returns its measured results.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run honoring cancellation: the cycle loop polls ctx
// every fabric.CancelCheckInterval cycles and aborts with ctx.Err() when
// it fires, so a canceled simulation releases its worker within ≤ 1,024
// simulated cycles — ≈ 6 ms saturated, well under 1 ms at light load.
// The simulation itself is unaffected by the polling — a run that
// completes is bit-identical to Run's.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	return first(run(ctx, []Config{cfg}))
}

// run is the one execution path behind Run, RunContext and RunBatch:
// lower every config, plan them — a solo run is a one-member plan, which
// forks a kept build of its prefix or builds and keeps one — run the
// plan and lift the results.
func run(ctx context.Context, cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return []Result{}, nil
	}
	specs := make([]fabric.Config, len(cfgs))
	for i, c := range cfgs {
		var err error
		if specs[i], err = lower(c); err != nil {
			return nil, err
		}
	}
	plan, err := batch.NewPlan(specs, batch.Options{})
	if err != nil {
		return nil, err
	}
	out, err := plan.Run(ctx)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(out))
	for i, r := range out {
		results[i] = fromFabricResult(r)
	}
	return results, nil
}

// first returns the only result of a one-config run.
func first(results []Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// lower maps the public configuration onto the internal fabric
// configuration. Unset run parameters stay zero; the fabric's
// WithDefaults fills them.
func lower(cfg Config) (fabric.Config, error) {
	arch := fabric.DHetPNoC
	switch cfg.Architecture {
	case 0, DHetPNoC:
	case Firefly:
		arch = fabric.Firefly
	case TorusPNoC:
		arch = fabric.TorusPNoC
	default:
		return fabric.Config{}, fmt.Errorf("hetpnoc: unknown architecture %d", cfg.Architecture)
	}

	var set traffic.BandwidthSet
	switch cfg.BandwidthSet {
	case 0, 1:
		set = traffic.BWSet1
	case 2:
		set = traffic.BWSet2
	case 3:
		set = traffic.BWSet3
	default:
		return fabric.Config{}, fmt.Errorf("hetpnoc: bandwidth set must be 1-3, got %d", cfg.BandwidthSet)
	}

	pattern, err := cfg.Traffic.toPattern()
	if err != nil {
		return fabric.Config{}, err
	}

	intra := fabric.AllToAll
	if cfg.Concentrated {
		intra = fabric.Concentrated
	}
	fc := fabric.Config{
		Arch:            arch,
		Set:             set,
		Pattern:         pattern,
		LoadScale:       cfg.LoadScale,
		Cycles:          cfg.Cycles,
		WarmupCycles:    cfg.WarmupCycles,
		Seed:            cfg.Seed,
		IntraCluster:    intra,
		EventCapacity:   cfg.EventCapacity,
		ProbeEvery:      cfg.ProbeEvery,
		ProportionalDBA: cfg.ProportionalDBA,
	}
	for _, r := range cfg.Remaps {
		pattern, err := r.Traffic.toPattern()
		if err != nil {
			return fabric.Config{}, err
		}
		fc.Remaps = append(fc.Remaps, fabric.Remap{At: sim.Cycle(r.AtCycle), Pattern: pattern})
	}
	return fc, nil
}

// toPattern lowers the public traffic description. It checks only the
// fields the traffic's kind reads, the ones Normalized keeps.
func (t Traffic) toPattern() (traffic.Pattern, error) {
	if !(t.Burstiness >= 0) || math.IsInf(t.Burstiness, 1) {
		return nil, fmt.Errorf("hetpnoc: burstiness %g must be finite and non-negative", t.Burstiness)
	}
	base, err := t.basePattern()
	if err != nil {
		return nil, err
	}
	if t.Burstiness > 1 {
		return traffic.Bursty{Base: base, Factor: t.Burstiness}, nil
	}
	return base, nil
}

func (t Traffic) basePattern() (traffic.Pattern, error) {
	switch t.Kind {
	case 0, UniformRandom:
		return traffic.Uniform{}, nil
	case SkewedKind:
		if t.SkewLevel < 1 || t.SkewLevel > 3 {
			return nil, fmt.Errorf("hetpnoc: skew level must be 1-3, got %d", t.SkewLevel)
		}
		return traffic.Skewed{Level: t.SkewLevel}, nil
	case SkewedHotspotKind:
		if t.SkewLevel < 1 || t.SkewLevel > 3 {
			return nil, fmt.Errorf("hetpnoc: hotspot base skew level must be 1-3, got %d", t.SkewLevel)
		}
		if !(t.HotspotFraction > 0 && t.HotspotFraction < 1) {
			return nil, fmt.Errorf("hetpnoc: hotspot fraction must be in (0,1), got %g", t.HotspotFraction)
		}
		return traffic.SkewedHotspot{HotFraction: t.HotspotFraction, BaseLevel: t.SkewLevel}, nil
	case RealApplication:
		return traffic.RealApp{}, nil
	case PermutationKind:
		kinds := map[string]traffic.PermutationKind{
			"transpose":      traffic.Transpose,
			"bit-complement": traffic.BitComplement,
			"bit-reverse":    traffic.BitReverse,
			"shuffle":        traffic.Shuffle,
			"neighbor":       traffic.Neighbor,
		}
		kind, ok := kinds[t.Permutation]
		if !ok {
			return nil, fmt.Errorf("hetpnoc: unknown permutation %q", t.Permutation)
		}
		return traffic.Permutation{Kind: kind}, nil
	case CustomKind:
		return customPattern(t.Custom)
	default:
		return nil, fmt.Errorf("hetpnoc: unknown traffic kind %d", t.Kind)
	}
}

// customPattern validates CoreSpecs and converts them to the internal
// custom workload, which is plain data: two equal specs lower to equal
// patterns, so configs differing only in seed or load share a build.
func customPattern(specs []CoreSpec) (traffic.Pattern, error) {
	topo := topology.Default()
	if len(specs) != topo.Cores() {
		return nil, fmt.Errorf("hetpnoc: custom traffic needs %d core specs, got %d", topo.Cores(), len(specs))
	}
	cores := make([]traffic.CustomCore, len(specs))
	for c, spec := range specs {
		if !(spec.RateGbps >= 0 && spec.DemandGbps >= 0) || math.IsInf(spec.RateGbps, 1) || math.IsInf(spec.DemandGbps, 1) {
			return nil, fmt.Errorf("hetpnoc: core %d: rate %g and demand %g must be finite and non-negative", c, spec.RateGbps, spec.DemandGbps)
		}
		core := traffic.CustomCore{RateGbps: spec.RateGbps, DemandGbps: spec.DemandGbps}
		if core.DemandGbps == 0 {
			core.DemandGbps = spec.RateGbps * float64(topo.ClusterSize())
		}
		if spec.RateGbps > 0 {
			for _, d := range spec.Dests {
				dst := topology.CoreID(d)
				if !topo.ValidCore(dst) {
					return nil, fmt.Errorf("hetpnoc: core %d: destination %d outside chip", c, d)
				}
				if dst == topology.CoreID(c) {
					return nil, fmt.Errorf("hetpnoc: core %d cannot send to itself", c)
				}
				core.Dests = append(core.Dests, dst)
			}
		}
		cores[c] = core
	}
	return traffic.Custom{Cores: cores}, nil
}
