// Package experiments reproduces every table and figure of the thesis's
// evaluation (§3.4). Each experiment is a typed runner that returns the
// same rows or series the paper plots; cmd/sweep prints them.
//
// Experiment index (see DESIGN.md §3 for the full mapping):
//
//	Figure 1-1   — GPU flit-size speedups            (Figure1_1)
//	Figure 3-3   — peak bandwidth matrix             (PeakBandwidth)
//	Figure 3-4   — packet energy matrix              (PeakBandwidth, EPM column)
//	Figure 3-5   — hotspot + real-application cases  (CaseStudies)
//	Figure 3-6   — area vs aggregate bandwidth       (AreaSweep)
//	Figure 3-7   — d-HetPNoC scaling across BW sets  (ScalingSeries)
//	Figure 3-8/9 — wavelengths vs BW / EPM / area    (WavelengthScaling)
//	Figure 3-10  — Firefly scaling across BW sets    (ScalingSeries)
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// Options are shared run parameters. The zero value uses the thesis's
// Table 3-3 settings.
type Options struct {
	// Cycles and WarmupCycles default to 10,000 and 1,000 (Table 3-3).
	Cycles       int
	WarmupCycles int

	// Seed seeds every run; runs differing in configuration get distinct
	// derived streams inside the fabric.
	Seed uint64

	// LoadScales are the offered-load multipliers swept to locate the
	// peak; the default {1.0} saturates the network at the pattern's
	// nominal rates.
	LoadScales []float64

	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	Parallelism int

	// Topology defaults to the 64-core, 16-cluster chip.
	Topology topology.Topology
}

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = fabric.DefaultCycles
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = fabric.DefaultWarmupCycles
	}
	if o.Seed == 0 {
		o.Seed = fabric.DefaultSeed
	}
	if len(o.LoadScales) == 0 {
		o.LoadScales = []float64{fabric.DefaultLoadScale}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Topology.Cores() == 0 {
		o.Topology = topology.Default()
	}
	return o
}

// Point identifies one simulation in a matrix.
type Point struct {
	Set     traffic.BandwidthSet
	Pattern traffic.Pattern
	Arch    fabric.Arch
}

// Row is the outcome of one matrix point after the load sweep: the peak
// delivered bandwidth and the energy per message at the peak.
type Row struct {
	Set     string  `json:"set"`
	Pattern string  `json:"pattern"`
	Arch    string  `json:"arch"`
	AtLoad  float64 `json:"atLoad"`

	PeakBandwidthGbps  units.Gbps      `json:"peakBandwidthGbps"`
	PerCoreGbps        units.Gbps      `json:"perCoreGbps"`
	EnergyPerMessagePJ units.Picojoule `json:"energyPerMessagePJ"`
	OfferedGbps        units.Gbps      `json:"offeredGbps"`

	PacketsDelivered int64   `json:"packetsDelivered"`
	PacketsDropped   int64   `json:"packetsDropped"`
	Retransmissions  int64   `json:"retransmissions"`
	AvgLatencyCycles float64 `json:"avgLatencyCycles"`

	AllocatedWavelengths []int `json:"allocatedWavelengths"`
}

// pointConfig assembles the fabric configuration for one point at one
// load scale.
func pointConfig(opts Options, p Point, scale float64) fabric.Config {
	return fabric.Config{
		Topology:     opts.Topology,
		Set:          p.Set,
		Arch:         p.Arch,
		Pattern:      p.Pattern,
		LoadScale:    scale,
		Cycles:       opts.Cycles,
		WarmupCycles: opts.WarmupCycles,
		Seed:         opts.Seed,
	}
}

// peakRow reports a point's load sweep — results[i] ran at scales[i] —
// as the run that delivered the most bandwidth.
func peakRow(p Point, scales []float64, results []fabric.Result) Row {
	peak := 0
	for i := range scales {
		if results[i].Stats.DeliveredGbps > results[peak].Stats.DeliveredGbps {
			peak = i
		}
	}
	return rowAtPeak(p, scales[peak], results[peak])
}

// rowAtPeak shapes one run's result into the Row reported for its point.
func rowAtPeak(p Point, scale float64, res fabric.Result) Row {
	return Row{
		Set:                  p.Set.Name,
		Pattern:              p.Pattern.Name(),
		Arch:                 p.Arch.String(),
		AtLoad:               scale,
		PeakBandwidthGbps:    res.Stats.DeliveredGbps,
		PerCoreGbps:          res.PerCoreGbps,
		EnergyPerMessagePJ:   res.EnergyPerMessagePJ,
		OfferedGbps:          res.OfferedGbps,
		PacketsDelivered:     res.Stats.PacketsDelivered,
		PacketsDropped:       res.Stats.PacketsDroppedRX,
		Retransmissions:      res.Stats.Retransmissions,
		AvgLatencyCycles:     res.Stats.AvgLatencyCycles,
		AllocatedWavelengths: res.AllocatedWavelengths,
	}
}

// runPlan is how every runner in this package executes simulations: the
// specs become one batch plan bounded by opts.Parallelism, specs sharing
// a build prefix share one fabric, and the results come back in spec
// order. Each result is bit-identical to a solo fabric.New + Run of its
// spec (the batch contract, docs/BATCHING.md). opts must already be
// defaulted.
func runPlan(ctx context.Context, opts Options, specs []fabric.Config) ([]fabric.Result, error) {
	plan, err := batch.NewPlan(specs, batch.Options{Workers: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	return plan.Run(ctx)
}

// RunMatrix executes every point, in parallel up to opts.Parallelism, and
// returns rows in point order. When ctx is done, the in-flight points
// abort at the fabric's next cancellation check and the error returned
// is ctx's.
//
// Every (point, load scale) pair is one plan member, so a load sweep
// builds one fabric per point instead of one per scale.
func RunMatrix(ctx context.Context, opts Options, points []Point) ([]Row, error) {
	opts = opts.withDefaults()
	rows := make([]Row, len(points))
	if len(points) == 0 {
		return rows, nil
	}

	scales := opts.LoadScales
	specs := make([]fabric.Config, 0, len(points)*len(scales))
	for _, p := range points {
		for _, scale := range scales {
			specs = append(specs, pointConfig(opts, p, scale))
		}
	}
	out, err := runPlan(ctx, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for pi, p := range points {
		rows[pi] = peakRow(p, scales, out[pi*len(scales):])
	}
	return rows, nil
}
