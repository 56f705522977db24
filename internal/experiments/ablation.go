package experiments

import (
	"context"
	"fmt"

	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// AblationRow is one variant of an ablation study.
type AblationRow struct {
	Study   string `json:"study"`
	Variant string `json:"variant"`

	PeakBandwidthGbps  units.Gbps      `json:"peakBandwidthGbps"`
	EnergyPerMessagePJ units.Picojoule `json:"energyPerMessagePJ"`
	AvgLatencyCycles   float64         `json:"avgLatencyCycles"`
	// FairnessJain is Jain's index over the clusters' delivered bits.
	FairnessJain float64                `json:"fairnessJain"`
	AreaMM2      units.SquareMillimeter `json:"areaMM2,omitempty"`
}

// ablationCase is one simulated variant.
type ablationCase struct {
	study, variant string
	cfg            fabric.Config
	areaMM2        units.SquareMillimeter
}

// runAblation executes the cases as one batch plan and collects one row
// per case, in case order.
func runAblation(ctx context.Context, opts Options, cases []ablationCase) ([]AblationRow, error) {
	opts = opts.withDefaults()
	specs := make([]fabric.Config, len(cases))
	for i, c := range cases {
		cfg := c.cfg
		cfg.Topology = opts.Topology
		cfg.Cycles = opts.Cycles
		cfg.WarmupCycles = opts.WarmupCycles
		cfg.Seed = opts.Seed
		specs[i] = cfg
	}
	out, err := runPlan(ctx, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation %s: %w", cases[0].study, err)
	}
	rows := make([]AblationRow, len(cases))
	for i, c := range cases {
		res := out[i]
		rows[i] = AblationRow{
			Study:              c.study,
			Variant:            c.variant,
			PeakBandwidthGbps:  res.Stats.DeliveredGbps,
			EnergyPerMessagePJ: res.EnergyPerMessagePJ,
			AvgLatencyCycles:   res.Stats.AvgLatencyCycles,
			FairnessJain:       res.Stats.FairnessJain,
			AreaMM2:            c.areaMM2,
		}
	}
	return rows, nil
}

// ReservationPipeliningAblation quantifies the design decision to overlap
// the next packet's reservation with the current packet's streaming
// (DESIGN.md §4): without it, short packets on wide channels pay the
// reservation round-trip between every transfer.
func ReservationPipeliningAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	base := fabric.Config{
		Arch:    fabric.DHetPNoC,
		Set:     traffic.BWSet3, // 8-flit packets: the worst case
		Pattern: traffic.Skewed{Level: 2},
	}
	off := base
	off.DisableReservationPipelining = true
	return runAblation(ctx, opts, []ablationCase{
		{study: "reservation-pipelining", variant: "pipelined", cfg: base},
		{study: "reservation-pipelining", variant: "serialized", cfg: off},
	})
}

// AcquisitionChunkAblation sweeps the per-token-visit acquisition bound:
// 1 converges slowest but most fairly; unlimited lets the first visitor
// drain the pool (the starvation mode DESIGN.md §4 calls out).
func AcquisitionChunkAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	var cases []ablationCase
	for _, chunk := range []int{1, 2, 4, 8, 64} {
		cfg := fabric.Config{
			Arch:               fabric.DHetPNoC,
			Set:                traffic.BWSet3,
			Pattern:            traffic.Skewed{Level: 3},
			MaxAcquirePerVisit: chunk,
		}
		cases = append(cases, ablationCase{
			study:   "acquisition-chunk",
			variant: fmt.Sprintf("chunk-%d", chunk),
			cfg:     cfg,
		})
	}
	return runAblation(ctx, opts, cases)
}

// ReservedMinimumAblation sweeps the per-cluster reserved wavelength count
// (§3.2.1 guarantees at least 1): larger reserves improve worst-case
// fairness but shrink the dynamically shareable pool.
func ReservedMinimumAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	var cases []ablationCase
	for _, reserve := range []int{1, 2, 4} {
		cfg := fabric.Config{
			Arch:               fabric.DHetPNoC,
			Set:                traffic.BWSet1,
			Pattern:            traffic.Skewed{Level: 3},
			ReservedPerCluster: reserve,
		}
		cases = append(cases, ablationCase{
			study:   "reserved-minimum",
			variant: fmt.Sprintf("reserve-%d", reserve),
			cfg:     cfg,
		})
	}
	return runAblation(ctx, opts, cases)
}

// IntraClusterAblation compares the §3.1 all-to-all intra-cluster wiring
// with Firefly's concentrated switch [20].
func IntraClusterAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	var cases []ablationCase
	for _, intra := range []fabric.IntraCluster{fabric.AllToAll, fabric.Concentrated} {
		cfg := fabric.Config{
			Arch:         fabric.DHetPNoC,
			Set:          traffic.BWSet1,
			Pattern:      traffic.Skewed{Level: 2},
			IntraCluster: intra,
		}
		cases = append(cases, ablationCase{
			study:   "intra-cluster",
			variant: intra.String(),
			cfg:     cfg,
		})
	}
	return runAblation(ctx, opts, cases)
}

// WaveguideRestrictionAblation evaluates the thesis's Chapter 4 proposal:
// restricting each photonic router to a few waveguides "would ... reduce
// the number of modulators and de-modulators" at some bandwidth cost. Run
// at bandwidth set 3 (8 waveguides), where the restriction actually
// binds, and annotate each variant with its modulator area.
func WaveguideRestrictionAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	areaCfg := area.DefaultConfig(traffic.BWSet3.TotalWavelengths)
	var cases []ablationCase
	for _, wgs := range []int{0, 2, 4} {
		cfg := fabric.Config{
			Arch:                 fabric.DHetPNoC,
			Set:                  traffic.BWSet3,
			Pattern:              traffic.Skewed{Level: 3},
			WaveguidesPerCluster: wgs,
		}
		variant := "unrestricted"
		mm2 := areaCfg.DynamicAreaMM2()
		if wgs > 0 {
			variant = fmt.Sprintf("%d-waveguides", wgs)
			mm2 = areaCfg.RestrictedDynamicAreaMM2(wgs)
		}
		cases = append(cases, ablationCase{
			study:   "waveguide-restriction",
			variant: variant,
			cfg:     cfg,
			areaMM2: mm2,
		})
	}
	return runAblation(ctx, opts, cases)
}

// AllocationPolicyAblation compares the thesis's greedy §3.2.1 allocation
// rule with the demand-proportional policy (the repository's take on the
// thesis's stated future work) under heavy contention: skewed 3 at
// bandwidth set 3, where eleven clusters each want 64 of 496 dynamic
// wavelengths. Each policy runs both with the default per-visit
// acquisition chunk and with unbounded acquisition: chunking is the
// greedy policy's crutch against first-come capture, while the
// proportional policy's share bound makes it chunk-independent.
func AllocationPolicyAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	var cases []ablationCase
	for _, variant := range []struct {
		name         string
		proportional bool
		chunk        int
	}{
		{"greedy-chunked", false, 0},
		{"greedy-unbounded", false, 512},
		{"proportional-chunked", true, 0},
		{"proportional-unbounded", true, 512},
	} {
		cases = append(cases, ablationCase{
			study:   "allocation-policy",
			variant: variant.name,
			cfg: fabric.Config{
				Arch:               fabric.DHetPNoC,
				Set:                traffic.BWSet3,
				Pattern:            traffic.Skewed{Level: 3},
				ProportionalDBA:    variant.proportional,
				MaxAcquirePerVisit: variant.chunk,
			},
		})
	}
	return runAblation(ctx, opts, cases)
}

// ArchitectureComparison runs all three modeled photonic NoCs — the
// Firefly baseline, d-HetPNoC and the related-work circuit-switched torus
// (§2.1.3) — under the same traffic. Note that the torus's per-link
// full-DWDM provisioning gives it far more photonic hardware than the
// budget-normalized crossbars; it is a protocol comparison, not an
// equal-area one.
func ArchitectureComparison(ctx context.Context, opts Options, set traffic.BandwidthSet, pattern traffic.Pattern) ([]AblationRow, error) {
	var cases []ablationCase
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC, fabric.TorusPNoC} {
		cases = append(cases, ablationCase{
			study:   "architecture",
			variant: arch.String(),
			cfg:     fabric.Config{Arch: arch, Set: set, Pattern: pattern},
		})
	}
	return runAblation(ctx, opts, cases)
}

// BurstinessAblation measures how traffic burstiness (on/off sources at
// the same average rate) degrades both architectures: bursts deepen
// queues, so drops, latency and the congestion-energy term all grow.
func BurstinessAblation(ctx context.Context, opts Options) ([]AblationRow, error) {
	var cases []ablationCase
	for _, factor := range []float64{1, 4, 16} {
		var pattern traffic.Pattern = traffic.Skewed{Level: 2}
		if factor > 1 {
			pattern = traffic.Bursty{Base: pattern, Factor: factor}
		}
		for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
			cases = append(cases, ablationCase{
				study:   "burstiness",
				variant: fmt.Sprintf("%s-x%g", arch, factor),
				cfg:     fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: pattern},
			})
		}
	}
	return runAblation(ctx, opts, cases)
}

// AllAblations runs every ablation study.
func AllAblations(ctx context.Context, opts Options) ([]AblationRow, error) {
	var all []AblationRow
	for _, run := range []func(context.Context, Options) ([]AblationRow, error){
		ReservationPipeliningAblation,
		AcquisitionChunkAblation,
		ReservedMinimumAblation,
		IntraClusterAblation,
		WaveguideRestrictionAblation,
		AllocationPolicyAblation,
		BurstinessAblation,
		func(ctx context.Context, o Options) ([]AblationRow, error) {
			return ArchitectureComparison(ctx, o, traffic.BWSet1, traffic.Skewed{Level: 2})
		},
	} {
		rows, err := run(ctx, opts)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}
