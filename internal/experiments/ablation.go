package experiments

import (
	"fmt"
	"slices"

	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// ablationCase is one simulated variant of an ablation study.
type ablationCase struct {
	study, variant string
	cfg            fabric.Config
	areaMM2        units.SquareMillimeter
}

// ablationCases lists every study's variants, study by study.
func ablationCases() []ablationCase {
	var cases []ablationCase
	add := func(study, variant string, cfg fabric.Config) {
		cases = append(cases, ablationCase{study: study, variant: variant, cfg: cfg})
	}
	dhet := func(set traffic.BandwidthSet, level int) fabric.Config {
		return fabric.Config{Arch: fabric.DHetPNoC, Set: set, Pattern: traffic.Skewed{Level: level}}
	}

	// Overlapping the next packet's reservation with the current
	// packet's streaming (DESIGN.md §4): without it, short packets on
	// wide channels pay the reservation round-trip between every
	// transfer. BW set 3's 8-flit packets are the worst case.
	serialized := dhet(traffic.BWSet3, 2)
	serialized.DisableReservationPipelining = true
	add("reservation-pipelining", "pipelined", dhet(traffic.BWSet3, 2))
	add("reservation-pipelining", "serialized", serialized)

	// The per-token-visit acquisition bound: 1 converges slowest but most
	// fairly; unlimited lets the first visitor drain the pool (the
	// starvation mode DESIGN.md §4 calls out).
	for _, chunk := range []int{1, 2, 4, 8, 64} {
		cfg := dhet(traffic.BWSet3, 3)
		cfg.MaxAcquirePerVisit = chunk
		add("acquisition-chunk", fmt.Sprintf("chunk-%d", chunk), cfg)
	}

	// The per-cluster reserved wavelength count (§3.2.1 guarantees at
	// least 1): larger reserves improve worst-case fairness but shrink
	// the dynamically shareable pool.
	for _, reserve := range []int{1, 2, 4} {
		cfg := dhet(traffic.BWSet1, 3)
		cfg.ReservedPerCluster = reserve
		add("reserved-minimum", fmt.Sprintf("reserve-%d", reserve), cfg)
	}

	// The §3.1 all-to-all intra-cluster wiring against Firefly's
	// concentrated switch [20].
	for _, intra := range []fabric.IntraCluster{fabric.AllToAll, fabric.Concentrated} {
		cfg := dhet(traffic.BWSet1, 2)
		cfg.IntraCluster = intra
		add("intra-cluster", intra.String(), cfg)
	}

	// The thesis's Chapter 4 proposal: restricting each photonic router
	// to a few waveguides "would ... reduce the number of modulators and
	// de-modulators" at some bandwidth cost. BW set 3 (8 waveguides) is
	// where the restriction binds; each variant carries its modulator
	// area.
	areaCfg := area.DefaultConfig(traffic.BWSet3.TotalWavelengths)
	for _, wgs := range []int{0, 2, 4} {
		cfg := dhet(traffic.BWSet3, 3)
		cfg.WaveguidesPerCluster = wgs
		c := ablationCase{study: "waveguide-restriction", variant: "unrestricted", cfg: cfg, areaMM2: areaCfg.DynamicAreaMM2()}
		if wgs > 0 {
			c.variant = fmt.Sprintf("%d-waveguides", wgs)
			c.areaMM2 = areaCfg.RestrictedDynamicAreaMM2(wgs)
		}
		cases = append(cases, c)
	}

	// The thesis's greedy §3.2.1 allocation rule against the
	// demand-proportional policy (the repository's take on the thesis's
	// stated future work) under heavy contention: skewed 3 at BW set 3,
	// where eleven clusters each want 64 of 496 dynamic wavelengths. Each
	// policy runs with the default per-visit acquisition chunk and with
	// unbounded acquisition: chunking is the greedy policy's crutch
	// against first-come capture, while the proportional policy's share
	// bound makes it chunk-independent.
	for _, v := range []struct {
		name         string
		proportional bool
		chunk        int
	}{
		{"greedy-chunked", false, 0},
		{"greedy-unbounded", false, 512},
		{"proportional-chunked", true, 0},
		{"proportional-unbounded", true, 512},
	} {
		cfg := dhet(traffic.BWSet3, 3)
		cfg.ProportionalDBA, cfg.MaxAcquirePerVisit = v.proportional, v.chunk
		add("allocation-policy", v.name, cfg)
	}

	// Traffic burstiness (on/off sources at the same average rate) on
	// both architectures: bursts deepen queues, so drops, latency and the
	// congestion-energy term all grow.
	for _, factor := range []float64{1, 4, 16} {
		var pattern traffic.Pattern = traffic.Skewed{Level: 2}
		if factor > 1 {
			pattern = traffic.Bursty{Base: pattern, Factor: factor}
		}
		for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
			add("burstiness", fmt.Sprintf("%s-x%g", arch, factor),
				fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: pattern})
		}
	}

	// All three modeled photonic NoCs — the Firefly baseline, d-HetPNoC
	// and the related-work circuit-switched torus (§2.1.3) — under the
	// same traffic. The torus's per-link full-DWDM provisioning gives it
	// far more photonic hardware than the budget-normalized crossbars: a
	// protocol comparison, not an equal-area one.
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC, fabric.TorusPNoC} {
		add("architecture", arch.String(),
			fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}})
	}
	return cases
}

// Ablations lists every ablation study's variants (DESIGN.md §4,
// EXPERIMENTS.md), study by study; LabelAblations names their rows.
func Ablations() []fabric.Config {
	cases := ablationCases()
	cfgs := make([]fabric.Config, len(cases))
	for i, c := range cases {
		cfgs[i] = c.cfg
	}
	return cfgs
}

// LabelAblations returns rows, the rows of Ablations' configs in order,
// each labeled with its study, its variant and the variant's analytic
// area where it has one.
func LabelAblations(rows []Row) []Row {
	out := slices.Clone(rows)
	for i, c := range ablationCases() {
		out[i].Study, out[i].Variant, out[i].AreaMM2 = c.study, c.variant, c.areaMM2
	}
	return out
}
