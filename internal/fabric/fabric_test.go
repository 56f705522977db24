package fabric

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

func runConfig(t *testing.T, cfg Config) Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Cycles != 10000 || cfg.WarmupCycles != 1000 {
		t.Errorf("default run length %d/%d, Table 3-3 says 10000/1000", cfg.Cycles, cfg.WarmupCycles)
	}
	if cfg.VCsPerPort != 16 || bufferDepthFlits != 64 {
		t.Errorf("default router memory %d VCs x %d flits, Table 3-3 says 16x64", cfg.VCsPerPort, bufferDepthFlits)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{}.WithDefaults()

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad arch", func(c *Config) { c.Arch = 99 }},
		{"nil pattern", func(c *Config) { c.Pattern = nil }},
		{"negative load", func(c *Config) { c.LoadScale = -1 }},
		{"warmup >= cycles", func(c *Config) { c.WarmupCycles = c.Cycles }},
		{"bad intra", func(c *Config) { c.IntraCluster = 99 }},
		{"remap without pattern", func(c *Config) { c.Remaps = []Remap{{At: 100}} }},
		{"remap before the run", func(c *Config) { c.Remaps = []Remap{{At: -1, Pattern: traffic.Uniform{}}} }},
		{"remap past the run", func(c *Config) { c.Remaps = []Remap{{At: sim.Cycle(c.Cycles), Pattern: traffic.Uniform{}}} }},
		{"probe one row over its bytes", func(c *Config) {
			c.ProbeEvery, c.Cycles = 1, int(maxProbeBytes/probeRowBytes(chip.Clusters()))+1
		}},
		// Custom rates are data, so Validate refuses what a source could
		// not hold as credit: below one unit, or past 2^30 bits a cycle.
		{"custom rate rounding to no credit", func(c *Config) { c.Pattern = traffic.Custom{Cores: []traffic.CustomCore{{RateGbps: 1e-12}}} }},
		{"remap to a bursty custom rate past the credit range", func(c *Config) {
			c.Remaps = []Remap{{At: 100, Pattern: traffic.Bursty{Base: traffic.Custom{Cores: []traffic.CustomCore{{RateGbps: 1e9}}}, Factor: 4}}}
		}},
		// A built-in pattern's rates follow from the set, so Validate
		// refuses a load scale that puts its heaviest or its lightest
		// source outside the credit range, as New would.
		{"uniform at 5e9 bits a cycle", func(c *Config) { c.Pattern, c.LoadScale = traffic.Uniform{}, 1e9 }},
		{"uniform rounding to no credit", func(c *Config) { c.Pattern, c.LoadScale = traffic.Uniform{}, 1e-12 }},
		{"skewed lightest class rounding to no credit", func(c *Config) { c.Pattern, c.LoadScale = traffic.Skewed{Level: 3}, 2e-11 }},
		{"bursty peak past the credit range", func(c *Config) {
			c.Pattern, c.LoadScale = traffic.Bursty{Base: traffic.Uniform{}, Factor: 1e6}, 1e7
		}},
		{"remap to a hotspot past the credit range", func(c *Config) {
			c.Pattern, c.LoadScale = traffic.Uniform{}, 2e8
			c.Remaps = []Remap{{At: 100, Pattern: traffic.SkewedHotspot{HotFraction: 0.2, BaseLevel: 3}}}
		}},
	}
	for _, tt := range tests {
		cfg := base
		tt.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s passed validation", tt.name)
		}
	}
	// The largest probe Validate takes is no larger than the 2^20 rows
	// of 80 B the probe's first three columns allowed.
	edge := base
	edge.ProbeEvery, edge.Cycles = 1, int(maxProbeBytes/probeRowBytes(chip.Clusters()))
	if err := edge.Validate(); err != nil || int64(edge.Cycles)*probeRowBytes(16) > (1<<20)*80 {
		t.Errorf("a probe of %d rows of %d B: %v; want it taken, and within 80 MiB", edge.Cycles, probeRowBytes(16), err)
	}
	// A batch fork refuses the load scales Validate refuses, and takes
	// the one the remap's heavier pattern still holds.
	cfg := base
	cfg.Pattern = traffic.Uniform{}
	cfg.Remaps = []Remap{{At: 100, Pattern: traffic.Skewed{Level: 3}}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1e9, 2e8, 1e-12} {
		if err := f.SetLoadScale(scale); err == nil {
			t.Errorf("SetLoadScale(%g) accepted a load Validate refuses", scale)
		}
	}
	if err := f.SetLoadScale(1e8); err != nil {
		t.Errorf("SetLoadScale(1e8): %v", err)
	}
}

// TestDeterminism: different seeds give different results. (That
// identical seeds give bit-identical ones, however the run is driven, is
// the root TestPathEquivalence's.)
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Arch:    DHetPNoC,
		Pattern: traffic.Skewed{Level: 2},
		Cycles:  3000, WarmupCycles: 500, Seed: 77,
	}
	a := runConfig(t, cfg)
	cfg.Seed = 78
	c := runConfig(t, cfg)
	if a.Stats.BitsDelivered == c.Stats.BitsDelivered && a.EnergyTotalPJ == c.EnergyTotalPJ {
		t.Fatal("different seeds produced identical results")
	}
}

// TestUniformEquivalence: under uniform-random traffic the two
// architectures configure identically and deliver identical bandwidth —
// the thesis's §3.4.1.1 equality.
func TestUniformEquivalence(t *testing.T) {
	mk := func(arch Arch) Result {
		return runConfig(t, Config{
			Arch: arch, Pattern: traffic.Uniform{},
			Cycles: 3000, WarmupCycles: 500, Seed: 5,
		})
	}
	ff := mk(Firefly)
	dh := mk(DHetPNoC)
	if ff.Stats.BitsDelivered != dh.Stats.BitsDelivered {
		t.Fatalf("uniform traffic: Firefly delivered %d bits, d-HetPNoC %d",
			ff.Stats.BitsDelivered, dh.Stats.BitsDelivered)
	}
	// Both allocate 4 wavelengths per cluster (Table 3-3, BW set 1).
	for cl, n := range dh.AllocatedWavelengths {
		if n != 4 {
			t.Fatalf("d-HetPNoC cluster %d holds %d wavelengths under uniform traffic, want 4", cl, n)
		}
		if ff.AllocatedWavelengths[cl] != 4 {
			t.Fatalf("Firefly cluster %d holds %d wavelengths, want 4", cl, ff.AllocatedWavelengths[cl])
		}
	}
}

// TestSkewedAdvantage is the headline result (Figures 3-3/3-4): under
// skewed traffic d-HetPNoC delivers more bandwidth at lower energy per
// message than Firefly, and its allocation is demand-shaped.
func TestSkewedAdvantage(t *testing.T) {
	for _, level := range []int{1, 2, 3} {
		mk := func(arch Arch) Result {
			return runConfig(t, Config{
				Arch: arch, Pattern: traffic.Skewed{Level: level},
				Cycles: 4000, WarmupCycles: 800, Seed: 5,
			})
		}
		ff := mk(Firefly)
		dh := mk(DHetPNoC)
		if dh.Stats.DeliveredGbps <= ff.Stats.DeliveredGbps {
			t.Errorf("skewed%d: d-HetPNoC %.1f Gb/s not above Firefly %.1f",
				level, dh.Stats.DeliveredGbps, ff.Stats.DeliveredGbps)
		}
		if dh.EnergyPerMessagePJ >= ff.EnergyPerMessagePJ {
			t.Errorf("skewed%d: d-HetPNoC EPM %.1f not below Firefly %.1f",
				level, dh.EnergyPerMessagePJ, ff.EnergyPerMessagePJ)
		}
		// The allocation must be heterogeneous: some cluster above the
		// uniform share, some at the reserved minimum.
		minA, maxA := 64, 0
		for _, n := range dh.AllocatedWavelengths {
			if n < minA {
				minA = n
			}
			if n > maxA {
				maxA = n
			}
		}
		if maxA <= 4 || minA >= 4 {
			t.Errorf("skewed%d: allocation %v not demand-shaped", level, dh.AllocatedWavelengths)
		}
	}
}

// TestFireflyIgnoresDBAKnobs: the DBA parameters configure d-HetPNoC's
// token allocator only, so a Firefly run returns the same result whatever
// they are set to. The knobs marked live move the d-HetPNoC run, so the
// Firefly comparison is not vacuous.
func TestFireflyIgnoresDBAKnobs(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*Config)
		live bool // moves the d-HetPNoC run here
	}{
		{"proportional", func(c *Config) { c.ProportionalDBA = true }, true},
		{"reserved-3", func(c *Config) { c.ReservedPerCluster = 3 }, true},
		// Leaves this d-HetPNoC run as it is (BW1's default bound is 1).
		{"acquire-4", func(c *Config) { c.MaxAcquirePerVisit = 4 }, false},
		// BW1 has one data waveguide, so d-HetPNoC refuses this one.
		{"waveguides-2", func(c *Config) { c.WaveguidesPerCluster = 2 }, false},
	}
	mk := func(arch Arch, set func(*Config)) Result {
		cfg := Config{
			Arch: arch, Pattern: traffic.Skewed{Level: 3},
			Cycles: 3000, WarmupCycles: 500, Seed: 5,
		}
		if set != nil {
			set(&cfg)
		}
		return runConfig(t, cfg)
	}
	ff, dh := mk(Firefly, nil), mk(DHetPNoC, nil)
	for _, k := range knobs {
		if got := mk(Firefly, k.set); !reflect.DeepEqual(got, ff) {
			t.Errorf("%s: Firefly result moved: %d -> %d packets delivered, %.1f -> %.1f pJ/message",
				k.name, ff.Stats.PacketsDelivered, got.Stats.PacketsDelivered,
				ff.EnergyPerMessagePJ, got.EnergyPerMessagePJ)
		}
		if k.live && reflect.DeepEqual(mk(DHetPNoC, k.set), dh) {
			t.Errorf("%s: the d-HetPNoC result did not move, so the knob is not live", k.name)
		}
	}
}

// TestValidateAgreesWithNew: Validate accepts a config exactly when New
// builds it, over the DBA knobs at every bandwidth set, so a plan or a
// request refuses a d-HetPNoC allocator that cannot be built before
// anything runs. Firefly ignores the knobs and builds at every value.
func TestValidateAgreesWithNew(t *testing.T) {
	for _, arch := range []Arch{DHetPNoC, Firefly} {
		for _, set := range traffic.BandwidthSets() {
			for _, waveguides := range []int{-1, 0, 2, 9} {
				for _, reserved := range []int{-1, 1, 5, 32} {
					for _, acquire := range []int{-1, 0} {
						cfg := Config{
							Arch: arch, Set: set, Pattern: traffic.Uniform{},
							WaveguidesPerCluster: waveguides, ReservedPerCluster: reserved, MaxAcquirePerVisit: acquire,
						}.WithDefaults()
						verr := cfg.Validate()
						_, nerr := New(cfg)
						if (verr == nil) != (nerr == nil) || arch == Firefly && nerr != nil {
							t.Errorf("%s at %s, %d waveguides, %d reserved, acquire %d: Validate says %v, New %v",
								arch, set.Name, waveguides, reserved, acquire, verr, nerr)
						}
					}
				}
			}
		}
	}
}

// TestLowLoadDeliversEverything: with light offered load nothing is
// rejected or dropped, and almost everything in flight drains.
func TestLowLoadDeliversEverything(t *testing.T) {
	res := runConfig(t, Config{
		Arch: DHetPNoC, Pattern: traffic.Uniform{}, LoadScale: 0.3,
		Cycles: 12000, WarmupCycles: 1000, Seed: 3,
	})
	if res.Stats.PacketsRejected != 0 {
		t.Fatalf("%d rejections at 30%% load", res.Stats.PacketsRejected)
	}
	if res.Stats.PacketsDroppedRX != 0 {
		t.Fatalf("%d drops at 30%% load", res.Stats.PacketsDroppedRX)
	}
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	ratio := float64(res.Stats.PacketsDelivered) / float64(res.Stats.PacketsInjected)
	if ratio < 0.95 {
		t.Fatalf("delivered/injected = %.3f at light load", ratio)
	}
	// Delivered rate tracks offered rate (a few packets remain in flight
	// at the cut-off, so allow per-packet granularity slack).
	if math.Abs(float64(res.Stats.DeliveredGbps-res.OfferedGbps))/float64(res.OfferedGbps) > 0.07 {
		t.Fatalf("delivered %.1f vs offered %.1f at light load",
			res.Stats.DeliveredGbps, res.OfferedGbps)
	}
}

// TestIntraClusterTraffic: destinations inside the source cluster travel
// the electrical network only — the photonic channels stay idle.
func TestIntraClusterTraffic(t *testing.T) {
	cores := make([]traffic.CustomCore, chip.Cores())
	for c := range cores {
		src := topology.CoreID(c)
		cores[c] = traffic.CustomCore{RateGbps: 10, DemandGbps: 40}
		for _, peer := range chip.CoresOf(chip.ClusterOf(src)) {
			if peer != src {
				cores[c].Dests = append(cores[c].Dests, peer)
			}
		}
	}
	res := runConfig(t, Config{
		Arch:    DHetPNoC,
		Pattern: traffic.Custom{Cores: cores},
		Cycles:  3000, WarmupCycles: 500, Seed: 9,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("no intra-cluster packets delivered")
	}
	for cl, busy := range res.ChannelBusyFraction {
		if busy != 0 {
			t.Fatalf("photonic channel %d busy %.3f under intra-cluster-only traffic", cl, busy)
		}
	}
}

// TestDropAndRetransmitUnderReceiverPressure: with very few receive VCs
// and a strong hotspot, receiver-side drops occur and retransmissions
// recover messages (§1.4).
func TestDropAndRetransmitUnderReceiverPressure(t *testing.T) {
	res := runConfig(t, Config{
		Arch:       DHetPNoC,
		Pattern:    traffic.SkewedHotspot{Index: 4, HotFraction: 0.5, BaseLevel: 3},
		VCsPerPort: 2, // 2 VCs: at most 2 concurrent inbound packets per cluster
		LoadScale:  1.5,
		Cycles:     6000, WarmupCycles: 1000, Seed: 11,
	})
	if res.Stats.PacketsDroppedRX == 0 {
		t.Fatal("no receiver drops under extreme hotspot pressure with 2 VCs")
	}
	if res.Stats.Retransmissions == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("network collapsed entirely")
	}
}

// TestRemapReshapesAllocation: a mid-run task change makes the DBA move
// wavelengths (§3.2: "whenever there is a change in the task mapping").
func TestRemapReshapesAllocation(t *testing.T) {
	res := runConfig(t, Config{
		Arch:    DHetPNoC,
		Pattern: traffic.Uniform{},
		Remaps:  []Remap{{At: 2000, Pattern: traffic.Skewed{Level: 3}}},
		Cycles:  6000, WarmupCycles: 500, Seed: 13,
	})
	uniform := true
	for _, n := range res.AllocatedWavelengths {
		if n != res.AllocatedWavelengths[0] {
			uniform = false
		}
	}
	if uniform {
		t.Fatalf("allocation %v still uniform after remap to skewed 3", res.AllocatedWavelengths)
	}
}

// TestRemapFailureFailsStep: a remap whose pattern cannot be assigned when
// it fires — Config.Validate cannot see inside a pattern — stops the run
// with the cycle and the cause instead of being skipped in silence.
func TestRemapFailureFailsStep(t *testing.T) {
	short := traffic.Custom{Cores: make([]traffic.CustomCore, 3)}
	f, err := New(Config{
		Pattern: traffic.Uniform{},
		Remaps:  []Remap{{At: 300, Pattern: short}},
		Cycles:  2000, WarmupCycles: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = f.StepContext(context.Background(), 2000)
	const want = "cycle 300: remap: traffic: custom workload has 3 cores, topology has 64"
	if err == nil || err.Error() != want {
		t.Fatalf("StepContext returned %v, want %q", err, want)
	}
	if f.Now() != 300 {
		t.Fatalf("fabric stopped at cycle %d, want 300", f.Now())
	}
	if err := f.Step(); err == nil || err.Error() != want {
		t.Fatalf("stepping again returned %v, want the same failure", err)
	}
}

// TestTorusArchitecture: the related-work circuit-switched torus delivers
// traffic end to end, experiences setup blocking under load, and releases
// every circuit.
func TestTorusArchitecture(t *testing.T) {
	res := runConfig(t, Config{
		Arch: TorusPNoC, Pattern: traffic.Skewed{Level: 2},
		Cycles: 5000, WarmupCycles: 1000, Seed: 23,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("torus delivered nothing")
	}
	if res.TorusPathsSetUp == 0 {
		t.Fatal("no circuits established")
	}
	if res.TorusSetupsBlocked == 0 {
		t.Fatal("no setup blocking under saturated skewed traffic — the blocking routers should contend")
	}
	if res.Arch != "torus-pnoc" {
		t.Fatalf("result says arch %q", res.Arch)
	}
	// Crossbar channel stats do not apply.
	for _, busy := range res.ChannelBusyFraction {
		if busy != 0 {
			t.Fatal("crossbar busy stats populated for the torus")
		}
	}
}

// TestTorusNeighborHasNoBlocking: the neighbor permutation gives every
// source a disjoint single-hop circuit, so the blocking torus sets up
// every path without contention — spatial reuse the crossbars lack.
func TestTorusNeighborHasNoBlocking(t *testing.T) {
	res := runConfig(t, Config{
		Arch:    TorusPNoC,
		Pattern: traffic.Permutation{Kind: traffic.Neighbor},
		Cycles:  4000, WarmupCycles: 800, Seed: 37,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("neighbor traffic delivered nothing on the torus")
	}
	if res.TorusSetupsBlocked != 0 {
		t.Fatalf("%d setups blocked under disjoint neighbor circuits", res.TorusSetupsBlocked)
	}
}

// TestConcentratedIntraCluster: the Firefly-style concentrated switch
// works end to end.
func TestConcentratedIntraCluster(t *testing.T) {
	res := runConfig(t, Config{
		Arch: Firefly, Pattern: traffic.Uniform{}, IntraCluster: Concentrated,
		Cycles: 3000, WarmupCycles: 500, Seed: 15,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("concentrated topology delivered nothing")
	}
	if res.IntraCluster != "concentrated" {
		t.Fatalf("result says intra-cluster %q", res.IntraCluster)
	}
}

func TestMeasurementWindow(t *testing.T) {
	res := runConfig(t, Config{
		Arch: Firefly, Pattern: traffic.Uniform{},
		Cycles: 3000, WarmupCycles: 700, Seed: 1,
	})
	if got := res.Stats.MeasuredCycles; int(got) != 2300 {
		t.Fatalf("measured %d cycles, want 2300", got)
	}
}

// TestLatencyIsPhysical: end-to-end latency can never be below the
// minimum pipeline path (inject + 2 electrical hops + reservation +
// serialization).
func TestLatencyIsPhysical(t *testing.T) {
	res := runConfig(t, Config{
		Arch: DHetPNoC, Pattern: traffic.Uniform{}, LoadScale: 0.3,
		Cycles: 9000, WarmupCycles: 1000, Seed: 17,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	// BW1 at uniform: 4 wavelengths = 20 bits/cycle; 2048-bit packets
	// need ~103 cycles of serialization alone.
	if res.Stats.AvgLatencyCycles < 103 {
		t.Fatalf("avg latency %.1f cycles below the serialization bound", res.Stats.AvgLatencyCycles)
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	res := runConfig(t, Config{
		Arch: DHetPNoC, Pattern: traffic.Skewed{Level: 2},
		Cycles: 3000, WarmupCycles: 500, Seed: 19,
	})
	var sum units.Picojoule
	// A floating-point sum of a few components, compared with a relative
	// tolerance, so its order does not matter.
	for _, v := range res.EnergyBreakdownPJ {
		sum += v
	}
	if math.Abs(float64(sum-res.EnergyTotalPJ))/float64(res.EnergyTotalPJ) > 1e-9 {
		t.Fatalf("breakdown sums to %.1f, total is %.1f", sum, res.EnergyTotalPJ)
	}
	if math.Abs(float64(res.EnergyPhotonicPJ+res.EnergyElectricalPJ-res.EnergyTotalPJ))/float64(res.EnergyTotalPJ) > 1e-9 {
		t.Fatal("photonic + electrical != total")
	}
	if res.EnergyPerMessagePJ <= 0 {
		t.Fatal("EPM not positive")
	}
}

// TestTokenRotatesContinuously: the token keeps circulating for the whole
// run (one rotation per 16 transit hops).
func TestTokenRotatesContinuously(t *testing.T) {
	res := runConfig(t, Config{
		Arch: DHetPNoC, Pattern: traffic.Uniform{},
		Cycles: 3200, WarmupCycles: 500, Seed: 21,
	})
	if res.TokenRotations < 190 || res.TokenRotations > 200 {
		t.Fatalf("token rotated %d times in 3200 cycles, want ~200", res.TokenRotations)
	}
}

// TestBusyFractionOfCyclesRun: a fabric finished by hand at cycle 1,000
// of a 3,000-cycle run reports each write channel's busy share of the
// 1,000 cycles it ran, not of the 3,000 it was configured for.
func TestBusyFractionOfCyclesRun(t *testing.T) {
	f, err := New(Config{
		Arch: DHetPNoC, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 3}, LoadScale: 2,
		Cycles: 3000, WarmupCycles: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	step(t, f, 1000)
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	busiest := 0.0
	for i, tx := range f.txs {
		if got, want := res.ChannelBusyFraction[i], float64(tx.BusyCycles())/1000; got != want {
			t.Errorf("channel %d: busy fraction %v, want %d busy cycles of 1,000 run = %v", i, got, tx.BusyCycles(), want)
		}
		busiest = max(busiest, res.ChannelBusyFraction[i])
	}
	if busiest < 0.5 {
		t.Errorf("the busiest channel was busy %.2f of the cycles run; want a saturated one", busiest)
	}
}
