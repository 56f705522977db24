package hetpnoc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Architecture != "d-hetpnoc" {
		t.Fatalf("default architecture %q", res.Architecture)
	}
	if res.BandwidthSet != "BW1" {
		t.Fatalf("default set %q", res.BandwidthSet)
	}
	if res.Traffic != "uniform" {
		t.Fatalf("default traffic %q", res.Traffic)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestRunHonorsCancellation: RunContext and RunBatchContext thread ctx
// into the cycle loop, so a run of 2^30 cycles returns the context's
// error soon after its deadline, and a canceled context refuses the run.
func TestRunHonorsCancellation(t *testing.T) {
	endless := Config{Cycles: 1 << 30}
	for _, r := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"RunContext", func(ctx context.Context) error {
			_, err := RunContext(ctx, endless)
			return err
		}},
		{"RunBatchContext", func(ctx context.Context) error {
			other := endless
			other.Seed = 2
			_, err := RunBatchContext(ctx, []Config{endless, other})
			return err
		}},
	} {
		deadline, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		canceled, cancelNow := context.WithCancel(context.Background())
		cancelNow()
		for _, c := range []struct {
			ctx  context.Context
			want error
		}{{deadline, context.DeadlineExceeded}, {canceled, context.Canceled}} {
			done := make(chan error, 1)
			go func() { done <- r.run(c.ctx) }()
			select {
			case err := <-done:
				if !errors.Is(err, c.want) {
					t.Errorf("%s: want %v, got %v", r.name, c.want, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: still running 5s after its context ended", r.name)
			}
		}
		cancel()
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Architecture: 99},
		{BandwidthSet: 7},
		{Traffic: Traffic{Kind: 99}},
		{Traffic: SkewedTraffic(4)},
		{Traffic: HotspotTraffic(1.5, 2)},
		{Traffic: HotspotTraffic(0.1, 9)},
	}
	for i, cfg := range bad {
		cfg.Cycles = 100
		cfg.WarmupCycles = 10
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrafficConstructors(t *testing.T) {
	tests := []struct {
		traffic Traffic
		name    string
	}{
		{UniformTraffic(), "uniform"},
		{SkewedTraffic(2), "skewed2"},
		{HotspotTraffic(0.1, 3), "skewed-hotspot0"}, // index unset: naming only
		{RealAppTraffic(), "realapp"},
	}
	for _, tt := range tests {
		p, err := tt.traffic.toPattern()
		if err != nil {
			t.Fatalf("%+v: %v", tt.traffic, err)
		}
		if got := p.Name(); got != tt.name {
			t.Errorf("pattern name %q, want %q", got, tt.name)
		}
	}
}

func TestCustomTraffic(t *testing.T) {
	specs := make([]CoreSpec, 64)
	// Core 0 sends to cores 8 and 9 (cluster 2); everyone else idle.
	specs[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{8, 9}}

	res, err := Run(Config{
		Traffic: CustomTraffic(specs),
		Cycles:  3000, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("custom traffic delivered nothing")
	}
	// Only cluster 0's write channel should have been busy.
	for cl, busy := range res.ChannelBusyFraction {
		if cl == 0 && busy == 0 {
			t.Fatal("source cluster channel never busy")
		}
		if cl != 0 && busy != 0 {
			t.Fatalf("cluster %d channel busy %.3f with no traffic", cl, busy)
		}
	}
}

func TestCustomTrafficValidation(t *testing.T) {
	if _, err := Run(Config{Traffic: CustomTraffic(make([]CoreSpec, 3)), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("short spec list accepted")
	}
	specs := make([]CoreSpec, 64)
	specs[5] = CoreSpec{RateGbps: 10, Dests: []int{5}} // self
	if _, err := Run(Config{Traffic: CustomTraffic(specs), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("self-destination accepted")
	}
	specs[5] = CoreSpec{RateGbps: 10, Dests: []int{200}} // off chip
	if _, err := Run(Config{Traffic: CustomTraffic(specs), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("off-chip destination accepted")
	}
}

// TestRunWithTraceObservesRemap: a run probed every 500 cycles shows the
// allocation uniform before a remap to skewed traffic and reshaped after
// it.
func TestRunWithTraceObservesRemap(t *testing.T) {
	res, err := Run(Config{
		Architecture: DHetPNoC,
		Traffic:      UniformTraffic(),
		Cycles:       5000, WarmupCycles: 500, Seed: 1,
		Remaps:     []TrafficRemap{{AtCycle: 2500, Traffic: SkewedTraffic(3)}},
		ProbeEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Probe
	if p == nil || len(p.Rows) != 10 {
		t.Fatalf("probe %+v, want 10 rows", p)
	}
	allocated := func(row int) []int32 { return p.AllocatedWavelengths[row*p.Clusters : (row+1)*p.Clusters] }
	// Before the remap the allocation is uniform; at the end it is not.
	early := allocated(2)
	for _, n := range early {
		if n != 4 {
			t.Fatalf("allocation %v not uniform before remap", early)
		}
	}
	last := allocated(9)
	uniform := true
	for _, n := range last {
		if n != last[0] {
			uniform = false
		}
	}
	if uniform {
		t.Fatalf("allocation %v still uniform after remap", last)
	}
	if p.Rows[9].TokenRotations == 0 {
		t.Fatal("no token rotations probed")
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("trace run delivered nothing")
	}
}

// TestRunWithTraceValidation: Validate and Run refuse a negative probe
// interval, a remap to traffic that cannot be built and a remap to
// non-finite traffic, with one error.
func TestRunWithTraceValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"negative probe interval", Config{ProbeEvery: -1}},
		{"bad remap traffic", Config{Cycles: 100, WarmupCycles: 10, Remaps: []TrafficRemap{{AtCycle: 50, Traffic: SkewedTraffic(9)}}}},
		{"non-finite remap traffic", Config{Cycles: 100, WarmupCycles: 10, Remaps: []TrafficRemap{{AtCycle: 50, Traffic: Traffic{Burstiness: math.Inf(1)}}}}},
	} {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s accepted by Validate", c.name)
		}
		if _, runErr := Run(c.cfg); fmt.Sprint(runErr) != fmt.Sprint(err) {
			t.Errorf("%s: Run returned %v, Validate %v", c.name, runErr, err)
		}
	}
}

// TestEstimateAreaHeadline checks the public area API against the §3.4.3
// headline numbers.
func TestEstimateAreaHeadline(t *testing.T) {
	est, err := EstimateArea(64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(est.DHetPNoCAreaMM2)-1.608) > 0.002 {
		t.Errorf("d-HetPNoC area %.4f, thesis says 1.608", est.DHetPNoCAreaMM2)
	}
	if math.Abs(float64(est.FireflyAreaMM2)-1.367) > 0.002 {
		t.Errorf("Firefly area %.4f, thesis says 1.367", est.FireflyAreaMM2)
	}
	if est.DHetPNoCModulators != 3072 || est.FireflyModulators != 1088 {
		t.Errorf("modulator counts %d/%d, want 3072/1088",
			est.DHetPNoCModulators, est.FireflyModulators)
	}
	if _, err := EstimateArea(0); err == nil {
		t.Error("zero wavelengths accepted")
	}
}

func TestGPUFlitSizeSpeedups(t *testing.T) {
	speedups, err := GPUFlitSizeSpeedups()
	if err != nil {
		t.Fatal(err)
	}
	var maxPct float64
	for _, s := range speedups {
		if s.SpeedupPct > maxPct {
			maxPct = s.SpeedupPct
		}
	}
	if math.Abs(maxPct-63) > 2 {
		t.Fatalf("max GPU speedup %.1f%%, thesis says up to 63%%", maxPct)
	}
}

func TestArchitectureStrings(t *testing.T) {
	if Firefly.String() != "firefly" || DHetPNoC.String() != "d-hetpnoc" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(0).String() != "unknown" {
		t.Fatal("zero architecture should be unknown")
	}
}

// TestEventLogSurfacesProtocolActivity: with EventCapacity set, the result
// carries reservations, arrivals and allocation changes.
func TestEventLogSurfacesProtocolActivity(t *testing.T) {
	res, err := Run(Config{
		Architecture:  DHetPNoC,
		Traffic:       SkewedTraffic(2),
		Cycles:        2500,
		WarmupCycles:  500,
		EventCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events captured")
	}
	var sawReservation, sawArrival, sawAlloc, sawDelivered bool
	for _, e := range res.Events {
		switch {
		case strings.Contains(e, "reservation"):
			sawReservation = true
		case strings.Contains(e, "packet-arrived"):
			sawArrival = true
		case strings.Contains(e, "allocation-changed"):
			sawAlloc = true
		case strings.Contains(e, "packet-delivered"):
			sawDelivered = true
		}
	}
	if !sawReservation || !sawArrival || !sawDelivered {
		t.Fatalf("missing transfer events (reservation=%v arrival=%v delivered=%v)",
			sawReservation, sawArrival, sawDelivered)
	}
	if !sawAlloc {
		t.Fatal("no allocation-changed events from the DBA under skewed traffic")
	}
}

// TestPermutationTrafficThroughPublicAPI: the neighbor permutation — the
// torus's friendliest pattern — flows on all three architectures.
func TestPermutationTrafficThroughPublicAPI(t *testing.T) {
	for _, arch := range []Architecture{Firefly, DHetPNoC, TorusPNoC} {
		res, err := Run(Config{
			Architecture: arch,
			Traffic:      PermutationTraffic("neighbor"),
			Cycles:       2500,
			WarmupCycles: 500,
		})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if res.PacketsDelivered == 0 {
			t.Fatalf("%v delivered nothing under neighbor traffic", arch)
		}
	}
	if _, err := Run(Config{Traffic: PermutationTraffic("bogus"), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Fatal("unknown permutation accepted")
	}
}

// TestProportionalDBAThroughPublicAPI: the future-work policy runs end to
// end and still beats Firefly under skew.
func TestProportionalDBAThroughPublicAPI(t *testing.T) {
	prop, err := Run(Config{
		Architecture:    DHetPNoC,
		Traffic:         SkewedTraffic(2),
		ProportionalDBA: true,
		Cycles:          2500, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(Config{
		Architecture: Firefly,
		Traffic:      SkewedTraffic(2),
		Cycles:       2500, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prop.DeliveredGbps <= ff.DeliveredGbps {
		t.Fatalf("proportional d-HetPNoC %.1f Gb/s not above Firefly %.1f",
			prop.DeliveredGbps, ff.DeliveredGbps)
	}
}

// TestLatencyPercentilesExposed: the public result carries the latency
// distribution summary.
func TestLatencyPercentilesExposed(t *testing.T) {
	res, err := Run(Config{Traffic: SkewedTraffic(2), Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50LatencyCycles <= 0 || res.P99LatencyCycles < res.P50LatencyCycles ||
		res.MaxLatencyCycles < res.P99LatencyCycles {
		t.Fatalf("latency percentiles inconsistent: p50=%d p99=%d max=%d",
			res.P50LatencyCycles, res.P99LatencyCycles, res.MaxLatencyCycles)
	}
}

// TestLinkBudgets: the public budget API reflects the [23] crosstalk
// asymmetry between the crossbar and the torus.
func TestLinkBudgets(t *testing.T) {
	xbar, err := CrossbarLinkBudget()
	if err != nil {
		t.Fatal(err)
	}
	torus, err := TorusLinkBudget()
	if err != nil {
		t.Fatal(err)
	}
	if xbar.TotalDB <= 0 || torus.TotalDB <= 0 {
		t.Fatal("budgets empty")
	}
	if torus.CrosstalkDB <= xbar.CrosstalkDB {
		t.Fatal("torus crosstalk not above crossbar crosstalk")
	}
	if torus.LaserPowerMW <= xbar.LaserPowerMW {
		t.Fatal("torus laser power not above crossbar")
	}
}

// TestBurstyTrafficThroughPublicAPI: bursty skewed traffic runs end to end
// and raises latency over the smooth equivalent.
func TestBurstyTrafficThroughPublicAPI(t *testing.T) {
	smooth, err := Run(Config{Traffic: SkewedTraffic(2), Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	bursty := SkewedTraffic(2)
	bursty.Burstiness = 16
	b, err := Run(Config{Traffic: bursty, Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if b.Traffic != "skewed2-bursty16" {
		t.Fatalf("bursty traffic named %q", b.Traffic)
	}
	if b.AvgLatencyCycles < smooth.AvgLatencyCycles {
		t.Fatalf("bursty latency %.1f below smooth %.1f", b.AvgLatencyCycles, smooth.AvgLatencyCycles)
	}
	if _, err := Run(Config{Traffic: Traffic{Kind: UniformRandom, Burstiness: -2}, Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Fatal("negative burstiness accepted")
	}
}
