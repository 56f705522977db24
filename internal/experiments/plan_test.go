package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// The runners in this package all execute through runPlan. These tests
// hold them to the solo path: every row must equal the one computed here
// from a fresh fabric.New + Run per case. The case tables below restate,
// independently of the runners, which simulations each study consists
// of.

func referenceOpts() Options {
	return Options{Cycles: 1500, WarmupCycles: 300, Seed: 3, Parallelism: 2}
}

// soloRun is the reference: one fabric per config, no batch engine.
func soloRun(t *testing.T, opts Options, cfg fabric.Config) fabric.Result {
	t.Helper()
	cfg.Cycles = opts.Cycles
	cfg.WarmupCycles = opts.WarmupCycles
	cfg.Seed = opts.Seed
	f, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func dhet(set traffic.BandwidthSet, pattern traffic.Pattern) fabric.Config {
	return fabric.Config{Arch: fabric.DHetPNoC, Set: set, Pattern: pattern}
}

func TestAblationsMatchSoloRuns(t *testing.T) {
	skewed := func(level int) traffic.Pattern { return traffic.Skewed{Level: level} }
	with := func(cfg fabric.Config, edit func(*fabric.Config)) fabric.Config {
		edit(&cfg)
		return cfg
	}
	bursty := func(arch fabric.Arch, factor float64) fabric.Config {
		return fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: traffic.Bursty{Base: skewed(2), Factor: factor}}
	}
	plain := func(arch fabric.Arch) fabric.Config {
		return fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: skewed(2)}
	}

	studies := []struct {
		name  string
		run   func(context.Context, Options) ([]AblationRow, error)
		cases []fabric.Config
	}{
		{"reservation-pipelining", ReservationPipeliningAblation, []fabric.Config{
			dhet(traffic.BWSet3, skewed(2)),
			with(dhet(traffic.BWSet3, skewed(2)), func(c *fabric.Config) { c.DisableReservationPipelining = true }),
		}},
		{"acquisition-chunk", AcquisitionChunkAblation, []fabric.Config{
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 1 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 2 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 4 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 8 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 64 }),
		}},
		{"reserved-minimum", ReservedMinimumAblation, []fabric.Config{
			with(dhet(traffic.BWSet1, skewed(3)), func(c *fabric.Config) { c.ReservedPerCluster = 1 }),
			with(dhet(traffic.BWSet1, skewed(3)), func(c *fabric.Config) { c.ReservedPerCluster = 2 }),
			with(dhet(traffic.BWSet1, skewed(3)), func(c *fabric.Config) { c.ReservedPerCluster = 4 }),
		}},
		{"intra-cluster", IntraClusterAblation, []fabric.Config{
			with(dhet(traffic.BWSet1, skewed(2)), func(c *fabric.Config) { c.IntraCluster = fabric.AllToAll }),
			with(dhet(traffic.BWSet1, skewed(2)), func(c *fabric.Config) { c.IntraCluster = fabric.Concentrated }),
		}},
		{"waveguide-restriction", WaveguideRestrictionAblation, []fabric.Config{
			dhet(traffic.BWSet3, skewed(3)),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.WaveguidesPerCluster = 2 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.WaveguidesPerCluster = 4 }),
		}},
		{"allocation-policy", AllocationPolicyAblation, []fabric.Config{
			dhet(traffic.BWSet3, skewed(3)),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.MaxAcquirePerVisit = 512 }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.ProportionalDBA = true }),
			with(dhet(traffic.BWSet3, skewed(3)), func(c *fabric.Config) { c.ProportionalDBA, c.MaxAcquirePerVisit = true, 512 }),
		}},
		{"burstiness", BurstinessAblation, []fabric.Config{
			plain(fabric.Firefly), plain(fabric.DHetPNoC),
			bursty(fabric.Firefly, 4), bursty(fabric.DHetPNoC, 4),
			bursty(fabric.Firefly, 16), bursty(fabric.DHetPNoC, 16),
		}},
		{"architecture", func(ctx context.Context, o Options) ([]AblationRow, error) {
			return ArchitectureComparison(ctx, o, traffic.BWSet2, traffic.SkewedHotspot{HotFraction: 0.1, BaseLevel: 1})
		}, []fabric.Config{
			{Arch: fabric.Firefly, Set: traffic.BWSet2, Pattern: traffic.SkewedHotspot{HotFraction: 0.1, BaseLevel: 1}},
			{Arch: fabric.DHetPNoC, Set: traffic.BWSet2, Pattern: traffic.SkewedHotspot{HotFraction: 0.1, BaseLevel: 1}},
			{Arch: fabric.TorusPNoC, Set: traffic.BWSet2, Pattern: traffic.SkewedHotspot{HotFraction: 0.1, BaseLevel: 1}},
		}},
	}

	opts := referenceOpts()
	for _, study := range studies {
		rows, err := study.run(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", study.name, err)
		}
		if len(rows) != len(study.cases) {
			t.Fatalf("%s: %d rows for %d cases", study.name, len(rows), len(study.cases))
		}
		for i, cfg := range study.cases {
			res := soloRun(t, opts, cfg)
			want := AblationRow{
				Study:              study.name,
				Variant:            rows[i].Variant, // labels are checked by the per-study tests
				PeakBandwidthGbps:  res.Stats.DeliveredGbps,
				EnergyPerMessagePJ: res.EnergyPerMessagePJ,
				AvgLatencyCycles:   res.Stats.AvgLatencyCycles,
				FairnessJain:       res.Stats.FairnessJain,
				AreaMM2:            rows[i].AreaMM2, // analytic, not simulated
			}
			if rows[i] != want {
				t.Errorf("%s case %d (%s) diverges from its solo run:\nplan: %+v\nsolo: %+v", study.name, i, rows[i].Variant, rows[i], want)
			}
		}
	}
}

func TestLoadLatencyCurveMatchesSoloRuns(t *testing.T) {
	opts := referenceOpts()
	loads := []float64{0.3, 1.0, 1.4}
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC, fabric.TorusPNoC} {
		points, err := LoadLatencyCurve(context.Background(), opts, arch, traffic.Skewed{Level: 2}, traffic.BWSet1, loads)
		if err != nil {
			t.Fatal(err)
		}
		for i, load := range loads {
			res := soloRun(t, opts, fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, LoadScale: load})
			want := LatencyPoint{
				LoadScale:        load,
				OfferedGbps:      res.OfferedGbps,
				DeliveredGbps:    res.Stats.DeliveredGbps,
				AvgLatencyCycles: res.Stats.AvgLatencyCycles,
				MaxLatencyCycles: int64(res.Stats.MaxLatencyCycles),
			}
			if points[i] != want {
				t.Errorf("%s at load %g diverges from its solo run:\nplan: %+v\nsolo: %+v", arch, load, points[i], want)
			}
		}
	}
}

// TestEnergySensitivityMatchesSoloRuns: each row is the solo runs' ledger
// counts priced at that row's constants, and a scale-1.0 row is the plain
// Figure 3-4 point's EPM bit for bit.
func TestEnergySensitivityMatchesSoloRuns(t *testing.T) {
	opts := referenceOpts()
	scales := []float64{0.5, 1.0, 3.0}
	rows, err := EnergySensitivity(context.Background(), opts, scales)
	if err != nil {
		t.Fatal(err)
	}
	solo := func(arch fabric.Arch) fabric.Result {
		return soloRun(t, opts, fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}})
	}
	firefly, dhet := solo(fabric.Firefly), solo(fabric.DHetPNoC)
	var want []SensitivityRow
	for _, param := range []string{"buffer-residency", "idle-detector"} {
		for _, scale := range scales {
			energy := photonic.DefaultEnergyParams()
			if param == "buffer-residency" {
				energy.BufferResidencyPJPerBitCycle = energy.BufferResidencyPJPerBitCycle.Times(scale)
			} else {
				energy.IdleDetectorPJPerWavelengthCycle = energy.IdleDetectorPJPerWavelengthCycle.Times(scale)
			}
			epm := func(res fabric.Result) units.Picojoule {
				return energy.Price(res.EnergyCounts).PerMessage(res.Stats.PacketsDelivered)
			}
			ff, dh := epm(firefly), epm(dhet)
			want = append(want, SensitivityRow{
				Parameter: param, Scale: scale,
				FireflyEPMPJ: ff, DHetPNoCEPMPJ: dh,
				DHetSavingPct: float64((1 - dh/ff) * 100),
			})
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("sensitivity rows diverge from their solo runs:\nplan: %+v\nsolo: %+v", rows, want)
	}
	for _, r := range rows {
		if r.Scale == 1.0 && (r.FireflyEPMPJ != firefly.EnergyPerMessagePJ || r.DHetPNoCEPMPJ != dhet.EnergyPerMessagePJ) {
			t.Errorf("%s x1.0 prices EPM at %v / %v, the plain point's is %v / %v", r.Parameter,
				r.FireflyEPMPJ, r.DHetPNoCEPMPJ, firefly.EnergyPerMessagePJ, dhet.EnergyPerMessagePJ)
		}
	}
}

// TestRunnersHonorCancellation: every simulating runner threads its
// context into the cycle loop, so a run that would take hours returns the
// context's error about one fabric.CancelCheckInterval after the deadline
// fires, and a context that is already canceled aborts the run before
// it simulates anything.
func TestRunnersHonorCancellation(t *testing.T) {
	endless := Options{Cycles: 1 << 30, WarmupCycles: 1000, Parallelism: 2}
	point := Point{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC}
	type runner struct {
		name string
		run  func(context.Context) error
	}
	runners := []runner{
		{"RunMatrix", func(ctx context.Context) error {
			_, err := RunMatrix(ctx, endless, []Point{point, {Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly}})
			return err
		}},
		{"RunReplicated", func(ctx context.Context) error {
			_, err := RunReplicated(ctx, endless, point, 2)
			return err
		}},
		{"PeakBandwidth", func(ctx context.Context) error {
			_, err := PeakBandwidth(ctx, endless, []traffic.BandwidthSet{traffic.BWSet1})
			return err
		}},
		{"CaseStudies", func(ctx context.Context) error {
			_, err := CaseStudies(ctx, endless, traffic.BWSet1)
			return err
		}},
		{"ScalingSeries", func(ctx context.Context) error {
			_, err := ScalingSeries(ctx, endless, fabric.DHetPNoC)
			return err
		}},
		{"WavelengthScaling", func(ctx context.Context) error {
			_, err := WavelengthScaling(ctx, endless, fabric.DHetPNoC)
			return err
		}},
		{"LoadLatencyCurve", func(ctx context.Context) error {
			_, err := LoadLatencyCurve(ctx, endless, fabric.DHetPNoC, traffic.Uniform{}, traffic.BWSet1, nil)
			return err
		}},
		{"EnergySensitivity", func(ctx context.Context) error {
			_, err := EnergySensitivity(ctx, endless, nil)
			return err
		}},
		{"ArchitectureComparison", func(ctx context.Context) error {
			_, err := ArchitectureComparison(ctx, endless, traffic.BWSet1, traffic.Uniform{})
			return err
		}},
	}
	for name, ablation := range map[string]func(context.Context, Options) ([]AblationRow, error){
		"ReservationPipeliningAblation": ReservationPipeliningAblation,
		"AcquisitionChunkAblation":      AcquisitionChunkAblation,
		"ReservedMinimumAblation":       ReservedMinimumAblation,
		"IntraClusterAblation":          IntraClusterAblation,
		"WaveguideRestrictionAblation":  WaveguideRestrictionAblation,
		"AllocationPolicyAblation":      AllocationPolicyAblation,
		"BurstinessAblation":            BurstinessAblation,
		"AllAblations":                  AllAblations,
	} {
		runners = append(runners, runner{name, func(ctx context.Context) error {
			_, err := ablation(ctx, endless)
			return err
		}})
	}
	// finish runs r and fails the test if it is still running after
	// 5 s: one check interval is well under a millisecond of stepping,
	// and the bound only has to separate "aborted" from "ran 2^30
	// cycles".
	finish := func(r runner, ctx context.Context) error {
		done := make(chan error, 1)
		go func() { done <- r.run(ctx) }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still running 5s after its context ended", r.name)
			return nil
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range runners {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := finish(r, ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: want context.DeadlineExceeded, got %v", r.name, err)
		}
		if err := finish(r, canceled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a canceled context: want context.Canceled, got %v", r.name, err)
		}
	}
}

// TestRunMatrixContextCanceled: a dead context aborts a finite matrix
// with its error instead of running the points, and returns no rows.
func TestRunMatrixContextCanceled(t *testing.T) {
	opts := Options{Cycles: 1500, WarmupCycles: 500, LoadScales: []float64{1.0}, Parallelism: 2}
	points := []Point{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := RunMatrix(ctx, opts, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rows != nil {
		t.Fatalf("a canceled matrix returned rows: %+v", rows)
	}
}
