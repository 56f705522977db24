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

// RunMatrix is the one function in this package that simulates. These
// tests hold it to the solo path: a row must equal the one computed here from
// a fresh fabric.New + Run of its config.

func referenceOpts() Options {
	return Options{Cycles: 1500, WarmupCycles: 300, Seed: 3, Parallelism: 2}
}

// soloRun is the reference: one fabric per config, no batch engine. opts
// fills the cycles, warm-up and seed that cfg leaves zero.
func soloRun(t *testing.T, opts Options, cfg fabric.Config) fabric.Result {
	t.Helper()
	if cfg.Cycles == 0 {
		cfg.Cycles, cfg.WarmupCycles = opts.Cycles, opts.WarmupCycles
	}
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	f, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != cfg.Seed {
		t.Fatalf("solo run reports seed %d, want %d", res.Seed, cfg.Seed)
	}
	return res
}

// soloRow is the Row that RunMatrix must return for cfg: its solo run's
// figures under cfg's labels.
func soloRow(t *testing.T, opts Options, cfg fabric.Config) Row {
	t.Helper()
	res := soloRun(t, opts, cfg)
	load := cfg.LoadScale
	if load == 0 {
		load = 1
	}
	return Row{
		Set:                  cfg.Set.Name,
		Pattern:              cfg.Pattern.Name(),
		Arch:                 cfg.Arch.String(),
		AtLoad:               load,
		TotalWavelengths:     cfg.Set.TotalWavelengths,
		PeakBandwidthGbps:    res.Stats.DeliveredGbps,
		PerCoreGbps:          res.PerCoreGbps,
		EnergyPerMessagePJ:   res.EnergyPerMessagePJ,
		OfferedGbps:          res.OfferedGbps,
		PacketsDelivered:     res.Stats.PacketsDelivered,
		PacketsDropped:       res.Stats.PacketsDroppedRX,
		Retransmissions:      res.Stats.Retransmissions,
		AvgLatencyCycles:     res.Stats.AvgLatencyCycles,
		MaxLatencyCycles:     int64(res.Stats.MaxLatencyCycles),
		FairnessJain:         res.Stats.FairnessJain,
		AllocatedWavelengths: res.AllocatedWavelengths,
		EnergyCounts:         res.EnergyCounts,
	}
}

// matrixMatchesSoloRuns runs cfgs through RunMatrix as one list and holds
// every row to soloRow of its config.
func matrixMatchesSoloRuns(t *testing.T, cfgs []fabric.Config) {
	t.Helper()
	opts := referenceOpts()
	rows, err := RunMatrix(context.Background(), opts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfgs) {
		t.Fatalf("%d rows for %d configs", len(rows), len(cfgs))
	}
	for i, cfg := range cfgs {
		if want := soloRow(t, opts, cfg); !reflect.DeepEqual(rows[i], want) {
			t.Errorf("config %d diverges from its solo run:\nplan: %+v\nsolo: %+v", i, rows[i], want)
		}
	}
}

func skewed2(arch fabric.Arch, set traffic.BandwidthSet) fabric.Config {
	return fabric.Config{Arch: arch, Set: set, Pattern: traffic.Skewed{Level: 2}}
}

// TestRowsMatchSoloRuns runs one mixed list through RunMatrix — a figure
// point, an ablation variant, two loads of a latency curve (one on the
// torus) and a second seed — and holds every row to its solo run.
func TestRowsMatchSoloRuns(t *testing.T) {
	serialized := skewed2(fabric.DHetPNoC, traffic.BWSet3)
	serialized.DisableReservationPipelining = true
	light := skewed2(fabric.DHetPNoC, traffic.BWSet1)
	light.LoadScale = 0.3
	torus := skewed2(fabric.TorusPNoC, traffic.BWSet1)
	torus.LoadScale = 1.4
	reseeded := skewed2(fabric.DHetPNoC, traffic.BWSet1)
	reseeded.Seed = 7
	matrixMatchesSoloRuns(t, []fabric.Config{skewed2(fabric.Firefly, traffic.BWSet1), serialized, light, torus, reseeded})
}

// TestAblationsMatchSoloRuns: every labeled row of Ablations' configs is
// its case's solo run, labeled with the case's study, variant and
// analytic area.
func TestAblationsMatchSoloRuns(t *testing.T) {
	opts := referenceOpts()
	rows, err := RunMatrix(context.Background(), opts, Ablations())
	if err != nil {
		t.Fatal(err)
	}
	rows = LabelAblations(rows)
	cases := ablationCases()
	if len(rows) != len(cases) {
		t.Fatalf("%d rows for %d ablation cases", len(rows), len(cases))
	}
	for i, c := range cases {
		want := soloRow(t, opts, c.cfg)
		want.Study, want.Variant, want.AreaMM2 = c.study, c.variant, c.areaMM2
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("%s/%s diverges from its solo run:\nplan: %+v\nsolo: %+v", c.study, c.variant, rows[i], want)
		}
	}
}

// TestLoadLatencyCurveMatchesSoloRuns: a load-latency curve is one config
// per load; each architecture's curve, run as one list, is its solo runs.
func TestLoadLatencyCurveMatchesSoloRuns(t *testing.T) {
	var cfgs []fabric.Config
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC, fabric.TorusPNoC} {
		for _, load := range []float64{0.3, 1.0, 1.4} {
			cfg := skewed2(arch, traffic.BWSet1)
			cfg.LoadScale = load
			cfgs = append(cfgs, cfg)
		}
	}
	matrixMatchesSoloRuns(t, cfgs)
}

// TestReplicasMatchSoloRuns: replicas are one config per seed; each
// replica, run in one list with the others, is its solo run at that seed.
func TestReplicasMatchSoloRuns(t *testing.T) {
	var cfgs []fabric.Config
	for i := range uint64(3) {
		cfg := skewed2(fabric.DHetPNoC, traffic.BWSet1)
		cfg.Seed = referenceOpts().Seed + i
		cfgs = append(cfgs, cfg)
	}
	matrixMatchesSoloRuns(t, cfgs)
}

// TestEnergySensitivityMatchesSoloRuns: each row is the solo runs' ledger
// counts priced at that row's constants, and a scale-1.0 row is the plain
// Figure 3-4 point's EPM bit for bit.
func TestEnergySensitivityMatchesSoloRuns(t *testing.T) {
	opts := referenceOpts()
	scales := []float64{0.5, 1.0, 3.0}
	runs, err := RunMatrix(context.Background(), opts, SensitivityRuns())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EnergySensitivity(runs[0], runs[1], scales)
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

// TestRunnersHonorCancellation: RunMatrix threads its context into the
// cycle loop, so every list this package builds, run for hours, returns
// the context's error about one fabric.CancelCheckInterval after the
// deadline fires, and a context that is already canceled aborts the run
// before it simulates anything.
func TestRunnersHonorCancellation(t *testing.T) {
	endless := Options{Cycles: 1 << 30, WarmupCycles: 1000, Parallelism: 2}
	type runner struct {
		name string
		run  func(context.Context) error
	}
	var runners []runner
	for _, list := range []struct {
		name string
		cfgs []fabric.Config
	}{
		{"RunMatrix", []fabric.Config{
			{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC},
			{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		}},
		{"PeakBandwidth", PeakBandwidth([]traffic.BandwidthSet{traffic.BWSet1})},
		{"CaseStudies", CaseStudies(traffic.BWSet1)},
		{"Ablations", Ablations()},
		{"SensitivityRuns", SensitivityRuns()},
	} {
		runners = append(runners, runner{list.name, func(ctx context.Context) error {
			_, err := RunMatrix(ctx, endless, list.cfgs)
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
	opts := Options{Cycles: 1500, WarmupCycles: 500, Parallelism: 2}
	cfgs := []fabric.Config{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := RunMatrix(ctx, opts, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rows != nil {
		t.Fatalf("a canceled matrix returned rows: %+v", rows)
	}
}
