package hetpnoc

import (
	"context"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/testutil/leakcheck"
)

// canonical encodes r, failing the test on error.
func canonical(t testing.TB, r Result) []byte {
	t.Helper()
	b, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lowerAll lowers cfgs the way run does, for tests that inspect the plan.
func lowerAll(t *testing.T, cfgs []Config) []fabric.Config {
	t.Helper()
	specs := make([]fabric.Config, len(cfgs))
	for i, c := range cfgs {
		var err error
		if specs[i], err = lower(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// sweep256Configs builds a 256-point sweep: a cross-product of 8 build
// prefixes (2 architectures × 2 bandwidth sets × 2 traffic patterns)
// fanned out over 8 seeds and 4 load scales.
func sweep256Configs() []Config {
	var cfgs []Config
	for _, arch := range []Architecture{DHetPNoC, Firefly} {
		for _, set := range []int{1, 2} {
			for _, tr := range []Traffic{{Kind: UniformRandom}, {Kind: SkewedKind, SkewLevel: 2}} {
				for seed := uint64(1); seed <= 8; seed++ {
					for _, load := range []float64{0.5, 1, 1.5, 2} {
						cfgs = append(cfgs, Config{
							Architecture: arch,
							BandwidthSet: set,
							Traffic:      tr,
							LoadScale:    load,
							Cycles:       600,
							WarmupCycles: 150,
							Seed:         seed,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// TestBatchSweep256Builds pins the sweep's shape: the batch engine must
// collapse the 256 points onto exactly 8 fabric builds, each carrying
// its 32 seed/load variants.
func TestBatchSweep256Builds(t *testing.T) {
	cfgs := sweep256Configs()
	if len(cfgs) != 256 {
		t.Fatalf("corpus has %d points, want 256", len(cfgs))
	}
	plan, err := batch.NewPlan(lowerAll(t, cfgs), batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Groups != 8 || st.LargestGroup != 32 {
		t.Errorf("plan stats = %+v, want 8 groups of 32", st)
	}
}

// TestCustomTrafficSharesABuild: custom traffic lowers to plain data, so
// two custom configs that differ only in seed plan onto one build, where
// a pattern carrying per-config closures split them into two groups of
// one. (That a member of the group is its solo run is the custom row of
// TestPathEquivalence.)
func TestCustomTrafficSharesABuild(t *testing.T) {
	custom := func(seed uint64) Config {
		specs := make([]CoreSpec, 64)
		specs[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{1, 8, 9}}
		specs[5] = CoreSpec{RateGbps: 20, Dests: []int{4, 6}} // cluster-local only: no demand
		specs[12] = CoreSpec{RateGbps: 20}                    // every foreign core
		return Config{Traffic: CustomTraffic(specs), Cycles: 1500, WarmupCycles: 300, Seed: seed, EventCapacity: 64}
	}
	plan, err := batch.NewPlan(lowerAll(t, []Config{custom(1), custom(9)}), batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(); st.Groups != 1 {
		t.Errorf("plan built %d groups for two custom configs differing only in seed, want 1", st.Groups)
	}
}

// TestRunIsOneBuild: Run — and RunBatch of one config — is a one-member
// plan. The first sighting of a build prefix costs one build and one
// cycle-0 checkpoint, which the shelf keeps: its allocations stay within
// a plan's bookkeeping (planSlack) of the bare fabric path plus that
// checkpoint. A repeat of the prefix under another seed forks the shelved
// build — no fabric.New — and allocates at most BenchmarkFabricReseed's
// 212 objects plus 16, the whole run and its result included.
func TestRunIsOneBuild(t *testing.T) {
	cfg := Config{Traffic: UniformTraffic(), LoadScale: 0.05, Cycles: 2000, WarmupCycles: 500}
	// The bare fabric path of a first sighting: lower, fabric.New, the
	// cycle-0 checkpoint the shelf keeps, StepContext, Finish, lift.
	bare := testing.AllocsPerRun(20, func() {
		fc, err := lower(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc = fc.WithDefaults()
		f, err := fabric.New(fc)
		if err != nil {
			t.Fatal(err)
		}
		f.Checkpoint()
		if err := f.StepContext(context.Background(), fc.Cycles); err != nil {
			t.Fatal(err)
		}
		res, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		fromFabricResult(res)
	})

	for _, entry := range []struct {
		name string
		run  func(Config) error
	}{
		{"Run", func(c Config) error { _, err := Run(c); return err }},
		{"RunBatch", func(c Config) error { _, err := RunBatch([]Config{c}); return err }},
	} {
		got := costOf(t, func() {
			first := cfg
			first.Cycles += newPrefix() // a prefix field: a first sighting
			if err := entry.run(first); err != nil {
				t.Fatal(err)
			}
		}, 1, 0)
		t.Logf("%s, first sighting: %.0f allocations, bare fabric path with its checkpoint %.0f", entry.name, got, bare)
		if got > bare+planSlack {
			t.Errorf("%s of a new prefix allocates %.0f objects, the bare fabric path with its checkpoint %.0f: want at most %d more", entry.name, got, bare, planSlack)
		}

		// Seed is not: each call after the first forks the shelved build.
		repeat := cfg
		got = costOf(t, func() {
			repeat.Seed++
			if err := entry.run(repeat); err != nil {
				t.Fatal(err)
			}
		}, 0, 1)
		t.Logf("%s, repeat: %.0f allocations", entry.name, got)
		if got > 212+16 {
			t.Errorf("%s of a shelved prefix allocates %.0f objects, want at most 212 + 16", entry.name, got)
		}
	}
}

// planSlack bounds a one-member plan's own allocations: the plan, its
// slices, the claim loop's closure and a cancelable context, ≈ 10–12
// measured, and a few more under -race, whose sync.Pool drops entries at
// random. Forking the lone member off a checkpoint would cost ≈ 200 more.
const planSlack = 24

// sightings counts the prefixes newPrefix has handed out.
var sightings int

// newPrefix returns a number no earlier call returned, so a config that
// adds it to a prefix field is the process's first sighting of its
// prefix, under -count too.
func newPrefix() int {
	sightings++
	return sightings
}

// costOf returns run's allocations per call, as testing.AllocsPerRun
// counts them, and requires each measured call to cost builds fabric
// builds and forks forks.
func costOf(t *testing.T, run func(), builds, forks int64) float64 {
	t.Helper()
	run() // shelves the prefix the repeats take, and warms what warms
	const calls = 20
	b0, f0 := batch.Counters()
	allocs := testing.AllocsPerRun(calls, run)
	b1, f1 := batch.Counters()
	// AllocsPerRun makes one warm-up call of its own.
	if b1-b0 != (calls+1)*builds || f1-f0 != (calls+1)*forks {
		t.Errorf("%d calls cost %d builds and %d forks, want %d and %d each", calls+1, b1-b0, f1-f0, builds, forks)
	}
	return allocs
}

// TestRunBatchEmpty: an empty batch is a no-op, not an error.
func TestRunBatchEmpty(t *testing.T) {
	res, err := RunBatch(nil)
	if err != nil {
		t.Fatalf("RunBatch(nil): %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("RunBatch(nil) returned %d results", len(res))
	}
}

// TestPanicBelowRunReachesCaller: every run now executes on a batch
// plan, yet a panic inside it — an observer's here — still unwinds the
// caller of RunWithTrace, and of a run whose members run on plan worker
// goroutines, where the caller (hetpnocd's runRecovered) can recover it.
func TestPanicBelowRunReachesCaller(t *testing.T) {
	leakcheck.Check(t)
	poisoned := func(Snapshot) { panic("observer poisoned") }
	cfg := Config{Cycles: 1200, WarmupCycles: 1000}
	skewed := cfg
	skewed.Traffic = SkewedTraffic(2)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"RunWithTrace", func() { RunWithTrace(cfg, nil, 100, poisoned) }},
		{"two groups", func() { run(context.Background(), []Config{cfg, skewed}, nil, 100, poisoned) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != "observer poisoned" {
					t.Errorf("%s: recovered %v, want the observer's panic", c.name, r)
				}
			}()
			c.call()
			t.Errorf("%s returned past a panicking observer", c.name)
		}()
	}
}
