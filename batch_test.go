package hetpnoc

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/testutil/leakcheck"
)

// equivalenceConfigs builds the differential corpus for the batch
// oracle: every architecture crossed with every bandwidth set, each
// point fanned out over seeds and load scales so batching has prefixes
// to deduplicate, with the event log enabled so the comparison covers
// the protocol event stream and not just the aggregate counters. The last
// group alternates 5 % and 200 % load on one fabric: at 5 % the sources
// emit once in 1,024 cycles and the run is mostly jumps, so each fork's
// Restore → SetLoadScale → Reseed has to restart every source's
// look-ahead from the fork cycle, in both directions.
func equivalenceConfigs() []Config {
	var cfgs []Config
	for _, arch := range []Architecture{DHetPNoC, Firefly, TorusPNoC} {
		for set := 1; set <= 3; set++ {
			for _, seed := range []uint64{1, 7} {
				for _, load := range []float64{1.0, 2.0} {
					cfgs = append(cfgs, Config{
						Architecture:  arch,
						BandwidthSet:  set,
						Traffic:       Traffic{Kind: UniformRandom},
						LoadScale:     load,
						Cycles:        600,
						WarmupCycles:  150,
						Seed:          seed,
						EventCapacity: 256,
					})
				}
			}
		}
	}
	for _, seed := range []uint64{1, 7} {
		for _, load := range []float64{0.05, 2.0} {
			cfgs = append(cfgs, Config{
				Architecture:  DHetPNoC,
				BandwidthSet:  3,
				Traffic:       Traffic{Kind: UniformRandom},
				LoadScale:     load,
				Cycles:        3000,
				WarmupCycles:  150,
				Seed:          seed,
				EventCapacity: 256,
			})
		}
	}
	return cfgs
}

// reference runs cfg without the plan every entry point now goes
// through: lower, fabric.New, StepContext in windows of every cycles
// with observe called between them, Finish, lift. It is the solo driver
// the root package had before a run became a one-member plan, kept as the
// oracle Run, RunBatch and RunWithTrace are held to.
func reference(t testing.TB, cfg Config, every int64, observe func(Snapshot)) Result {
	t.Helper()
	fc, err := lower(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc = fc.WithDefaults()
	f, err := fabric.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	window := fc.Cycles
	if observe != nil && every < int64(window) {
		window = int(every)
	}
	for done := 0; done < fc.Cycles; {
		n := min(window, fc.Cycles-done)
		if err := f.StepContext(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		done += n
		if observe != nil && int64(done)%every == 0 {
			observe(snapshotOf(f))
		}
	}
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return fromFabricResult(res)
}

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

// TestBatchEquivalence is the batch engine's differential oracle: for
// every config in the corpus, the batched result — and Run's, a
// one-member plan — must be byte-identical, canonical Result encoding and
// the formatted event log included, to the config run alone on its own
// fabric. Batching must be purely a performance choice; any divergence
// means the checkpoint-fork fast path leaked state between members.
func TestBatchEquivalence(t *testing.T) {
	cfgs := equivalenceConfigs()
	batched, err := RunBatch(cfgs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batched) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results for %d configs", len(batched), len(cfgs))
	}
	for i, cfg := range cfgs {
		name := fmt.Sprintf("config %d (%v/set%d/seed%d/load%g)",
			i, cfg.Architecture, cfg.BandwidthSet, cfg.Seed, cfg.LoadScale)
		solo := reference(t, cfg, 0, nil)
		run, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		want := canonical(t, solo)
		for _, got := range []struct {
			path string
			res  Result
		}{{"RunBatch", batched[i]}, {"Run", run}} {
			if eb := canonical(t, got.res); !bytes.Equal(eb, want) {
				t.Errorf("%s: %s diverges from the solo run:\n%s: %s\nsolo: %s", name, got.path, got.path, eb, want)
			}
		}
		if len(solo.Events) == 0 {
			t.Errorf("%s: logged no events; the event-log comparison is vacuous", name)
		}
		if batched[i].PacketsDelivered == 0 {
			t.Errorf("%s: delivered nothing; the oracle is vacuous", name)
		}
	}
}

// TestBatchEquivalenceDedupes pins that the corpus above actually
// exercises the fast path: the 4 seed/load variants of each
// architecture × set point must collapse onto one fabric build.
func TestBatchEquivalenceDedupes(t *testing.T) {
	cfgs := equivalenceConfigs()
	plan, err := batch.NewPlan(lowerAll(t, cfgs), batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	wantGroups := len(cfgs) / 4 // 2 seeds × 2 loads per prefix
	if st.Groups != wantGroups {
		t.Errorf("plan built %d groups for %d members, want %d", st.Groups, st.Members, wantGroups)
	}
	if st.LargestGroup != 4 {
		t.Errorf("largest group has %d members, want 4", st.LargestGroup)
	}
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
// one; and each member is still byte-identical to its solo run.
func TestCustomTrafficSharesABuild(t *testing.T) {
	custom := func(seed uint64) Config {
		specs := make([]CoreSpec, 64)
		specs[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{1, 8, 9}}
		specs[5] = CoreSpec{RateGbps: 20, Dests: []int{4, 6}} // cluster-local only: no demand
		specs[12] = CoreSpec{RateGbps: 20}                    // every foreign core
		return Config{Traffic: CustomTraffic(specs), Cycles: 1500, WarmupCycles: 300, Seed: seed, EventCapacity: 64}
	}
	cfgs := []Config{custom(1), custom(9)}
	plan, err := batch.NewPlan(lowerAll(t, cfgs), batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(); st.Groups != 1 {
		t.Errorf("plan built %d groups for two custom configs differing only in seed, want 1", st.Groups)
	}
	batched, err := RunBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if got, want := canonical(t, batched[i]), canonical(t, reference(t, cfg, 0, nil)); !bytes.Equal(got, want) {
			t.Errorf("member %d diverges from its solo run:\nbatched: %s\nsolo:    %s", i, got, want)
		}
		if batched[i].PacketsDelivered == 0 {
			t.Errorf("member %d delivered nothing", i)
		}
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
