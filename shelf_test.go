package hetpnoc

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// fresh runs fc on a fabric of its own — fabric.New, one StepContext,
// Finish — and returns the lifted result and the finished fabric, whose
// whole-run Totals and pending retransmissions a Result does not carry.
// It is the reference a run off a shelved build is held to.
func fresh(t *testing.T, fc fabric.Config) (Result, *fabric.Fabric) {
	t.Helper()
	fc = fc.WithDefaults()
	f, err := fabric.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StepContext(context.Background(), fc.Cycles); err != nil {
		t.Fatal(err)
	}
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return fromFabricResult(res), f
}

// planned runs fc the way run does — a one-member batch.Plan, lifted —
// with an observer every `every` cycles that reads the fabric's Totals
// (at the last cycle too, before Finish) and, from cycle cancelAt on,
// cancels the run.
func planned(fc fabric.Config, every, cancelAt int64) (Result, fabric.Totals, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var totals fabric.Totals
	plan, err := batch.NewPlan([]fabric.Config{fc}, batch.Options{Every: every, Observe: func(_ int, f *fabric.Fabric) {
		totals = f.Totals()
		if cancelAt > 0 && int64(f.Now()) >= cancelAt {
			cancel()
		}
	}})
	if err != nil {
		return Result{}, totals, err
	}
	out, err := plan.Run(ctx)
	if err != nil {
		return Result{}, totals, err
	}
	return fromFabricResult(out[0]), totals, nil
}

// seedFlakyRemap is a remap pattern whose assignment is refused when the
// run's RNG, at the remap, draws an odd number: whether a run fails is up
// to its seed, so a failing A and a succeeding B share one build prefix.
type seedFlakyRemap struct{}

func (seedFlakyRemap) Name() string { return "seed-flaky" }

func (seedFlakyRemap) Assign(topo topology.Topology, set traffic.BandwidthSet, rng *sim.RNG) (traffic.Assignment, error) {
	if rng.Uint64()%2 == 1 {
		return traffic.Assignment{}, errors.New("seed-flaky remap refused")
	}
	return traffic.Uniform{}.Assign(topo, set, rng)
}

// shelfCase is one scenario of TestShelfNeitherPoisonsNorAliases: a
// config family whose seed and load vary while the build prefix does not,
// the two points A and B of it, and how A ends.
type shelfCase struct {
	name   string
	cfg    Config
	remaps []TrafficRemap
	// flaky schedules seedFlakyRemap at this cycle (public Config cannot
	// express a failing remap); A's seed is chosen so it fails there and
	// B's so it does not.
	flaky   sim.Cycle
	aSeed   uint64
	aLoad   float64
	bSeed   uint64
	bLoad   float64
	cancelA int64                                   // cancel A at this cycle
	guard   func(t *testing.T, a, b *fabric.Fabric) // on the references
}

func (c shelfCase) lowered(t *testing.T, seed uint64, load float64) fabric.Config {
	t.Helper()
	cfg := c.cfg
	cfg.Seed, cfg.LoadScale = seed, load
	fc, err := lower(cfg, c.remaps)
	if err != nil {
		t.Fatal(err)
	}
	if c.flaky > 0 {
		fc.Remaps = append(fc.Remaps, fabric.Remap{At: c.flaky, Pattern: seedFlakyRemap{}})
	}
	return fc.WithDefaults()
}

// public runs c at (seed, load) through Run, or RunWithTrace when it has
// remaps.
func (c shelfCase) public(seed uint64, load float64) (Result, error) {
	cfg := c.cfg
	cfg.Seed, cfg.LoadScale = seed, load
	if len(c.remaps) == 0 {
		return Run(cfg)
	}
	return RunWithTrace(cfg, c.remaps, int64(cfg.Cycles), func(Snapshot) {})
}

func shelfCases() []shelfCase {
	base := Config{Cycles: 3000, WarmupCycles: 500, EventCapacity: 256}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	custom := make([]CoreSpec, 64)
	custom[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{1, 8, 9}}
	custom[12] = CoreSpec{RateGbps: 20}
	custom[40] = CoreSpec{RateGbps: 80, Dests: []int{3}}
	light := with(func(c *Config) { c.Cycles = 6000; c.BandwidthSet = 3 })
	return []shelfCase{
		{
			name: "drop storm", cfg: with(func(c *Config) { c.Traffic = HotspotTraffic(0.5, 3) }),
			aSeed: 3, aLoad: 2, bSeed: 5, bLoad: 1.5,
			guard: func(t *testing.T, a, b *fabric.Fabric) {
				if a.PendingRetransmits() == 0 || b.Totals().DroppedRX == 0 {
					t.Errorf("A ends with %d retransmissions pending and B drops %d packets: want both > 0", a.PendingRetransmits(), b.Totals().DroppedRX)
				}
			},
		},
		{
			name: "light load with a remap", cfg: light,
			remaps: []TrafficRemap{{AtCycle: 3500, Traffic: SkewedTraffic(2)}},
			aSeed:  4, aLoad: 0.05, bSeed: 6, bLoad: 0.1,
			guard: func(t *testing.T, a, b *fabric.Fabric) {
				if 2*b.SkippedCycles() < int64(light.Cycles) {
					t.Errorf("B skipped %d of %d cycles: want most of the run jumped", b.SkippedCycles(), light.Cycles)
				}
			},
		},
		{name: "bursty", cfg: with(func(c *Config) { c.Traffic = Traffic{Kind: UniformRandom, Burstiness: 4} }), aSeed: 1, aLoad: 1, bSeed: 2, bLoad: 0.5},
		{name: "torus", cfg: with(func(c *Config) { c.Architecture = TorusPNoC }), aSeed: 1, aLoad: 1, bSeed: 2, bLoad: 1.5},
		{name: "custom", cfg: with(func(c *Config) { c.Traffic = CustomTraffic(custom) }), aSeed: 1, aLoad: 1, bSeed: 9, bLoad: 2},
		{name: "A cancelled mid-run", cfg: with(func(c *Config) { c.Traffic = SkewedTraffic(3) }), aSeed: 1, aLoad: 1, bSeed: 2, bLoad: 1, cancelA: 1500},
		{name: "A failed on a remap", cfg: base, flaky: 2000, aLoad: 1, bLoad: 1},
	}
}

// TestShelfNeitherPoisonsNorAliases: a run whose build prefix an earlier
// run left on the shelf (batch's pristine builds kept across plans) is
// the run a fresh fabric gives. For each scenario A runs first, then B —
// same prefix, another seed or load. B's result bytes and event log (every
// case logs events) and its whole-run Totals equal a fresh fabric.New →
// StepContext → Finish of B, on a plan observed at its last cycle and
// through the public entry point; A's result bytes do not change when B
// reuses A's fabric. A B after a successful A forks A's shelved build and
// builds nothing; a B after a cancelled or failed A builds, because such
// a group drops its fabric.
func TestShelfNeitherPoisonsNorAliases(t *testing.T) {
	for _, c := range shelfCases() {
		t.Run(c.name, func(t *testing.T) {
			if c.flaky > 0 {
				c.aSeed, c.bSeed = flakySeeds(t, c)
			}
			fa, fb := c.lowered(t, c.aSeed, c.aLoad), c.lowered(t, c.bSeed, c.bLoad)
			refB, fabB := fresh(t, fb)
			if len(refB.Events) == 0 {
				t.Fatal("B logs no events; the event-log comparison is vacuous")
			}

			var (
				resA Result
				encA []byte
			)
			switch {
			case c.flaky > 0:
				if _, _, err := planned(fa, int64(fa.Cycles), 0); err == nil || !strings.Contains(err.Error(), "seed-flaky remap refused") {
					t.Fatalf("A returned %v, want its remap refused", err)
				}
			case c.cancelA > 0:
				if _, _, err := planned(fa, c.cancelA, c.cancelA); !errors.Is(err, context.Canceled) {
					t.Fatalf("A returned %v, want context.Canceled", err)
				}
			default:
				refA, fabA := fresh(t, fa)
				if c.guard != nil {
					c.guard(t, fabA, fabB)
				}
				var err error
				if resA, err = c.public(c.aSeed, c.aLoad); err != nil {
					t.Fatal(err)
				}
				if encA = canonical(t, resA); !bytes.Equal(encA, canonical(t, refA)) {
					t.Fatalf("A diverges from its fresh run")
				}
			}

			builds, forks := batch.Counters()
			resB, totals, err := planned(fb, int64(fb.Cycles), 0)
			if err != nil {
				t.Fatal(err)
			}
			nowBuilds, nowForks := batch.Counters()
			wantBuilds, wantForks := int64(0), int64(1)
			if c.flaky > 0 || c.cancelA > 0 {
				wantBuilds, wantForks = 1, 0
			}
			if nowBuilds-builds != wantBuilds || nowForks-forks != wantForks {
				t.Errorf("B cost %d builds and %d forks, want %d and %d", nowBuilds-builds, nowForks-forks, wantBuilds, wantForks)
			}
			if got, want := canonical(t, resB), canonical(t, refB); !bytes.Equal(got, want) {
				t.Errorf("B diverges from its fresh run:\nshelf: %s\nfresh: %s", got, want)
			}
			if totals != fabB.Totals() {
				t.Errorf("B's whole-run totals %+v, fresh run %+v", totals, fabB.Totals())
			}
			if c.flaky == 0 {
				pub, err := c.public(c.bSeed, c.bLoad)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(canonical(t, pub), canonical(t, refB)) {
					t.Errorf("B through the public entry point diverges from its fresh run")
				}
			}
			if encA != nil && !bytes.Equal(canonical(t, resA), encA) {
				t.Errorf("A's result changed when B ran on A's fabric")
			}
		})
	}
}

// flakySeeds returns a seed whose run c's flaky remap refuses and one it
// lets through.
func flakySeeds(t *testing.T, c shelfCase) (failing, passing uint64) {
	t.Helper()
	for seed := uint64(1); seed < 64 && (failing == 0 || passing == 0); seed++ {
		f, err := fabric.New(c.lowered(t, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		switch _, err := f.Run(); {
		case err != nil && failing == 0:
			failing = seed
		case err == nil && passing == 0:
			passing = seed
		}
	}
	if failing == 0 || passing == 0 {
		t.Fatal("no seed splits the flaky remap")
	}
	return failing, passing
}

// TestShelfConcurrentTakes (run under -race by make race-quick): two
// goroutines run the same build prefix at once, again and again, with
// that prefix already on the shelf. A take is exclusive, so one forks the
// shelved build while the other builds its own, and neither sees the
// other's fabric: both results equal fresh runs.
func TestShelfConcurrentTakes(t *testing.T) {
	cfg := Config{Traffic: SkewedTraffic(2), Cycles: 1500, WarmupCycles: 300, EventCapacity: 64}
	at := func(seed uint64) Config {
		c := cfg
		c.Seed = seed
		return c
	}
	if _, err := Run(at(1)); err != nil { // shelve the prefix
		t.Fatal(err)
	}
	const rounds = 4
	want := make(map[uint64][]byte)
	for seed := uint64(2); seed < 2+2*rounds; seed++ {
		want[seed] = canonical(t, reference(t, at(seed), 0, nil))
	}
	builds, _ := batch.Counters()
	for round := range rounds {
		var wg sync.WaitGroup
		got := make([][]byte, 2)
		errs := make([]error, 2)
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(at(uint64(2 + 2*round + w)))
				if errs[w] = err; err == nil {
					got[w], errs[w] = res.CanonicalJSON()
				}
			}()
		}
		wg.Wait()
		for w := range 2 {
			seed := uint64(2 + 2*round + w)
			if errs[w] != nil {
				t.Fatalf("round %d, seed %d: %v", round, seed, errs[w])
			}
			if !bytes.Equal(got[w], want[seed]) {
				t.Errorf("round %d, seed %d diverges from its fresh run", round, seed)
			}
		}
	}
	// Only a round that finds one entry for two takers builds; both put
	// their fabric back, so every later round finds two.
	if now, _ := batch.Counters(); now-builds > 1 {
		t.Errorf("%d rounds built %d fabrics, want at most 1", rounds, now-builds)
	}
}

// BenchmarkRunShelved measures Run of a run-lightload panel member
// (uniform traffic at 5 % load, BW set 1, 10,000 cycles) whose build
// prefix is on the shelf: one fork of the kept build, the run and the
// result, no fabric.New. allocs/op counts the whole call.
func BenchmarkRunShelved(b *testing.B) {
	cfg := Config{Traffic: UniformTraffic(), LoadScale: 0.05}
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 2
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
