package hetpnoc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/traffic"
)

// flakyRemap is a remap pattern whose assignment is refused while its
// counter is positive, and counts it down. It holds the counter by
// pointer, so a failing run A and a succeeding run B given one flakyRemap
// share a build prefix.
type flakyRemap struct{ refusals *int }

func (flakyRemap) Name() string { return "flaky" }

func (r flakyRemap) Assign(set traffic.BandwidthSet) (traffic.Assignment, error) {
	if *r.refusals > 0 {
		*r.refusals--
		return traffic.Assignment{}, errors.New("flaky remap refused")
	}
	return traffic.Uniform{}.Assign(set)
}

// cancelRemap is a remap pattern that cancels a context when it fires,
// then assigns uniform traffic. It holds the cancel func by pointer, so
// two runs given one cancelRemap share a build prefix.
type cancelRemap struct{ cancel *context.CancelFunc }

func (cancelRemap) Name() string { return "cancel" }

func (c cancelRemap) Assign(set traffic.BandwidthSet) (traffic.Assignment, error) {
	(*c.cancel)()
	return traffic.Uniform{}.Assign(set)
}

// TestShelfNeitherPoisonsNorAliases: a group that is cancelled or fails
// drops its fabric instead of shelving it, so the next run of its build
// prefix, B, builds afresh and is the run N calls of Step give. (That a
// run forked off a shelved build is that run too, and leaves the earlier
// run's result alone, is TestPathEquivalence's Shelved column.)
func TestShelfNeitherPoisonsNorAliases(t *testing.T) {
	for _, c := range []struct {
		name     string
		flaky    bool      // A fails on a flakyRemap at cycle 2000
		cancelAt sim.Cycle // A is cancelled by a cancelRemap at this cycle
		bSeed    uint64
	}{
		{name: "A cancelled mid-run", cancelAt: 1500, bSeed: 2},
		{name: "A failed on a remap", flaky: true, bSeed: 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			refusals := 1 // A's remap only
			at := func(seed uint64) fabric.Config {
				fc := lowerAll(t, []Config{{Traffic: SkewedTraffic(3), Cycles: 3000, WarmupCycles: 500, Seed: seed, EventCapacity: 256}})[0]
				if c.flaky {
					fc.Remaps = []fabric.Remap{{At: 2000, Pattern: flakyRemap{&refusals}}}
				}
				if c.cancelAt > 0 {
					fc.Remaps = []fabric.Remap{{At: c.cancelAt, Pattern: cancelRemap{&cancel}}}
				}
				return fc.WithDefaults()
			}
			plan, err := batch.NewPlan([]fabric.Config{at(1)}, batch.Options{})
			if err != nil {
				t.Fatal(err)
			}
			switch _, err := plan.Run(ctx); {
			case c.flaky && (err == nil || !strings.Contains(err.Error(), "flaky remap refused")):
				t.Fatalf("A returned %v, want its remap refused", err)
			case !c.flaky && !errors.Is(err, context.Canceled):
				t.Fatalf("A returned %v, want context.Canceled", err)
			}
			b := &scenario{fc: at(c.bSeed)}
			b.same(t, "B", planned(t, []fabric.Config{b.fc}, batch.Options{}, 1, 0)[0].outcome(t))
		})
	}
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
		want[seed] = (&scenario{fc: lowerAll(t, []Config{at(seed)})[0].WithDefaults()}).reference(t).json
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

// BenchmarkRunProbed measures Run with the probe off and on (a row every
// 1,000 cycles) at the run-lightload point (uniform traffic at 5 % load)
// and the run-saturated one (skewed 3 at full load), BW set 1 and 10,000
// cycles, each forked off its shelved build. A row's cycle bounds
// StepContext's idle jump, so the light pair prices the probe where most
// cycles are jumped.
func BenchmarkRunProbed(b *testing.B) {
	for _, point := range []struct {
		name string
		cfg  Config
	}{
		{"light", Config{Traffic: UniformTraffic(), LoadScale: 0.05}},
		{"saturated", Config{Traffic: SkewedTraffic(3)}},
	} {
		for _, every := range []int64{0, 1000} {
			b.Run(fmt.Sprintf("%s/probe=%d", point.name, every), func(b *testing.B) {
				cfg := point.cfg
				cfg.ProbeEvery = every
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
			})
		}
	}
}
