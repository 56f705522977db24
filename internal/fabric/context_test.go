package fabric

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hetpnoc/internal/event"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/traffic"
)

// lightLoad is the run-lightload operating point of BENCHMARK.json:
// uniform traffic at 5 % load, where every source emits in step once in
// a thousand cycles or more and the chip sits empty in between.
func lightLoad(arch Arch, set traffic.BandwidthSet) Config {
	return Config{
		Arch:          arch,
		Set:           set,
		Pattern:       traffic.Uniform{},
		LoadScale:     0.05,
		Cycles:        10000,
		WarmupCycles:  1000,
		Seed:          1,
		EventCapacity: 1 << 12,
	}
}

// outcome is everything of a finished run the two ways of stepping it
// must agree on.
type outcome struct {
	Result Result
	Events []event.Event
	Totals Totals
}

func finish(t *testing.T, f *Fabric) outcome {
	t.Helper()
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return outcome{res, f.Events().Events(), f.Totals()}
}

// skippedAt steps a fresh fabric of cfg to each of cycles in turn and
// reports, for each, whether StepContext advances over that one cycle
// without calling Step.
func skippedAt(t *testing.T, cfg Config, cycles ...sim.Cycle) []bool {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out := make([]bool, len(cycles))
	for i, at := range cycles {
		if err := f.StepContext(ctx, int(at-f.Now())); err != nil {
			t.Fatal(err)
		}
		before := f.SkippedCycles()
		if err := f.StepContext(ctx, 1); err != nil {
			t.Fatal(err)
		}
		out[i] = f.SkippedCycles() == before+1
	}
	return out
}

// TestStepContextMatchesStep holds StepContext, which jumps over the
// cycles in which nothing can happen, to Step, which simulates every one
// of them: the same result, event log and packet totals however the run
// is cut into windows. SkippedCycles keeps it honest — the light-load
// runs must be mostly jumps, and a run whose sources never rest must
// jump over nothing but the cycles before its first packet.
func TestStepContextMatchesStep(t *testing.T) {
	type testCase struct {
		name string
		cfg  Config
		// light runs must skip most of their cycles; the others none
		// after their first packet.
		light bool
	}
	var cases []testCase
	for _, arch := range []Arch{DHetPNoC, Firefly} {
		for _, tc := range bandwidthSets {
			cases = append(cases, testCase{"light/" + arch.String() + "/" + tc.name, lightLoad(arch, tc.set), true})
		}
	}

	// A remap in the middle of the first idle span (the sources' first
	// packets are due at cycle 1023): the jump must stop for it, and the
	// new sources count from its cycle.
	remapped := lightLoad(DHetPNoC, traffic.BWSet3)
	remapped.Remaps = []Remap{{At: 700, Pattern: traffic.Skewed{Level: 2}}}
	if got, want := skippedAt(t, remapped, 699, 700, 701), []bool{true, false, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cycles 699-701 around the remap skipped = %v, want %v: the remap no longer falls inside an idle span", got, want)
	}
	// So does the start of measurement, in all of the light runs.
	if got, want := skippedAt(t, cases[0].cfg, 999, 1000, 1001), []bool{true, false, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cycles 999-1001 around the warm-up boundary skipped = %v, want %v", got, want)
	}

	bursty := lightLoad(DHetPNoC, traffic.BWSet1)
	bursty.Pattern = traffic.Bursty{Base: traffic.Uniform{}, Factor: 4}
	bursty.LoadScale = 0.25
	dropStorm := dropStormConfig(DHetPNoC)
	dropStorm.EventCapacity = 1 << 12
	saturated := lightLoad(DHetPNoC, traffic.BWSet1)
	saturated.Pattern, saturated.LoadScale, saturated.Cycles = traffic.Skewed{Level: 3}, 1, 4000
	cases = append(cases,
		testCase{"light/remap-in-idle-span", remapped, true},
		testCase{"bursty", bursty, false},
		testCase{"torus", lightLoad(TorusPNoC, traffic.BWSet1), false},
		testCase{"drop-storm", dropStorm, false},
		testCase{"saturated", saturated, false},
	)

	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Cycles before any source's first packet are idle in every
			// run; a bursty source allows none, the torus is never jumped.
			lead := int64(ref.nextGen)
			if ref.torus != nil {
				lead = 0
			}
			for i := 0; i < tc.cfg.Cycles; i++ {
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if ref.SkippedCycles() != 0 {
				t.Fatalf("Step skipped %d cycles", ref.SkippedCycles())
			}
			want := finish(t, ref)
			if want.Totals.Delivered == 0 {
				t.Fatal("the reference run delivered nothing")
			}

			for _, window := range []int{1, 7, 1024, tc.cfg.Cycles} {
				f, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for done := 0; done < tc.cfg.Cycles; done += window {
					if err := f.StepContext(ctx, min(window, tc.cfg.Cycles-done)); err != nil {
						t.Fatal(err)
					}
				}
				if got := int(f.Now()); got != tc.cfg.Cycles {
					t.Fatalf("window %d: stopped at cycle %d of %d", window, got, tc.cfg.Cycles)
				}
				if got := finish(t, f); !reflect.DeepEqual(got, want) {
					t.Errorf("window %d: StepContext diverges from Step:\ngot  %+v\nwant %+v", window, got.Totals, want.Totals)
				}
				switch skipped := f.SkippedCycles(); {
				case tc.light && skipped < int64(tc.cfg.Cycles)/2:
					t.Errorf("window %d: skipped %d of %d cycles of a light-load run; the comparison is vacuous", window, skipped, tc.cfg.Cycles)
				case !tc.light && skipped != lead:
					t.Errorf("window %d: skipped %d cycles, want only the %d before the first packet", window, skipped, lead)
				}
			}
		})
	}
}

// TestRunContextMatchesRun: threading a background context through the
// chunked cycle loop must not perturb the simulation — RunContext and
// Run produce identical results, including at cycle counts that are not
// multiples of CancelCheckInterval.
func TestRunContextMatchesRun(t *testing.T) {
	for _, cycles := range []int{1500, CancelCheckInterval, CancelCheckInterval*2 + 7} {
		mk := func() *Fabric {
			f, err := New(Config{Pattern: traffic.Uniform{}, Cycles: cycles, WarmupCycles: 500, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		a, err := mk().Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cycles=%d: RunContext diverges from Run", cycles)
		}
	}
}

// TestRunContextCancel: a canceled context aborts the run with its error
// before the full cycle budget is spent, and the fabric survives at a
// cycle boundary.
func TestRunContextCancel(t *testing.T) {
	f, err := New(Config{Pattern: traffic.Uniform{}, Cycles: 1 << 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if f.Now() != 0 {
		t.Fatalf("pre-canceled run advanced to cycle %d", f.Now())
	}
}

// canceledAtPoll is a context that reports cancellation from its n-th
// Err call on.
type canceledAtPoll struct {
	context.Context
	polls, n int
}

func (c *canceledAtPoll) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestStepContextCancelBound: the context is polled every
// CancelCheckInterval simulated cycles, so a cancellation that arrives
// between two polls is honoured within one interval — also at light
// load, where the interval is a single jump that would otherwise run on
// to the next packet, thousands of cycles away.
func TestStepContextCancelBound(t *testing.T) {
	light := lightLoad(Firefly, traffic.BWSet1)
	light.Cycles = 1 << 30
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"loaded", Config{Pattern: traffic.Uniform{}, Cycles: 1 << 30, Seed: 3}},
		{"light", light},
	} {
		f, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &canceledAtPoll{Context: context.Background(), n: 3}
		err = f.StepContext(ctx, 100*CancelCheckInterval)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", tc.name, err)
		}
		if got := int(f.Now()); got != 2*CancelCheckInterval {
			t.Fatalf("%s: canceled at the third poll, stopped at cycle %d, want %d", tc.name, got, 2*CancelCheckInterval)
		}
	}
}

// TestSkipIdleGuards: each of the things that make a cycle not idle
// stops the jump by itself — a bit on any activity set (a wake bit left
// behind by a port included), a retransmission waiting out its back-off,
// a buffered flit — even where no run of TestStepContextMatchesStep
// happens to meet one of them alone.
func TestSkipIdleGuards(t *testing.T) {
	f, err := New(lightLoad(DHetPNoC, traffic.BWSet1))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name       string
		set, clear func()
	}{
		{"injActive", func() { f.injActive.Set(3) }, func() { f.injActive.Clear(3) }},
		{"txActive", func() { f.txActive.Set(3) }, func() { f.txActive.Clear(3) }},
		{"routerActive", func() { f.routerActive.Set(70) }, func() { f.routerActive.Clear(70) }},
		{"ejectActive", func() { f.ejectActive.Set(3) }, func() { f.ejectActive.Clear(3) }},
		{"retx", func() { f.retx = append(f.retx, retransmit{due: 50, pkt: f.pool.Get()}) }, func() { f.pool.Put(f.retx[0].pkt); f.retx = f.retx[:0] }},
		{"occupancy", func() { f.occupancy = 1 }, func() { f.occupancy = 0 }},
	} {
		g.set()
		if err := f.StepContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if f.SkippedCycles() != 0 {
			t.Fatalf("cycle %d skipped with %s not idle", f.Now()-1, g.name)
		}
		g.clear()
	}
	if err := f.StepContext(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if f.SkippedCycles() != 10 {
		t.Fatalf("skipped %d of 10 idle cycles", f.SkippedCycles())
	}
}
