package fabric

import (
	"context"
	"errors"
	"testing"

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

// TestLoadedRunsSkipOnlyTheLeadIn: StepContext jumps over no cycle of a
// loaded run but those before its first packet, and over none of the
// torus, which keeps no activity set. (That jumps leave every result as
// N × Step's is the root TestPathEquivalence's.)
func TestLoadedRunsSkipOnlyTheLeadIn(t *testing.T) {
	saturated, bursty := lightLoad(DHetPNoC, traffic.BWSet1), lightLoad(DHetPNoC, traffic.BWSet1)
	saturated.Pattern, saturated.LoadScale, saturated.Cycles = traffic.Skewed{Level: 3}, 1, 4000
	bursty.Pattern, bursty.LoadScale = traffic.Bursty{Base: traffic.Uniform{}, Factor: 4}, 0.25
	for _, cfg := range []Config{saturated, bursty, dropStormConfig(DHetPNoC), lightLoad(TorusPNoC, traffic.BWSet1)} {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lead := int64(f.nextGen)
		if f.torus != nil {
			lead = 0
		}
		if err := f.StepContext(context.Background(), cfg.Cycles); err != nil || f.SkippedCycles() != lead {
			t.Errorf("%v/%s: %v, skipped %d cycles, want the %d before the first packet", cfg.Arch, cfg.Pattern.Name(), err, f.SkippedCycles(), lead)
		}
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
// to the next packet, thousands of cycles away. A context cancelled
// before the call stops the fabric where it stands.
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
		for _, polls := range []int{1, 3} { // 1: cancelled before the call
			f, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = f.StepContext(&canceledAtPoll{Context: context.Background(), n: polls}, 100*CancelCheckInterval)
			if want := (polls - 1) * CancelCheckInterval; !errors.Is(err, context.Canceled) || int(f.Now()) != want {
				t.Fatalf("%s: canceled at poll %d, returned %v at cycle %d, want context.Canceled at %d", tc.name, polls, err, f.Now(), want)
			}
		}
	}
}

// TestSkipIdleGuards: each of the things that make a cycle not idle
// stops the jump by itself — a bit on any activity set (a wake bit left
// behind by a port included), a retransmission waiting out its back-off,
// a buffered flit — even where no run of the root TestPathEquivalence
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
