package hetpnoc

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/event"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/traffic"
)

// scenario is one run of the corpus: a public config, lowered and
// defaulted into fc, a checkpoint cycle and the guard that makes its
// cells mean something.
type scenario struct {
	name   string
	cfg    Config
	remaps []TrafficRemap
	// tweak sets what Config cannot express; a tweaked scenario is a hole
	// of the public paths.
	tweak func(*fabric.Config)
	cut   int // 0 < cut < Cycles
	guard func(t *testing.T, sc *scenario)

	fc    fabric.Config
	index int // in the corpus

	once  sync.Once
	ref   outcome
	snaps []Snapshot // the reference's snapshot after each cycle: snaps[c-1] at cycle c; nil until it ran
}

func corpus(t *testing.T) []*scenario {
	light := Config{Architecture: DHetPNoC, BandwidthSet: 3, Traffic: UniformTraffic(), LoadScale: 0.05, Cycles: 6000, WarmupCycles: 1000, Seed: 5, EventCapacity: 1 << 12}
	custom := make([]CoreSpec, 64)
	custom[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{1, 8, 9}}
	custom[5] = CoreSpec{RateGbps: 20, Dests: []int{4, 6}} // cluster-local only: no demand
	custom[12] = CoreSpec{RateGbps: 20}                    // every foreign core
	custom[40] = CoreSpec{RateGbps: 80, Dests: []int{3}}
	all := []*scenario{
		// BENCHMARK.json's run-lightload point: every source emits in step
		// once in 1,024 cycles (first at 1023) and the chip drains within a
		// hundred, so cycles 500, 2500 and 2600 lie inside jumped spans.
		{name: "light", cfg: light, cut: 2600, guard: func(t *testing.T, sc *scenario) {
			if f := stepped(t, sc.fc, sc.fc.Cycles); 2*f.SkippedCycles() < int64(sc.fc.Cycles) {
				t.Errorf("skipped %d of %d cycles: want most of the run jumped", f.SkippedCycles(), sc.fc.Cycles)
			}
			requireSkipped(t, sc.fc, []int{499, 500, 2499, 2500, 2599, 2600})
			if sc.snaps[len(sc.snaps)-1].TokenRotations == 0 {
				t.Error("the token never completed a rotation")
			}
		}},
		// A jump must stop for the start of measurement and for a remap
		// due after the cut, inside the span the cut lies in.
		{name: "light-remap", cfg: light, remaps: []TrafficRemap{{AtCycle: 2800, Traffic: SkewedTraffic(2)}}, cut: 2600, guard: func(t *testing.T, sc *scenario) {
			requireSkipped(t, sc.fc, []int{999, 1000, 1001, 2599, 2600, 2799, 2800, 2801}, 1000, 2800)
		}},
		// Token DBA, selected-wavelength gating and headers blocked on
		// VC-exhausted outputs live across the cut; a remap follows it.
		{name: "saturated", cfg: Config{Architecture: DHetPNoC, Traffic: SkewedTraffic(3), LoadScale: 2, Cycles: 3000, WarmupCycles: 500, Seed: 7, EventCapacity: 256},
			remaps: []TrafficRemap{{AtCycle: 2000, Traffic: UniformTraffic()}}, cut: 1200, guard: func(t *testing.T, sc *scenario) {
				if f := stepped(t, sc.fc, sc.cut); f.BlockedHeaders() == 0 {
					t.Errorf("no header waits on a VC-exhausted output at cycle %d", sc.cut)
				}
				requireTransfersAcross(t, sc.fc, sim.Cycle(sc.cut))
			}},
		// Two VCs per port and half the traffic aimed at one cluster: a few
		// hundred RX drops. The packet dropped at 2029 is retried at 2093,
		// the remap's cycle, so both fire on one cycle after the cut.
		{name: "drop-storm", cfg: Config{Architecture: DHetPNoC, Traffic: HotspotTraffic(0.5, 3), LoadScale: 1.5, Cycles: 3000, WarmupCycles: 1000, Seed: 11, EventCapacity: 1 << 12},
			remaps: []TrafficRemap{{AtCycle: 2093, Traffic: UniformTraffic()}}, tweak: func(fc *fabric.Config) { fc.VCsPerPort = 2 }, cut: 2080,
			guard: func(t *testing.T, sc *scenario) {
				for _, at := range []int{sc.cut, 1500} { // 1500: a restore-chain checkpoint
					if f := stepped(t, sc.fc, at); f.PendingRetransmits() == 0 {
						t.Errorf("no retransmission is pending at cycle %d", at)
					}
				}
				dropAt := sim.Cycle(sc.remaps[0].AtCycle) - sim.Cycle(sc.fc.RetryBackoffCycles)
				if !slices.ContainsFunc(fullLog(t, sc.fc), func(e event.Event) bool { return e.Kind == event.Retransmit && e.Cycle == dropAt }) {
					t.Errorf("no packet dropped at cycle %d is retried on the remap's cycle", dropAt)
				}
			}},
		{name: "bursty", cfg: Config{Traffic: Traffic{Kind: UniformRandom, Burstiness: 4}, LoadScale: 0.5, Cycles: 3000, WarmupCycles: 500, Seed: 2, EventCapacity: 256}, cut: 1300},
		// Circuit switching: link ownership and path setups cross the cut.
		{name: "torus", cfg: Config{Architecture: TorusPNoC, Traffic: UniformTraffic(), LoadScale: 1.5, Cycles: 2500, WarmupCycles: 500, Seed: 11, EventCapacity: 1 << 12}, cut: 1300,
			guard: func(t *testing.T, sc *scenario) {
				requireTransfersAcross(t, sc.fc, sim.Cycle(sc.cut))
				if f := stepped(t, sc.fc, sc.fc.Cycles); f.SkippedCycles() != 0 {
					t.Errorf("StepContext jumped %d torus cycles; the torus keeps no activity set", f.SkippedCycles())
				}
			}},
		{name: "custom", cfg: Config{Traffic: CustomTraffic(custom), Cycles: 3000, WarmupCycles: 500, Seed: 9, EventCapacity: 256}, cut: 1500},
		// The cut lies in the warm-up, inside the span before the first
		// packet (8191): the jump must stop for measurement after a restore.
		{name: "prewarmup", cfg: Config{Architecture: Firefly, Traffic: UniformTraffic(), LoadScale: 0.05, Cycles: 9000, WarmupCycles: 1000, Seed: 3, EventCapacity: 256}, cut: 600,
			guard: func(t *testing.T, sc *scenario) {
				if f := stepped(t, sc.fc, sc.fc.WarmupCycles+1); sc.cut >= sc.fc.WarmupCycles || f.Totals().Injected != 0 {
					t.Errorf("want cut %d < warm-up %d < first packet; %d injected by cycle %d", sc.cut, sc.fc.WarmupCycles, f.Totals().Injected, f.Now())
				}
				requireSkipped(t, sc.fc, []int{sc.cut - 1, sc.cut})
			}},
	}
	// Every architecture at every bandwidth set under load, cut in the
	// warm-up with transfers in flight.
	for _, arch := range []Architecture{Firefly, DHetPNoC, TorusPNoC} {
		for set := 1; set <= 3; set++ {
			all = append(all, &scenario{name: fmt.Sprintf("uniform-%v-bw%d", arch, set), cut: 100,
				cfg: Config{Architecture: arch, BandwidthSet: set, Traffic: UniformTraffic(), LoadScale: 1, Cycles: 600, WarmupCycles: 150, Seed: 7, EventCapacity: 256}})
		}
	}
	for i, sc := range all {
		fc, err := lower(sc.cfg, sc.remaps)
		if err != nil {
			t.Fatal(err)
		}
		if sc.tweak != nil {
			sc.tweak(&fc)
		}
		sc.fc, sc.index = fc.WithDefaults(), i
	}
	return all
}

// outcome is what two paths of one scenario must agree on. totals is nil
// where a path cannot read them: the public entry points, an observer
// that does not fire at the run's last cycle.
type outcome struct {
	json   []byte
	events []string
	totals *fabric.Totals
}

func outcomeOf(t testing.TB, r Result, totals *fabric.Totals) outcome {
	t.Helper()
	return outcome{canonical(t, r), r.Events, totals}
}

// finished closes f's run.
func finished(t testing.TB, f *fabric.Fabric) outcome {
	t.Helper()
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	totals := f.Totals()
	return outcomeOf(t, fromFabricResult(res), &totals)
}

// reference runs sc by N calls of Step, once per test, recording the
// snapshot after every cycle for the observer paths.
func (sc *scenario) reference(t *testing.T) outcome {
	t.Helper()
	sc.once.Do(func() { sc.ref, sc.snaps = stepRun(t, sc.fc) })
	if sc.snaps == nil {
		t.Fatal("the Step reference failed in another cell")
	}
	return sc.ref
}

// stepRun runs fc by N calls of Step, which jumps nothing, taking a
// snapshot after each.
func stepRun(t *testing.T, fc fabric.Config) (outcome, []Snapshot) {
	f := stepped(t, fc, 0)
	snaps := make([]Snapshot, fc.Cycles)
	for c := range snaps {
		if err := f.Step(); err != nil || f.SkippedCycles() != 0 {
			t.Fatalf("cycle %d: Step returned %v and has skipped %d cycles", c, err, f.SkippedCycles())
		}
		snaps[c] = snapshotOf(f)
	}
	return finished(t, f), snaps
}

// same requires got to be sc's reference outcome.
func (sc *scenario) same(t *testing.T, what string, got outcome) {
	t.Helper()
	want := sc.reference(t)
	if !slices.Equal(got.events, want.events) {
		i := 0
		for i < min(len(got.events), len(want.events)) && got.events[i] == want.events[i] {
			i++
		}
		t.Errorf("%s: the event log diverges from Step's at event %d of %d (Step's: %d):\ngot:  %q\nwant: %q",
			what, i, len(got.events), len(want.events), got.events[i:min(i+1, len(got.events))], want.events[i:min(i+1, len(want.events))])
		return
	}
	if !bytes.Equal(got.json, want.json) {
		t.Errorf("%s: result diverges from Step's:\ngot:  %s\nwant: %s", what, got.json, want.json)
	}
	if got.totals != nil && *got.totals != *want.totals {
		t.Errorf("%s: whole-run totals %+v, Step's %+v", what, *got.totals, *want.totals)
	}
}

// path is one way of running a scenario to its outcome. A serial path
// asserts batch.Counters deltas, so it never runs beside another cell.
type path struct {
	name         string
	serial       bool
	public, solo bool // takes a public Config; takes no remaps
	run          func(t *testing.T, sc *scenario) outcome
}

// hole says why sc cannot take p, or "" if it can.
func (p path) hole(sc *scenario) string {
	switch {
	case p.public && sc.tweak != nil:
		return "Config cannot express the scenario's fabric tweak"
	case p.solo && len(sc.remaps) > 0:
		return "only RunWithTrace takes remaps"
	}
	return ""
}

func paths(all []*scenario) []path {
	ps := []path{{name: "Step", run: func(t *testing.T, sc *scenario) outcome {
		got, _ := stepRun(t, sc.fc)
		return got
	}}}
	for i, w := range []int{1, 7, 1024, 1 << 30} {
		ps = append(ps, path{name: []string{"StepContext-w1", "StepContext-w7", "StepContext-w1024", "StepContext-whole"}[i], run: func(t *testing.T, sc *scenario) outcome {
			f := stepped(t, sc.fc, 0)
			for done := 0; done < sc.fc.Cycles; done += w {
				advance(t, f, min(w, sc.fc.Cycles-done))
			}
			return finished(t, f)
		}})
	}
	ps = append(ps,
		path{name: "Checkpoint", run: checkpointPath},
		// 500-cycle legs, each stepped once as a throwaway that dirties
		// every piece of state, rewound and stepped again for real.
		path{name: "RestoreChain", run: func(t *testing.T, sc *scenario) outcome {
			f := stepped(t, sc.fc, 0)
			for done := 0; done < sc.fc.Cycles; done += 500 {
				n, cp := min(500, sc.fc.Cycles-done), f.Checkpoint()
				advance(t, f, n)
				if err := f.Restore(cp); err != nil {
					t.Fatal(err)
				}
				advance(t, f, n)
			}
			return finished(t, f)
		}},
		// A one-member plan whose group builds: the member runs on the
		// fresh build.
		path{name: "Plan", serial: true, run: func(t *testing.T, sc *scenario) outcome {
			unshelve(t)
			return planned(t, []fabric.Config{sc.fc}, batch.Options{}, 1, 0)[0].outcome(t)
		}},
		// A run of another seed and load shelves the prefix; the scenario
		// forks off the kept build and leaves that run's result alone.
		path{name: "Shelved", serial: true, run: func(t *testing.T, sc *scenario) outcome {
			a := planned(t, []fabric.Config{sc.other()}, batch.Options{}, -1, -1)[0]
			before := canonical(t, a.res)
			got := planned(t, []fabric.Config{sc.fc}, batch.Options{}, 0, 1)[0].outcome(t)
			if !bytes.Equal(canonical(t, a.res), before) {
				t.Error("the earlier run's result changed when the scenario reused its fabric")
			}
			return got
		}},
		// Member 1 of a group forks off the checkpoint of the build member
		// 0 ran on.
		path{name: "PristineFork", serial: true, run: func(t *testing.T, sc *scenario) outcome {
			unshelve(t)
			return planned(t, []fabric.Config{sc.other(), sc.fc}, batch.Options{}, 1, 1)[1].outcome(t)
		}},
	)
	for i, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		ps = append(ps, path{name: []string{"Corpus-w1", "Corpus-w2", "Corpus-wmax"}[i], run: whole(func(t *testing.T) map[int]outcome {
			specs := make([]fabric.Config, len(all))
			for i, s := range all {
				specs[i] = s.fc
			}
			out := map[int]outcome{}
			for i, m := range planned(t, specs, batch.Options{Workers: workers}, -1, -1) {
				out[i] = m.outcome(t)
			}
			return out
		})})
	}
	for _, every := range []int64{1, 7, 1000} {
		ps = append(ps, path{name: fmt.Sprintf("Observe-%d", every), run: func(t *testing.T, sc *scenario) outcome {
			var seen []int64
			observe := func(_ int, f *fabric.Fabric) {
				seen = append(seen, int64(f.Now()))
				sc.requireSnapshot(t, snapshotOf(f))
			}
			got := planned(t, []fabric.Config{sc.fc}, batch.Options{Every: every, Observe: observe}, -1, -1)[0].outcome(t)
			requireCadence(t, seen, every, sc.fc.Cycles)
			return got
		}})
	}
	return append(ps,
		path{name: "Run", public: true, solo: true, run: func(t *testing.T, sc *scenario) outcome {
			res, err := Run(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return outcomeOf(t, res, nil)
		}},
		path{name: "RunWithTrace", public: true, run: func(t *testing.T, sc *scenario) outcome {
			var seen []int64
			res, err := RunWithTrace(sc.cfg, sc.remaps, 500, func(s Snapshot) {
				seen = append(seen, s.Cycle)
				sc.requireSnapshot(t, s)
			})
			if err != nil {
				t.Fatal(err)
			}
			requireCadence(t, seen, 500, sc.fc.Cycles)
			return outcomeOf(t, res, nil)
		}},
		// Every scenario Run can express, in one RunBatch call.
		path{name: "RunBatch", public: true, solo: true, run: whole(func(t *testing.T) map[int]outcome {
			var cfgs []Config
			var idx []int
			for _, s := range all {
				if (path{public: true, solo: true}).hole(s) == "" {
					cfgs, idx = append(cfgs, s.cfg), append(idx, s.index)
				}
			}
			res, err := RunBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			out := map[int]outcome{}
			for i, r := range res {
				out[idx[i]] = outcomeOf(t, r, nil)
			}
			return out
		})},
	)
}

// whole makes a path of run, which runs every scenario it can take at
// once, when a cell first asks, and returns their outcomes by corpus
// index.
func whole(run func(t *testing.T) map[int]outcome) func(*testing.T, *scenario) outcome {
	var once sync.Once
	var out map[int]outcome
	return func(t *testing.T, sc *scenario) outcome {
		once.Do(func() { out = run(t) })
		if out == nil {
			t.Fatal("the run of the whole corpus failed in another cell")
		}
		return out[sc.index]
	}
}

// checkpointPath takes a checkpoint at the cut, which must not perturb
// the run, then restores it twice onto the finished fabric and re-steps
// the remainder after each.
func checkpointPath(t *testing.T, sc *scenario) outcome {
	f := stepped(t, sc.fc, sc.cut)
	cp := f.Checkpoint()
	blocked, pending := f.BlockedHeaders(), f.PendingRetransmits()
	rest := sc.fc.Cycles - sc.cut
	advance(t, f, rest)
	sc.same(t, "taking a checkpoint", finished(t, f))
	restored := func() outcome {
		if err := f.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if f.Now() != sim.Cycle(sc.cut) || f.BlockedHeaders() != blocked || f.PendingRetransmits() != pending {
			t.Fatalf("restored to cycle %d with %d blocked headers and %d pending retransmissions; taken at %d with %d and %d",
				f.Now(), f.BlockedHeaders(), f.PendingRetransmits(), sc.cut, blocked, pending)
		}
		advance(t, f, rest)
		return finished(t, f)
	}
	sc.same(t, "restored", restored())
	return restored() // the checkpoint survives its first use
}

// TestPathEquivalence: a run's result depends on its config alone, not on
// how its cycles are stepped, whether it was checkpointed, forked off a
// kept build, planned beside other runs or watched. Every way of running
// a fabric (a path) meets every scenario of the corpus but for its holes,
// as a subtest path/scenario that holds Result.CanonicalJSON, the
// formatted event log and fabric.Totals to N calls of Step; Guard/<name>
// keeps each scenario from passing vacuously. Under -short it runs a
// diagonal: scenario k meets path k mod the path count, and path k the
// first scenario from k mod the scenario count on that it can express.
// DESIGN.md §7, "Path equivalence", says how to add either.
func TestPathEquivalence(t *testing.T) {
	all := corpus(t)
	for _, sc := range all {
		t.Run("Guard/"+sc.name, func(t *testing.T) {
			t.Parallel()
			if ref := sc.reference(t); len(ref.events) == 0 || ref.totals.Delivered == 0 {
				t.Errorf("the reference logs %d events and delivers %d packets: want both > 0", len(ref.events), ref.totals.Delivered)
			}
			if sc.guard != nil {
				sc.guard(t, sc)
			}
		})
	}
	ps := paths(all)
	for pi, p := range ps {
		diagonal := pi % len(all)
		for p.hole(all[diagonal]) != "" {
			diagonal = (diagonal + 1) % len(all)
		}
		for si, sc := range all {
			t.Run(p.name+"/"+sc.name, func(t *testing.T) {
				if why := p.hole(sc); why != "" {
					t.Skip("hole: " + why)
				}
				if testing.Short() && pi != si%len(ps) && si != diagonal {
					t.Skip("off the -short diagonal")
				}
				if !p.serial {
					t.Parallel()
				}
				sc.same(t, "", p.run(t, sc))
			})
		}
	}
}

// other is a run of sc's build prefix under another seed and load: a
// light scenario's at a load whose sources never rest, a loaded one's at
// 5 %, so a fork crosses between the two in both directions.
func (sc *scenario) other() fabric.Config {
	fc := sc.fc
	fc.Seed, fc.LoadScale = fc.Seed+1, 0.05
	if sc.fc.LoadScale < 0.25 {
		fc.LoadScale = 0.5
	}
	return fc
}

// requireSnapshot requires s to be what the hand-stepped reference showed
// at the same cycle.
func (sc *scenario) requireSnapshot(t *testing.T, s Snapshot) {
	sc.reference(t)
	if want := sc.snaps[s.Cycle-1]; !reflect.DeepEqual(s, want) {
		t.Fatalf("the observer saw %+v at cycle %d, the hand-stepped fabric %+v", s, s.Cycle, want)
	}
}

// requireCadence requires an observer to have seen exactly the multiples
// of every within a run of cycles.
func requireCadence(t *testing.T, seen []int64, every int64, cycles int) {
	var want []int64
	for c := every; c <= int64(cycles); c += every {
		want = append(want, c)
	}
	if !slices.Equal(seen, want) {
		t.Errorf("the observer fired at %d cycles, want the %d multiples of %d", len(seen), len(want), every)
	}
}

// member is one plan member's result and its whole-run Totals, nil
// unless the plan's observer ran at the member's last cycle.
type member struct {
	res    Result
	totals *fabric.Totals
}

func (m member) outcome(t testing.TB) outcome { return outcomeOf(t, m.res, m.totals) }

// planned runs specs as one plan and requires it to cost builds fabric
// builds and forks forks, unless they are negative. Without an observer
// of the caller's, it observes at the largest divisor of every member's
// run, to read each one's Totals at its last cycle.
func planned(t *testing.T, specs []fabric.Config, opts batch.Options, builds, forks int64) []member {
	t.Helper()
	out := make([]member, len(specs))
	observe := opts.Observe
	if observe == nil {
		for _, s := range specs {
			opts.Every = gcd(opts.Every, int64(s.Cycles))
		}
		observe = func(int, *fabric.Fabric) {}
	}
	opts.Observe = func(m int, f *fabric.Fabric) {
		if observe(m, f); int(f.Now()) == specs[m].Cycles {
			totals := f.Totals()
			out[m].totals = &totals
		}
	}
	plan, err := batch.NewPlan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b0, f0 := batch.Counters()
	res, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b1, f1 := batch.Counters(); builds >= 0 && (b1-b0 != builds || f1-f0 != forks) {
		t.Errorf("the plan cost %d builds and %d forks, want %d and %d", b1-b0, f1-f0, builds, forks)
	}
	for i, r := range res {
		out[i].res = fromFabricResult(r)
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// unshelve pushes every build off the batch shelf (shelfCapacity is 16)
// with throwaway builds of prefixes no other run has, so the next group
// of any other prefix builds.
func unshelve(t *testing.T) {
	for range 16 {
		spec := fabric.Config{Pattern: traffic.Uniform{}, Cycles: 2, WarmupCycles: 1, EventCapacity: newPrefix()}
		planned(t, []fabric.Config{spec}, batch.Options{}, 1, 0)
	}
}

// advance steps f by cycles the way production runs do, through
// StepContext, which jumps over the cycles in which nothing can happen.
func advance(t testing.TB, f *fabric.Fabric, cycles int) {
	t.Helper()
	if err := f.StepContext(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
}

// stepped returns a new fabric of fc advanced to cycle at.
func stepped(t testing.TB, fc fabric.Config, at int) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	advance(t, f, at)
	return f
}

// requireSkipped requires StepContext to jump over each of cycles, in
// increasing order, taken alone — unless it is one of unless, which it
// must step.
func requireSkipped(t *testing.T, fc fabric.Config, cycles []int, unless ...int) {
	t.Helper()
	f := stepped(t, fc, 0)
	for _, at := range cycles {
		advance(t, f, at-int(f.Now()))
		before := f.SkippedCycles()
		advance(t, f, 1)
		if skipped, want := f.SkippedCycles() == before+1, !slices.Contains(unless, at); skipped != want {
			t.Errorf("cycle %d skipped = %v, want %v", at, skipped, want)
		}
	}
}

// fullLog steps fc with an event log that evicts nothing and returns it.
func fullLog(t testing.TB, fc fabric.Config) []event.Event {
	t.Helper()
	fc.EventCapacity = 1 << 15
	f := stepped(t, fc, fc.Cycles)
	if n := f.Events().Evicted(); n > 0 {
		t.Fatalf("the guard's event log evicted %d events; raise its capacity", n)
	}
	return f.Events().Events()
}

// requireTransfersAcross requires cycle at to cut through both stages of
// the photonic pipeline: a packet that began streaming before it and
// arrives (or is dropped) after it, so an open receive window crosses the
// cut, and a packet whose reservation (crossbar) or circuit setup (torus)
// went out before it and which starts streaming after it.
func requireTransfersAcross(t *testing.T, fc fabric.Config, cut sim.Cycle) {
	t.Helper()
	// A blocked torus setup also logs ReservationSent; the retry that
	// succeeds overwrites it, so reservedAt holds the one that led to the
	// stream.
	reservedAt, startedAt := map[int64]sim.Cycle{}, map[int64]sim.Cycle{}
	var streaming, reserved int
	for _, e := range fullLog(t, fc) {
		switch e.Kind {
		case event.ReservationSent:
			reservedAt[e.Packet] = e.Cycle
		case event.StreamStarted:
			startedAt[e.Packet] = e.Cycle
			if r, ok := reservedAt[e.Packet]; ok && r < cut && e.Cycle >= cut {
				reserved++
			}
		case event.PacketArrived, event.PacketDropped:
			if s, ok := startedAt[e.Packet]; ok && s < cut && e.Cycle >= cut {
				streaming++
			}
		}
	}
	if streaming == 0 || reserved == 0 {
		t.Errorf("%d packets stream and %d reservations or setups are in flight across cycle %d: want both > 0", streaming, reserved, cut)
	}
}
