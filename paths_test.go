package hetpnoc

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"testing"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/event"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// scenario is one run of the corpus: a public config, lowered and
// defaulted into fc, a checkpoint cycle and the guard that makes its
// cells mean something.
type scenario struct {
	name string
	cfg  Config
	// tweak sets what Config cannot express; a tweaked scenario is a hole
	// of the public paths.
	tweak func(*fabric.Config)
	cut   int // 0 < cut < Cycles
	guard func(t *testing.T, sc *scenario)
	// allocs is the heap allocations of the whole run, New to Finish
	// (TestRunAllocations).
	allocs uint64

	fc    fabric.Config
	index int // in the corpus

	once  sync.Once
	ref   outcome
	probe *fabric.Probe // the reference's probe, a row every cycle: row c-1 at cycle c; nil until it ran
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
		{name: "light", allocs: 3537, cfg: light, cut: 2600, guard: func(t *testing.T, sc *scenario) {
			if f := stepped(t, sc.fc, sc.fc.Cycles); 2*f.SkippedCycles() < int64(sc.fc.Cycles) {
				t.Errorf("skipped %d of %d cycles: want most of the run jumped", f.SkippedCycles(), sc.fc.Cycles)
			}
			requireSkipped(t, sc.fc, []int{499, 500, 2499, 2500, 2599, 2600})
			if sc.probe.Rows[len(sc.probe.Rows)-1].TokenRotations == 0 {
				t.Error("the token never completed a rotation")
			}
		}},
		// A jump must stop for the start of measurement and for a remap
		// due after the cut, inside the span the cut lies in.
		{name: "light-remap", allocs: 3667, cfg: remapped(light, 2800, SkewedTraffic(2)), cut: 2600, guard: func(t *testing.T, sc *scenario) {
			requireSkipped(t, sc.fc, []int{999, 1000, 1001, 2599, 2600, 2799, 2800, 2801}, 1000, 2800)
		}},
		// Token DBA, selected-wavelength gating and headers blocked on
		// VC-exhausted outputs live across the cut; a remap follows it.
		{name: "saturated", allocs: 2600, cfg: remapped(Config{Architecture: DHetPNoC, Traffic: SkewedTraffic(3), LoadScale: 2, Cycles: 3000, WarmupCycles: 500, Seed: 7, EventCapacity: 256}, 2000, UniformTraffic()),
			cut: 1200, guard: func(t *testing.T, sc *scenario) {
				if f := stepped(t, sc.fc, sc.cut); f.BlockedHeaders() == 0 {
					t.Errorf("no header waits on a VC-exhausted output at cycle %d", sc.cut)
				}
				requireTransfersAcross(t, sc.fc, sim.Cycle(sc.cut))
			}},
		// Two VCs per port and half the traffic aimed at one cluster: a few
		// hundred RX drops. The packet dropped at 2029 is retried at 2093,
		// the remap's cycle, so both fire on one cycle after the cut.
		{name: "drop-storm", allocs: 4323, cfg: remapped(Config{Architecture: DHetPNoC, Traffic: HotspotTraffic(0.5, 3), LoadScale: 1.5, Cycles: 3000, WarmupCycles: 1000, Seed: 11, EventCapacity: 1 << 12}, 2093, UniformTraffic()),
			tweak: func(fc *fabric.Config) { fc.VCsPerPort = 2 }, cut: 2080,
			guard: func(t *testing.T, sc *scenario) {
				for _, at := range []int{sc.cut, 1500} { // 1500: a restore-chain checkpoint
					if f := stepped(t, sc.fc, at); f.PendingRetransmits() == 0 {
						t.Errorf("no retransmission is pending at cycle %d", at)
					}
				}
				dropAt := sim.Cycle(sc.cfg.Remaps[0].AtCycle) - fabric.RetryBackoffCycles
				if !slices.ContainsFunc(fullLog(t, sc.fc), func(e event.Event) bool { return e.Kind == event.Retransmit && e.Cycle == dropAt }) {
					t.Errorf("no packet dropped at cycle %d is retried on the remap's cycle", dropAt)
				}
			}},
		// The proportional policy (the thesis's future work): skewed
		// demand overflows the dynamic pool, so routers scale back to
		// their token-recorded shares, and a remap re-skews it after the
		// cut.
		{name: "proportional", allocs: 2601, cfg: remapped(Config{Architecture: DHetPNoC, ProportionalDBA: true, Traffic: SkewedTraffic(3), LoadScale: 1, Cycles: 3000, WarmupCycles: 500, Seed: 13, EventCapacity: 256}, 1800, SkewedTraffic(1)),
			cut: 1400,
			guard: func(t *testing.T, sc *scenario) {
				greedy := sc.fc
				greedy.ProportionalDBA = false
				p, g := stepped(t, sc.fc, sc.cut).DBA(), stepped(t, greedy, sc.cut).DBA()
				differ := 0
				for c := range topology.ClusterID(topology.Default().Clusters()) {
					if p.AllocatedCount(c) != g.AllocatedCount(c) {
						differ++
					}
				}
				if differ == 0 {
					t.Errorf("at cycle %d every cluster holds what the greedy policy gives it: the proportional shares never bind", sc.cut)
				}
				requireTransfersAcross(t, sc.fc, sim.Cycle(sc.cut))
			}},
		// The thesis's Chapter 4 area restriction: each cluster acquires
		// only on its two home waveguides and holds two reserved
		// wavelengths, which the public Config cannot set.
		{name: "chapter4", allocs: 2618, cfg: Config{Architecture: DHetPNoC, BandwidthSet: 3, Traffic: SkewedTraffic(3), LoadScale: 2, Cycles: 3000, WarmupCycles: 500, Seed: 17, EventCapacity: 256},
			tweak: func(fc *fabric.Config) { fc.WaveguidesPerCluster, fc.ReservedPerCluster = 2, 2 }, cut: 1200,
			guard: func(t *testing.T, sc *scenario) {
				free := sc.fc
				free.WaveguidesPerCluster = 0
				r, f := stepped(t, sc.fc, sc.cut).DBA(), stepped(t, free, sc.cut).DBA()
				differ := 0
				for c := range topology.ClusterID(topology.Default().Clusters()) {
					if r.AllocatedCount(c) != f.AllocatedCount(c) {
						differ++
					}
				}
				if differ == 0 {
					t.Errorf("at cycle %d every cluster holds what it holds unrestricted: the waveguide restriction never binds", sc.cut)
				}
			}},
		{name: "bursty", allocs: 2454, cfg: Config{Traffic: Traffic{Kind: UniformRandom, Burstiness: 4}, LoadScale: 0.5, Cycles: 3000, WarmupCycles: 500, Seed: 2, EventCapacity: 256}, cut: 1300},
		// Circuit switching: link ownership and path setups cross the cut.
		{name: "torus", allocs: 4529, cfg: Config{Architecture: TorusPNoC, Traffic: UniformTraffic(), LoadScale: 1.5, Cycles: 2500, WarmupCycles: 500, Seed: 11, EventCapacity: 1 << 12}, cut: 1300,
			guard: func(t *testing.T, sc *scenario) {
				requireTransfersAcross(t, sc.fc, sim.Cycle(sc.cut))
				if f := stepped(t, sc.fc, sc.fc.Cycles); f.SkippedCycles() != 0 {
					t.Errorf("StepContext jumped %d torus cycles; the torus keeps no activity set", f.SkippedCycles())
				}
			}},
		{name: "custom", allocs: 2323, cfg: Config{Traffic: CustomTraffic(custom), Cycles: 3000, WarmupCycles: 500, Seed: 9, EventCapacity: 256}, cut: 1500},
		// The cut lies in the warm-up, inside the span before the first
		// packet (8191): the jump must stop for measurement after a restore.
		{name: "prewarmup", allocs: 2468, cfg: Config{Architecture: Firefly, Traffic: UniformTraffic(), LoadScale: 0.05, Cycles: 9000, WarmupCycles: 1000, Seed: 3, EventCapacity: 256}, cut: 600,
			guard: func(t *testing.T, sc *scenario) {
				if f := stepped(t, sc.fc, sc.fc.WarmupCycles+1); sc.cut >= sc.fc.WarmupCycles || f.Totals().Injected != 0 {
					t.Errorf("want cut %d < warm-up %d < first packet; %d injected by cycle %d", sc.cut, sc.fc.WarmupCycles, f.Totals().Injected, f.Now())
				}
				requireSkipped(t, sc.fc, []int{sc.cut - 1, sc.cut})
			}},
	}
	// Every architecture at every bandwidth set under load, cut in the
	// warm-up with transfers in flight.
	allocs := [][3]uint64{{2288, 2441, 2442}, {2346, 2451, 2454}, {2391, 2443, 2483}}
	for i, arch := range []Architecture{Firefly, DHetPNoC, TorusPNoC} {
		for set := 1; set <= 3; set++ {
			all = append(all, &scenario{name: fmt.Sprintf("uniform-%v-bw%d", arch, set), cut: 100, allocs: allocs[i][set-1],
				cfg: Config{Architecture: arch, BandwidthSet: set, Traffic: UniformTraffic(), LoadScale: 1, Cycles: 600, WarmupCycles: 150, Seed: 7, EventCapacity: 256}})
		}
	}
	for i, sc := range all {
		fc, err := lower(sc.cfg)
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

// remapped returns cfg with one remap to tr at cycle at.
func remapped(cfg Config, at int64, tr Traffic) Config {
	cfg.Remaps = []TrafficRemap{{AtCycle: at, Traffic: tr}}
	return cfg
}

// outcome is what two paths of one scenario must agree on. totals is nil
// where a path cannot read them: the public entry points.
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
	return outcomeOf(t, fromFabricResult(res), &res.Totals)
}

// reference runs sc by N calls of Step, once per test, probed every
// cycle for the probed paths.
func (sc *scenario) reference(t *testing.T) outcome {
	t.Helper()
	sc.once.Do(func() {
		fc := sc.fc
		fc.ProbeEvery = 1
		sc.ref, sc.probe = stepRun(t, fc)
	})
	if sc.probe == nil {
		t.Fatal("the Step reference failed in another cell")
	}
	return sc.ref
}

// stepRun runs fc by N calls of Step, which jumps nothing, and returns
// its outcome and its probe, which the outcome leaves out (nil when fc
// does not probe).
func stepRun(t *testing.T, fc fabric.Config) (outcome, *fabric.Probe) {
	f := stepped(t, fc, 0)
	for c := range fc.Cycles {
		if err := f.Step(); err != nil || f.SkippedCycles() != 0 {
			t.Fatalf("cycle %d: Step returned %v and has skipped %d cycles", c, err, f.SkippedCycles())
		}
	}
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	probe := res.Probe
	res.Probe = nil
	return outcomeOf(t, fromFabricResult(res), &res.Totals), probe
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
	name   string
	serial bool
	public bool // takes a public Config
	run    func(t *testing.T, sc *scenario) outcome
}

// hole says why sc cannot take p, or "" if it can.
func (p path) hole(sc *scenario) string {
	if p.public && sc.tweak != nil {
		return "Config cannot express the scenario's fabric tweak"
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
		// Two members of one config: the second is not run but finished
		// once more on the first's fabric. Both are the reference, and
		// they share no slice, map or probe row.
		path{name: "Twin", serial: true, run: func(t *testing.T, sc *scenario) outcome {
			unshelve(t)
			fc := sc.fc
			fc.ProbeEvery = 100
			twins := planned(t, []fabric.Config{fc, fc}, batch.Options{}, 1, 0)
			unaliased(t, twins[0].fab, twins[1].fab)
			sc.same(t, "the first twin", sc.unprobed(t, fc.ProbeEvery, twins[0].res, &twins[0].fab.Counters))
			return sc.unprobed(t, fc.ProbeEvery, twins[1].res, &twins[1].fab.Counters)
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
	// A plan member probed every N cycles: the Observe-N paths.
	for _, every := range []int64{1, 7, 1000} {
		ps = append(ps, path{name: fmt.Sprintf("Observe-%d", every), run: func(t *testing.T, sc *scenario) outcome {
			fc := sc.fc
			fc.ProbeEvery = every
			m := planned(t, []fabric.Config{fc}, batch.Options{}, -1, -1)[0]
			return sc.unprobed(t, every, m.res, &m.fab.Counters)
		}})
	}
	ps = append(ps, path{name: "Beside", run: func(t *testing.T, sc *scenario) outcome {
		return besidePath(t, sc, all[(sc.index+1)%len(all)])
	}})
	return append(ps,
		path{name: "Run", public: true, run: func(t *testing.T, sc *scenario) outcome {
			res, err := Run(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return outcomeOf(t, res, nil)
		}},
		// Run with the probe on, every 500 cycles: the public trace. The
		// path keeps the name of the entry point it replaced.
		path{name: "RunWithTrace", public: true, run: func(t *testing.T, sc *scenario) outcome {
			cfg := sc.cfg
			cfg.ProbeEvery = 500
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sc.unprobed(t, cfg.ProbeEvery, res, nil)
		}},
		// Every scenario Run can express, in one RunBatch call.
		path{name: "RunBatch", public: true, run: whole(func(t *testing.T) map[int]outcome {
			var cfgs []Config
			var idx []int
			for _, s := range all {
				if (path{public: true}).hole(s) == "" {
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

// besidePath runs sc twice, probed every 100 cycles: alone, and again
// while other runs on a second goroutine. The two runs must leave equal
// checkpoints at the cut and at the end — every packet, message ID and
// counter, which no result shows — and equal results, event logs and
// probes; the second is then held to the reference like any path. A
// package-level variable the runs share, the wall clock, an unseeded
// random source, map order or a goroutine inside a step would part them.
func besidePath(t *testing.T, sc, other *scenario) outcome {
	const every = 100
	fc := sc.fc
	fc.ProbeEvery = every
	run := func() (fabric.Result, [2]*fabric.Checkpoint) {
		f := stepped(t, fc, sc.cut)
		mid := f.Checkpoint()
		advance(t, f, fc.Cycles-sc.cut)
		end := f.Checkpoint()
		res, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res, [2]*fabric.Checkpoint{mid, end}
	}
	alone, aloneCPs := run()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, err := fabric.New(other.fc)
		if err == nil {
			err = f.StepContext(context.Background(), other.fc.Cycles)
		}
		if err != nil {
			t.Error(err)
		}
	}()
	defer func() { <-done }() // a failed run ends the cell; the goroutine must not outlive it
	beside, besideCPs := run()
	for i, at := range []int{sc.cut, sc.fc.Cycles} {
		if d := heldDiff(reflect.ValueOf(aloneCPs[i]).Elem(), reflect.ValueOf(besideCPs[i]).Elem(), "cp"); d != "" {
			t.Errorf("the checkpoints at cycle %d differ between the run alone and the run beside %s at %s", at, other.name, d)
		}
	}
	a, b := fromFabricResult(alone), fromFabricResult(beside)
	if !bytes.Equal(canonical(t, a), canonical(t, b)) || !slices.Equal(a.Events, b.Events) {
		t.Errorf("the result or the event log differs between the run alone and the run beside %s", other.name)
	}
	return sc.unprobed(t, every, b, &beside.Counters)
}

// heldDiff names the first place a and b, values of one type, differ in
// what they hold themselves, or returns "". It is reflect.DeepEqual but
// for pointers and maps, which it does not follow (two fabrics'
// checkpoints point into different fabrics), and funcs, compared by code
// pointer.
func heldDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Chan, reflect.UnsafePointer, reflect.Map:
		if a.IsNil() != b.IsNil() || a.Kind() == reflect.Func && a.Pointer() != b.Pointer() {
			return path
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path
		}
		return heldDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := range a.NumField() {
			if d := heldDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d, %d)", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := heldDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d, %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d, %d)", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v, %v)", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		return path + " (a kind the comparison does not know)"
	}
	return ""
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

// unprobed requires res, a run of sc probed every every cycles, to hold
// one probe row at each multiple of every within the run, each, every
// column of it, what the hand-stepped reference's probe holds at that
// cycle. When the run ends on a probe row, that row must be the counters
// the result reports: last, a fabric-level result's row, when the path
// has one, and the public result's counters and the ratios and energy
// computed from them. It returns the outcome with the probe stripped.
func (sc *scenario) unprobed(t *testing.T, every int64, res Result, last *fabric.Counters) outcome {
	t.Helper()
	sc.reference(t)
	p, ref := res.Probe, sc.probe
	if p == nil {
		t.Fatal("the result carries no probe")
	}
	n, k := int(int64(sc.fc.Cycles)/every), topology.Default().Clusters()
	if p.Clusters != k || len(p.Rows) != n || len(p.AllocatedWavelengths) != n*k || len(p.BusyCycles) != n*k {
		t.Fatalf("the probe holds %d, %d×%d and %d entries, want %d clusters at each of the %d multiples of %d",
			len(p.Rows), p.Clusters, len(p.AllocatedWavelengths), len(p.BusyCycles), k, n, every)
	}
	for i := range n {
		j := int((int64(i)+1)*every) - 1
		if p.Rows[i] != ref.Rows[j] ||
			!slices.Equal(p.AllocatedWavelengths[i*k:(i+1)*k], ref.AllocatedWavelengths[j*k:(j+1)*k]) ||
			!slices.Equal(p.BusyCycles[i*k:(i+1)*k], ref.BusyCycles[j*k:(j+1)*k]) {
			t.Fatalf("the probe's row at cycle %d is %+v, λ %v, busy %v; the hand-stepped fabric's %+v, λ %v, busy %v", j+1,
				p.Rows[i], p.AllocatedWavelengths[i*k:(i+1)*k], p.BusyCycles[i*k:(i+1)*k],
				ref.Rows[j], ref.AllocatedWavelengths[j*k:(j+1)*k], ref.BusyCycles[j*k:(j+1)*k])
		}
	}
	if int64(sc.fc.Cycles)%every == 0 {
		row, allocated, busy := p.Rows[n-1], p.AllocatedWavelengths[(n-1)*k:], p.BusyCycles[(n-1)*k:]
		if last != nil && *last != row {
			t.Fatalf("the result's counters are %+v, the probe's last row %+v", *last, row)
		}
		fractions := make([]float64, len(res.ChannelBusyFraction))
		for i := range fractions {
			fractions[i] = float64(busy[i]) / float64(row.Cycle)
		}
		if res.TokenRotations != row.TokenRotations || res.PacketsDelivered != row.PacketsDelivered ||
			res.TorusPathsSetUp != row.TorusPathsSetUp || res.TorusSetupsBlocked != row.TorusSetupsBlocked ||
			!slices.Equal(res.AllocatedWavelengths, widen(allocated)) || !slices.Equal(res.ChannelBusyFraction, fractions) ||
			res.EnergyTotalPJ != photonic.DefaultEnergyParams().Price(row.EnergyCounts).TotalPJ {
			t.Fatalf("the result reports %d rotations, %d packets, %d/%d torus setups, λ %v, busy %v and %v; the probe's last row %+v, λ %v, busy %v",
				res.TokenRotations, res.PacketsDelivered, res.TorusPathsSetUp, res.TorusSetupsBlocked,
				res.AllocatedWavelengths, res.ChannelBusyFraction, res.EnergyTotalPJ, row, allocated, busy)
		}
	}
	res.Probe = nil
	var totals *fabric.Totals
	if last != nil {
		totals = &last.Totals
	}
	return outcomeOf(t, res, totals)
}

// widen returns xs as ints.
func widen(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// member is one plan member's result, public and as the plan returned it.
type member struct {
	res Result
	fab *fabric.Result
}

func (m member) outcome(t testing.TB) outcome { return outcomeOf(t, m.res, &m.fab.Totals) }

// unaliased fails if the results a and b, both probed, share a slice, a
// map or the probe.
func unaliased(t *testing.T, a, b *fabric.Result) {
	t.Helper()
	if a.Probe == nil || b.Probe == nil || a.Probe == b.Probe {
		t.Fatalf("the results carry probes %p and %p, want two", a.Probe, b.Probe)
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"AllocatedWavelengths", a.AllocatedWavelengths, b.AllocatedWavelengths},
		{"ChannelBusyFraction", a.ChannelBusyFraction, b.ChannelBusyFraction},
		{"Events", a.Events, b.Events},
		{"EnergyBreakdownPJ", a.EnergyBreakdownPJ, b.EnergyBreakdownPJ},
		{"Probe.Rows", a.Probe.Rows, b.Probe.Rows},
		{"Probe.AllocatedWavelengths", a.Probe.AllocatedWavelengths, b.Probe.AllocatedWavelengths},
		{"Probe.BusyCycles", a.Probe.BusyCycles, b.Probe.BusyCycles},
	} {
		x, y := reflect.ValueOf(f.a), reflect.ValueOf(f.b)
		if x.Kind() == reflect.Slice && (x.Cap() == 0 || y.Cap() == 0) {
			continue // nothing to share
		}
		if x.Pointer() == y.Pointer() {
			t.Errorf("the two results share %s", f.name)
		}
	}
}

// planned runs specs as one plan and requires it to cost builds fabric
// builds and forks forks, unless they are negative.
func planned(t *testing.T, specs []fabric.Config, opts batch.Options, builds, forks int64) []member {
	t.Helper()
	out := make([]member, len(specs))
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
	for i := range res {
		out[i] = member{fromFabricResult(res[i]), &res[i]}
	}
	return out
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

// TestRunAllocations pins the heap allocations of each corpus scenario's
// whole run, New to StepContext to Finish, exactly. A run is
// deterministic, and so is its count once the garbage collector is off
// and the scenario has run once in the process (the runtime and the
// standard library allocate on first use), but for the runtime's own
// allocations, which the least of three runs leaves out. TestStepZeroAllocs holds the
// steady state to zero; this holds every branch that only the build, the
// warm-up, a remap or Finish takes, where one allocation more is a
// change. The counts are a 64-bit build's without the race detector,
// whose runtime allocates on its own; a toolchain upgrade may move them,
// and the failure prints each scenario's new count.
//
// Its second column is a fork of the run: Restore of the checkpoint at
// the cut after the run went on, SetLoadScale and Reseed, as a batch
// member forks a shelved build. A fork reinstalls what the build made,
// so it allocates nothing, on every architecture and word size.
func TestRunAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's runtime allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fn()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, sc := range corpus(t) {
		run := func() error {
			f, err := fabric.New(sc.fc)
			if err == nil {
				err = f.StepContext(context.Background(), sc.fc.Cycles)
			}
			if err == nil {
				_, err = f.Finish()
			}
			return err
		}
		// The runtime allocates now and then on its own, which a run may
		// count; it only ever adds, so the least of three runs is the
		// run's own.
		if strconv.IntSize == 64 {
			mallocs(run)
			if n := min(mallocs(run), mallocs(run), mallocs(run)); n != sc.allocs {
				t.Errorf("%s: the run made %d heap allocations, want %d", sc.name, n, sc.allocs)
			}
		}

		f, err := fabric.New(sc.fc)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.StepContext(context.Background(), sc.cut); err != nil {
			t.Fatal(err)
		}
		cp := f.Checkpoint()
		if err := f.StepContext(context.Background(), sc.fc.Cycles-sc.cut); err != nil {
			t.Fatal(err)
		}
		seed := sc.fc.Seed
		fork := func() error {
			seed++
			if err := f.Restore(cp); err != nil {
				return err
			}
			if err := f.SetLoadScale(sc.fc.LoadScale / 2); err != nil {
				return err
			}
			return f.Reseed(seed)
		}
		if n := min(mallocs(fork), mallocs(fork), mallocs(fork)); n != 0 {
			t.Errorf("%s: a fork made %d heap allocations, want 0", sc.name, n)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}
