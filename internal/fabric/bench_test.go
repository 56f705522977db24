package fabric

import (
	"context"
	"runtime"
	"testing"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// bandwidthSets are the three photonic provisioning points (wider
// channels move more flits per cycle).
var bandwidthSets = []struct {
	name string
	set  traffic.BandwidthSet
}{
	{"BW1", traffic.BWSet1},
	{"BW2", traffic.BWSet2},
	{"BW3", traffic.BWSet3},
}

// warmSaturated builds the full 64-core d-HetPNoC chip under saturated
// skewed traffic and steps it warm cycles past its start-up transient, so
// what follows measures steady state.
func warmSaturated(tb testing.TB, set traffic.BandwidthSet, level, warm int) *Fabric {
	tb.Helper()
	return warmed(tb, saturated(set, level, 0), warm)
}

// saturated is the full chip under saturated skewed traffic, probed
// every probeEvery cycles (0: off).
func saturated(set traffic.BandwidthSet, level int, probeEvery int64) Config {
	return Config{
		Arch:       DHetPNoC,
		Set:        set,
		Pattern:    traffic.Skewed{Level: level},
		Seed:       1,
		ProbeEvery: probeEvery,
	}
}

// warmed builds cfg with an open-ended cycle budget (the caller steps it
// manually) and steps it warm cycles. A probed cfg gets 2^17 cycles
// instead, which bounds the rows New preallocates; rows past the budget
// are not written.
func warmed(tb testing.TB, cfg Config, warm int) *Fabric {
	tb.Helper()
	cfg.Cycles = 1 << 30
	if cfg.ProbeEvery > 0 {
		cfg.Cycles = 1 << 17
	}
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := f.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// BenchmarkFabricStep measures one cycle of the full 64-core chip under
// saturated skewed traffic — the simulator's end-to-end hot path — once
// per photonic provisioning point, so the perf trajectory covers all
// three bandwidth sets. Drops is the same loop at the drop-storm
// operating point of the "hotspot-drops" golden rows, where roughly one
// cycle in eleven drops a packet at a receiver and queues its
// retransmission: the 0 allocs/op covers that path too. Probed is BW1
// with the probe writing a row every cycle.
func BenchmarkFabricStep(b *testing.B) {
	for _, tc := range bandwidthSets {
		b.Run(tc.name, func(b *testing.B) {
			benchSteps(b, warmSaturated(b, tc.set, 2, 2000))
		})
	}
	b.Run("Probed", func(b *testing.B) {
		benchSteps(b, warmed(b, saturated(traffic.BWSet1, 2, 1), 2000))
	})
	b.Run("Drops", func(b *testing.B) {
		f := warmed(b, dropStormConfig(DHetPNoC), 6000)
		// allocs/op rounds down, and a drop is one cycle in eleven: count
		// the mallocs per dropped packet as well.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := f.Totals().DroppedRX
		benchSteps(b, f)
		runtime.ReadMemStats(&m1)
		if drops := float64(f.Totals().DroppedRX - before); drops > 0 {
			b.ReportMetric(drops/float64(b.N), "drops/op")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/drops, "allocs/drop")
		}
	})
}

func benchSteps(b *testing.B, f *Fabric) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricStepContext measures a cycle the way production runs
// pay for it, through StepContext: at the run-lightload operating point,
// where most cycles are jumped over (skipped/op is their share) and the
// rest carry the sources' look-ahead, and at saturation, where nothing is
// skipped and the idle test is pure overhead on top of
// BenchmarkFabricStep/BW1.
func BenchmarkFabricStepContext(b *testing.B) {
	b.Run("Light", func(b *testing.B) {
		benchStepContext(b, warmed(b, lightLoad(DHetPNoC, traffic.BWSet3), 2000))
	})
	b.Run("Saturated", func(b *testing.B) {
		benchStepContext(b, warmSaturated(b, traffic.BWSet1, 2, 2000))
	})
}

func benchStepContext(b *testing.B, f *Fabric) {
	before := f.SkippedCycles()
	b.ReportAllocs()
	b.ResetTimer()
	if err := f.StepContext(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(f.SkippedCycles()-before)/float64(b.N), "skipped/op")
}

// TestStepZeroAllocs is the tier-1 form of the benchmarks' "0 allocs/op":
// at the saturated skewed-3 operating point a cycle averages less than
// one heap allocation. What remains once the start-up transient is over
// is amortised growth of the packet pool and the source queues under
// overload, a few allocations per hundred cycles; a kernel that allocates
// per Tick adds at least one per cycle and fails this. Each case runs
// again with the probe on (the -Probed cases), which writes into rows
// New preallocated and so allocates nothing either.
func TestStepZeroAllocs(t *testing.T) {
	for _, p := range []struct {
		suffix string
		// The probe intervals: every cycle, but the light spans are
		// probed sparsely, so they still jump between rows.
		every, lightEvery int64
	}{{"", 0, 0}, {"-Probed", 1, 100}} {
		testStepZeroAllocs(t, p.suffix, p.every, p.lightEvery)
	}
}

func testStepZeroAllocs(t *testing.T, suffix string, every, lightEvery int64) {
	for _, tc := range bandwidthSets {
		t.Run(tc.name+suffix, func(t *testing.T) {
			f := warmed(t, saturated(tc.set, 3, every), 8000)
			var stepErr error
			avg := testing.AllocsPerRun(2000, func() {
				if err := f.Step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if avg != 0 {
				t.Fatalf("Fabric.Step averages %.0f allocations per cycle at saturation, want 0", avg)
			}
		})
	}
	// Light load through StepContext: each span holds two rounds of
	// emissions, so the 64 sources' look-ahead runs 128 times inside it,
	// between jumps. Nothing in a warmed light-load fabric grows — a VC
	// is counters, the pool and the queues peaked long ago — so a span
	// allocates exactly nothing, however the cycles are stepped.
	t.Run("Light"+suffix, func(t *testing.T) {
		cfg := lightLoad(Firefly, traffic.BWSet3)
		cfg.ProbeEvery = lightEvery
		f := warmed(t, cfg, 50000)
		injected, skipped := f.Totals().Injected, f.SkippedCycles()
		var stepErr error
		avg := testing.AllocsPerRun(10, func() {
			if err := f.StepContext(context.Background(), 2500); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if f.Totals().Injected < injected+20*64 || f.SkippedCycles() == skipped {
			t.Fatalf("the spans injected %d packets and skipped %d cycles; they no longer cover emissions and jumps",
				f.Totals().Injected-injected, f.SkippedCycles()-skipped)
		}
		if avg != 0 {
			t.Fatalf("StepContext averages %.0f allocations per 2,500-cycle span at light load, want 0", avg)
		}
	})
	// The corpus scenarios the saturated sets leave out, in their steady
	// state. A bursty source draws every cycle and allocates nothing. The
	// drop storm's retransmit queue and overloaded source queues still
	// grow now and then, far less than once per drop. The torus routes
	// each setup attempt into a link list of its own, which the circuit
	// keeps: up to three appends for the four hops of a 4x4 torus, by
	// design, and none per streamed cycle. Beside those, each may grow a
	// queue or the pool a few times, as at saturation.
	bursty, torus := lightLoad(DHetPNoC, traffic.BWSet1), saturated(traffic.BWSet1, 3, 0)
	bursty.Pattern, bursty.LoadScale, torus.Arch = traffic.Bursty{Base: traffic.Uniform{}, Factor: 4}, 0.25, TorusPNoC
	proportional, remapped, chapter4 := saturated(traffic.BWSet1, 3, 0), saturated(traffic.BWSet1, 3, 0), saturated(traffic.BWSet3, 3, 0)
	proportional.ProportionalDBA = true
	chapter4.WaveguidesPerCluster, chapter4.ReservedPerCluster = 2, 2
	for i, p := range []traffic.Pattern{traffic.Uniform{}, traffic.Skewed{Level: 1}, traffic.Skewed{Level: 3}, traffic.Uniform{}} {
		remapped.Remaps = append(remapped.Remaps, Remap{At: sim.Cycle(8200 + 500*i), Pattern: p})
	}
	for _, sc := range []struct {
		name   string
		cfg    Config
		events func(*Fabric) int64 // what may allocate, so far
		per    float64             // allocations allowed per event
	}{
		{"Bursty", bursty, func(f *Fabric) int64 { return f.Totals().Injected }, 0},
		{"DropStorm", dropStormConfig(DHetPNoC), func(f *Fabric) int64 { return f.Totals().DroppedRX }, 0.25},
		{"Torus", torus, func(f *Fabric) int64 { return f.torus.PathsSetUp() + f.torus.SetupsBlocked() }, 0},
		{"TorusDropStorm", dropStormConfig(TorusPNoC), func(f *Fabric) int64 { return f.Totals().DroppedRX }, 0.25},
		{"Proportional", proportional, func(f *Fabric) int64 { return f.Totals().Injected }, 0},
		{"Chapter4", chapter4, func(f *Fabric) int64 { return f.Totals().Injected }, 0},
		{"Remap", remapped, func(f *Fabric) int64 { return int64(f.nextRemap) }, 170},
	} {
		t.Run(sc.name+suffix, func(t *testing.T) {
			sc.cfg.ProbeEvery = every
			f := warmed(t, sc.cfg, 8000)
			before := sc.events(f)
			n := mallocs(t, func() error { return f.StepContext(context.Background(), 2000) })
			if events := sc.events(f) - before; events == 0 || float64(n) > sc.per*float64(events)+16 {
				t.Fatalf("2,000 cycles made %d allocations over %d events, want at most %g per event and 16 more", n, events, sc.per)
			}
		})
	}
	// A packet dropped for the last time is lost, which no corpus run
	// reaches in its steady state: losing it allocates nothing either.
	t.Run("Lost"+suffix, func(t *testing.T) {
		cfg := dropStormConfig(DHetPNoC)
		cfg.ProbeEvery = every
		f := warmed(t, cfg, 2000)
		p := f.pool.Get()
		p.Attempt = maxRetries + 1
		lost := f.Totals().Lost
		if n := mallocs(t, func() error { f.handleDrop(p, f.now); return nil }); n != 0 || f.Totals().Lost != lost+1 {
			t.Fatalf("losing a packet made %d allocations and counted %d losses, want 0 and 1", n, f.Totals().Lost-lost)
		}
	})
	// Restoring a drop storm after it ran on: the live fabric's own
	// storage takes the checkpoint back, whatever grew or shrank since.
	t.Run("Restore"+suffix, func(t *testing.T) {
		cfg := dropStormConfig(DHetPNoC)
		cfg.ProbeEvery = every
		f := warmed(t, cfg, 2080)
		cp := f.Checkpoint()
		for round := range 3 {
			step(t, f, 200*(round+1))
			if n := mallocs(t, func() error { return f.Restore(cp) }); n != 0 {
				t.Fatalf("round %d: Fabric.Restore made %d allocations after the fabric ran on, want 0", round, n)
			}
		}
	})
	// The token's acquisition ramp: a skewed d-HetPNoC fabric taken back
	// to cycle 0, where every cluster holds only its reserved wavelength,
	// and stepped while the token hands out the demand. Its queues and
	// pool peaked in the run before the restore, so the visits that move
	// a cluster's count are what could allocate, and they allocate
	// nothing: the engines count wavelengths.
	t.Run("Ramp"+suffix, func(t *testing.T) {
		f := warmed(t, saturated(traffic.BWSet1, 3, every), 0)
		cp := f.Checkpoint()
		step(t, f, 8000)
		if err := f.Restore(cp); err != nil {
			t.Fatal(err)
		}
		held := func() (n int) {
			for c := range f.clusters {
				n += f.dba.AllocatedCount(topology.ClusterID(c))
			}
			return n
		}
		before := held()
		if n := mallocs(t, func() error { return f.StepContext(context.Background(), 2000) }); n != 0 || held() <= before {
			t.Fatalf("2,000 cycles from cycle 0 made %d allocations while the clusters went from %d to %d wavelengths, want 0 and a ramp", n, before, held())
		}
	})
}

// mallocs returns the heap allocations fn makes, run on one P.
func mallocs(t *testing.T, fn func() error) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// BenchmarkFabricStepIdle measures one cycle of the chip with zero
// offered load — the case the active-list scheduling targets. With no
// traffic, every router, TX engine and core stays off the active lists
// and a cycle costs only the torus/allocator housekeeping.
func BenchmarkFabricStepIdle(b *testing.B) {
	f, err := New(Config{
		Arch:    DHetPNoC,
		Set:     traffic.BWSet1,
		Pattern: traffic.Custom{Cores: make([]traffic.CustomCore, chip.Cores())},
		Cycles:  1 << 30, // stepped manually
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A short run drains any construction-time transients.
	for i := 0; i < 100; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// checkpointSink keeps the compiler from discarding the measured call.
var checkpointSink *Checkpoint

// BenchmarkFabricCheckpoint measures capturing the drop-storm run at
// cycle 2080, where every kind of in-flight state is live: streaming
// transfers, reservations with open receive windows, blocked headers and
// retransmissions waiting out their back-off.
func BenchmarkFabricCheckpoint(b *testing.B) {
	f := warmed(b, dropStormConfig(DHetPNoC), 2080)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpointSink = f.Checkpoint()
	}
}

// BenchmarkFabricRestore measures rewinding onto that checkpoint — what
// the batch engine pays once per forked member.
func BenchmarkFabricRestore(b *testing.B) {
	f := warmed(b, dropStormConfig(DHetPNoC), 2080)
	cp := f.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Restore(cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricReseed measures the batch engine's whole fork sequence
// off a pristine (cycle-0) checkpoint: Restore, SetLoadScale and Reseed,
// which reinstalls the build's assignment, rebuilds all 64 sources and
// refills every core's demand row, allocating nothing.
func BenchmarkFabricReseed(b *testing.B) {
	f := warmed(b, dropStormConfig(DHetPNoC), 0)
	cp := f.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Restore(cp); err != nil {
			b.Fatal(err)
		}
		if err := f.SetLoadScale(1 + float64(i%4)/4); err != nil {
			b.Fatal(err)
		}
		if err := f.Reseed(uint64(i) + 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricBuild measures constructing the whole chip (80 routers,
// 16 crossbar engine pairs, 64 sources).
func BenchmarkFabricBuild(b *testing.B) {
	cfg := Config{
		Arch:    DHetPNoC,
		Set:     traffic.BWSet1,
		Pattern: traffic.Uniform{},
		Seed:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
