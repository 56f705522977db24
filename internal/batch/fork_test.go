package batch

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// forkRig builds the fabric of the heaviest point of the 256-point sweep
// corpus — skewed-2 traffic at twice the nominal load, where congestion
// reaches the most VCs and the packet pool grows furthest — as the lone
// member of a plan, with its cycle-0 checkpoint, and forks the member
// twice, so the packet pool, the source queues and every other amortised
// structure have peaked before anything is measured.
func forkRig(tb testing.TB) (*Plan, *fabric.Fabric, *fabric.Checkpoint) {
	tb.Helper()
	cfg := spec(1, 2)
	cfg.Pattern = traffic.Skewed{Level: 2}
	p := mustPlan(tb, []fabric.Config{cfg}, Options{})
	f, err := fabric.New(p.specs[0])
	if err != nil {
		tb.Fatal(err)
	}
	cp := f.Checkpoint()
	for range 2 {
		forkMember(tb, p, f, cp)
	}
	return p, f, cp
}

// forkMember runs the plan's member 0 as a group's later members run:
// forked off the checkpoint, not on a fresh build.
func forkMember(tb testing.TB, p *Plan, f *fabric.Fabric, cp *fabric.Checkpoint) {
	if err := fork(f, cp, p.specs[0]); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.runMember(context.Background(), 0, f); err != nil {
		tb.Fatal(err)
	}
}

// TestForkAllocatesNoBuffers: once a group's first member has run,
// replaying a member allocates no buffer storage. What a fork still
// allocates is Reseed's pattern assignment and sources and the result:
// 206 objects and 19 KiB measured, bounded here with a quarter of
// headroom. A VC that stores flits again re-grows its storage on every
// fork — the ring that doubled toward depth 64 cost this member 1,087
// objects and 384 KiB — and fails this.
func TestForkAllocatesNoBuffers(t *testing.T) {
	p, f, cp := forkRig(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	forkMember(t, p, f, cp)
	runtime.ReadMemStats(&after)
	objects, kib := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/1024
	t.Logf("one forked member: %d objects, %d KiB", objects, kib)
	if objects >= 260 || kib >= 25 {
		t.Fatalf("a forked member allocated %d objects and %d KiB, want < 260 and < 25: something re-grows per fork", objects, kib)
	}
}

// TestOneMemberPlanIsOneBuild: a group's first member runs on the fabric
// the group just built, so a one-member plan of a new prefix costs one
// fabric.New, the cycle-0 checkpoint the shelf keeps and one run — no
// restore or reseed (≈ 200 allocations more) — plus the plan's
// bookkeeping. Of a shelved prefix it costs one fork and the run, at most
// BenchmarkFabricReseed's 212 allocations plus 16, and no build. And
// whether a member runs on the build or forks off its checkpoint, a
// k-member group's results are k solo runs.
func TestOneMemberPlanIsOneBuild(t *testing.T) {
	cfg := spec(3, 1)
	bare := testing.AllocsPerRun(20, func() {
		f, err := fabric.New(cfg.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		f.Checkpoint()
		if _, err := f.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	})

	got := planCost(t, func() fabric.Config {
		first := cfg
		first.Cycles += newPrefix() // a prefix field: a first sighting
		return first
	}, 1, 0)
	t.Logf("one-member plan of a new prefix: %.0f allocations, fabric.New + Checkpoint + RunContext: %.0f", got, bare)
	// The plan, its slices, the claim loop's closure and a cancelable
	// context are ≈ 10 allocations, a few more under -race, whose
	// sync.Pool drops entries at random.
	if got > bare+24 {
		t.Errorf("a one-member plan of a new prefix allocates %.0f objects, fabric.New + Checkpoint + RunContext %.0f: want at most 24 more", got, bare)
	}
	repeat := cfg // Seed is not: each plan forks the shelved build
	got = planCost(t, func() fabric.Config { repeat.Seed++; return repeat }, 0, 1)
	t.Logf("one-member plan of a shelved prefix: %.0f allocations", got)
	if got > 212+16 {
		t.Errorf("a one-member plan of a shelved prefix allocates %.0f objects, want at most 212 + 16", got)
	}

	group := []fabric.Config{spec(3, 1), spec(4, 2), spec(5, 0.5)}
	p := mustPlan(t, group, Options{})
	if st := p.Stats(); st.Groups != 1 {
		t.Fatalf("plan built %d groups, want 1", st.Groups)
	}
	out, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range group {
		if got, want := resultJSON(t, out[i]), resultJSON(t, soloRun(t, s)); !bytes.Equal(got, want) {
			t.Errorf("member %d diverges from its solo run:\nplan: %s\nsolo: %s", i, got, want)
		}
	}
}

// sightings counts the prefixes newPrefix has handed out.
var sightings int

// newPrefix returns a number no earlier call returned, so a config that
// adds it to a prefix field is the process's first sighting of its
// prefix, under -count too.
func newPrefix() int {
	sightings++
	return sightings
}

// planCost returns the allocations of one one-member plan of next(), as
// testing.AllocsPerRun counts them, and requires each plan to cost builds
// fabric builds and forks forks.
func planCost(t *testing.T, next func() fabric.Config, builds, forks int64) float64 {
	t.Helper()
	run := func() {
		if _, err := mustPlan(t, []fabric.Config{next()}, Options{}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run() // shelves the prefix the repeats take, and warms what warms
	const plans = 20
	b0, f0 := Counters()
	allocs := testing.AllocsPerRun(plans, run)
	b1, f1 := Counters()
	// AllocsPerRun makes one warm-up call of its own.
	if b1-b0 != (plans+1)*builds || f1-f0 != (plans+1)*forks {
		t.Errorf("%d plans cost %d builds and %d forks, want %d and %d each", plans+1, b1-b0, f1-f0, builds, forks)
	}
	return allocs
}

// BenchmarkBatchMember measures one forked member of the sweep corpus end
// to end — Restore, SetLoadScale, Reseed, 600 cycles, Finish — on a fabric
// whose earlier members have already grown everything that grows. It
// times a group's later members, not the first, which runs on the fresh
// build.
func BenchmarkBatchMember(b *testing.B) {
	p, f, cp := forkRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.specs[0].Seed = uint64(i) + 2
		forkMember(b, p, f, cp)
	}
}
