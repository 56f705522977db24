package batch

import (
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
