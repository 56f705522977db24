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
// reaches the most VCs and the packet pool grows furthest — with its
// cycle-0 checkpoint, and runs the member twice, so the packet pool, the
// source queues and every other amortised structure have peaked before
// anything is measured.
func forkRig(tb testing.TB) (*fabric.Fabric, *fabric.Checkpoint, fabric.Config) {
	tb.Helper()
	cfg := spec(1, 2)
	cfg.Pattern = traffic.Skewed{Level: 2}
	cfg = cfg.WithDefaults()
	f, err := fabric.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cp := f.Checkpoint()
	for range 2 {
		if _, err := runMember(context.Background(), f, cp, cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return f, cp, cfg
}

// TestForkAllocatesNoBuffers: once a group's first member has run,
// replaying a member allocates no buffer storage. What a fork still
// allocates is Reseed's pattern assignment and sources and the result:
// 206 objects and 19 KiB measured, bounded here with a quarter of
// headroom. A VC that stores flits again re-grows its storage on every
// fork — the ring that doubled toward depth 64 cost this member 1,087
// objects and 384 KiB — and fails this.
func TestForkAllocatesNoBuffers(t *testing.T) {
	f, cp, cfg := forkRig(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := runMember(context.Background(), f, cp, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	objects, kib := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/1024
	t.Logf("one forked member: %d objects, %d KiB", objects, kib)
	if objects >= 260 || kib >= 25 {
		t.Fatalf("a forked member allocated %d objects and %d KiB, want < 260 and < 25: something re-grows per fork", objects, kib)
	}
}

// BenchmarkBatchMember measures one forked member of the sweep corpus end
// to end — Restore, SetLoadScale, Reseed, 600 cycles, Finish — on a fabric
// whose earlier members have already grown everything that grows.
func BenchmarkBatchMember(b *testing.B) {
	f, cp, cfg := forkRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 2
		if _, err := runMember(context.Background(), f, cp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
