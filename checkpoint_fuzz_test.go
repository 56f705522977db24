package hetpnoc

import (
	"fmt"
	"testing"
)

// FuzzCheckpointRestore runs TestPathEquivalence's Checkpoint path on a
// fuzzed scenario: a random architecture, bandwidth set, workload, load,
// run length and checkpoint cycle, every value folded into the valid
// envelope (hostile inputs are FuzzConfigValidate's), so each iteration
// exercises the snapshot machinery, not Validate. It then checks the
// round trip: a checkpoint taken right after a restore equals the one
// restored.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add(0, 1, 2, 6, 500, 100, 200, uint64(7), true)
	f.Add(1, 2, 0, 4, 300, 80, 40, uint64(3), false)
	f.Add(2, 3, 1, 8, 400, 50, 350, uint64(11), true)
	f.Add(0, 1, 3, 12, 600, 550, 560, uint64(1), false)

	f.Fuzz(func(t *testing.T, arch, set, skew, loadQuarters, cycles, warmup, snapAt int, seed uint64, events bool) {
		mod := func(v, n int) int { return ((v % n) + n) % n }
		archs := []Architecture{DHetPNoC, Firefly, TorusPNoC}
		cfg := Config{
			Architecture: archs[mod(arch, len(archs))],
			BandwidthSet: 1 + mod(set, 3),
			LoadScale:    0.25 * float64(1+mod(loadQuarters, 16)),
			Cycles:       64 + mod(cycles, 512),
			Seed:         seed,
		}
		cfg.WarmupCycles = 1 + mod(warmup, cfg.Cycles-1)
		if lvl := mod(skew, 4); lvl > 0 {
			cfg.Traffic = SkewedTraffic(lvl)
		} else {
			cfg.Traffic = UniformTraffic()
		}
		if events {
			cfg.EventCapacity = 64
		}
		snap := 1 + mod(snapAt, cfg.Cycles-1)

		fc, err := lower(cfg)
		if err != nil {
			t.Fatalf("clamped config rejected: %v\n%+v", err, cfg)
		}
		sc := &scenario{fc: fc.WithDefaults(), cut: snap}
		sc.same(t, "restored a second time", checkpointPath(t, sc))

		// %+v prints every value a checkpoint holds, and every pointer and
		// func in it as an address: on one fabric, equal dumps are equal
		// checkpoints, pointers to the same packets and funcs of the same
		// code (internal/fabric's TestCheckpointRoundTrip compares field
		// by field).
		fab := stepped(t, sc.fc, snap)
		cp := fab.Checkpoint()
		advance(t, fab, sc.fc.Cycles-snap)
		if err := fab.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", *fab.Checkpoint()), fmt.Sprintf("%+v", *cp); got != want {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("the checkpoint after a restore differs from the one restored at byte %d:\n got %.200s\nwant %.200s",
				i, got[max(0, i-80):], want[max(0, i-80):])
		}
	})
}
