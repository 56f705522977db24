package hetpnoc

import "testing"

// FuzzCheckpointRestore runs TestPathEquivalence's Checkpoint path on a
// fuzzed scenario: a random architecture, bandwidth set, workload, load,
// run length and checkpoint cycle, every value folded into the valid
// envelope (hostile inputs are FuzzConfigValidate's), so each iteration
// exercises the snapshot machinery, not Validate.
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

		fc, err := lower(cfg, nil)
		if err != nil {
			t.Fatalf("clamped config rejected: %v\n%+v", err, cfg)
		}
		sc := &scenario{fc: fc.WithDefaults(), cut: snap}
		sc.same(t, "restored a second time", checkpointPath(t, sc))
	})
}
