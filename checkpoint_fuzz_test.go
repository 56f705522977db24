package hetpnoc

import (
	"bytes"
	"testing"
)

// FuzzCheckpointRestore fuzzes checkpoint fidelity over the valid
// configuration space: for a random architecture, bandwidth set,
// workload, load, run length and checkpoint cycle, a run that takes a
// checkpoint must match the uncheckpointed reference byte-for-byte
// (taking a checkpoint never perturbs), and restoring the checkpoint and
// re-stepping the remainder must reproduce the same canonical result —
// Result.CanonicalJSON and the event log compared exactly. Hostile
// out-of-range inputs are FuzzConfigValidate's subject; here every
// fuzzed value is folded into the valid envelope so each iteration
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
		fc = fc.WithDefaults()

		// Reference: the uninterrupted run, one Step at a time.
		ref := buildFabric(t, fc)
		stepN(t, ref, fc.Cycles)
		refJSON, refEvents := finishCanonical(t, ref)

		// Checkpointed run, through StepContext and its jumps: taking the
		// checkpoint must not perturb it.
		g := buildFabric(t, fc)
		runN(t, g, snap)
		cp := g.Checkpoint()
		runN(t, g, fc.Cycles-snap)
		gotJSON, gotEvents := finishCanonical(t, g)
		if !bytes.Equal(refJSON, gotJSON) {
			t.Fatalf("checkpoint at cycle %d perturbed the run:\nref: %s\ngot: %s", snap, refJSON, gotJSON)
		}
		if refEvents != gotEvents {
			t.Fatalf("checkpoint at cycle %d perturbed the event log", snap)
		}

		// Restore and re-step: byte-identical to the uncheckpointed run.
		if err := g.Restore(cp); err != nil {
			t.Fatal(err)
		}
		runN(t, g, fc.Cycles-snap)
		redoJSON, redoEvents := finishCanonical(t, g)
		if !bytes.Equal(refJSON, redoJSON) {
			t.Fatalf("restored run diverged (checkpoint at %d):\nref: %s\ngot: %s", snap, refJSON, redoJSON)
		}
		if refEvents != redoEvents {
			t.Fatalf("restored run's event log diverged (checkpoint at %d)", snap)
		}
	})
}
