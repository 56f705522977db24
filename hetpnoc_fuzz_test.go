package hetpnoc

import (
	"testing"

	"hetpnoc/internal/fabric"
)

// FuzzConfigValidate holds Config.Validate to its contract: on any
// input, however hostile — out-of-range enums, NaN/Inf floats, negative
// cycle counts, wrong-length custom workloads — it must either return
// an error or accept a runnable config. It must never panic, and an
// accepted config must survive normalization and canonical encoding
// (the path every serving request takes before touching the pool) and
// build. The
// probe interval and a remap are derived from the fuzzed fields, so the
// committed corpus reaches them without a new argument.
func FuzzConfigValidate(f *testing.F) {
	// The Table 3-3 default point and one seed per enum arm.
	f.Add(int(DHetPNoC), 1, int(UniformRandom), 0, 0.0, "", 0.0, 1.0, 10000, 1000, uint64(1), 0.0, 0.0, 0)
	f.Add(int(Firefly), 2, int(SkewedKind), 3, 0.0, "", 0.0, 2.0, 2500, 500, uint64(7), 0.0, 0.0, 0)
	f.Add(int(TorusPNoC), 3, int(SkewedHotspotKind), 2, 0.2, "", 4.0, 0.5, 1000, 100, uint64(9), 0.0, 0.0, 0)
	f.Add(int(DHetPNoC), 1, int(PermutationKind), 0, 0.0, "transpose", 0.0, 1.0, 2000, 200, uint64(3), 0.0, 0.0, 0)
	f.Add(int(DHetPNoC), 2, int(CustomKind), 0, 0.0, "", 0.0, 1.0, 2000, 200, uint64(5), 8.0, 12.0, 17)
	// Hostile seeds: enum off the end, negative cycles, absurd load.
	f.Add(99, -1, 42, -7, -0.5, "no-such-permutation", -3.0, 1e308, -1, -1, uint64(0), -1.0, 1e308, -5)

	// A finite load scale past the fabric's bound: a batch fork always
	// refused it, so Validate must too.
	f.Add(int(DHetPNoC), 1, int(UniformRandom), 0, 0.0, "", 0.0, 1e13, 2000, 200, uint64(1), 0.0, 0.0, 0)
	// uniform@1e9: in the scale range, but 5e9 bits a cycle per core is
	// past the credit range, which Validate must see without a build.
	f.Add(int(DHetPNoC), 1, int(UniformRandom), 0, 0.0, "", 0.0, 1e9, 2000, 200, uint64(1), 0.0, 0.0, 0)
	// The probe at its byte bound: 238,312 rows of 352 B (the row width
	// of 16 clusters when the bound was set) fit in 80 MiB, one more
	// does not.
	f.Add(int(DHetPNoC), 1, int(UniformRandom), 0, 0.0, "", 0.0, 1.0, 238312, 1000, uint64(2), 0.0, 0.0, 1)
	f.Add(int(DHetPNoC), 1, int(UniformRandom), 0, 0.0, "", 0.0, 1.0, 238313, 1000, uint64(2), 0.0, 0.0, 1)

	f.Fuzz(func(t *testing.T, arch, set, kind, skew int,
		hotFrac float64, perm string, burst, load float64,
		cycles, warmup int, seed uint64,
		rate, demand float64, dest int) {
		cfg := Config{
			Architecture: Architecture(arch),
			BandwidthSet: set,
			Traffic: Traffic{
				Kind:            TrafficKind(kind),
				SkewLevel:       skew,
				HotspotFraction: hotFrac,
				Permutation:     perm,
				Burstiness:      burst,
			},
			LoadScale:    load,
			Cycles:       cycles,
			WarmupCycles: warmup,
			Seed:         seed,
		}
		if TrafficKind(kind) == CustomKind {
			// A 64-entry workload with the fuzzed spec in slot 0; the
			// remaining cores idle. Wrong lengths are separately covered
			// by the unit suite.
			cfg.Traffic.Custom = make([]CoreSpec, 64)
			cfg.Traffic.Custom[0] = CoreSpec{RateGbps: rate, DemandGbps: demand, Dests: []int{dest}}
		}
		cfg.ProbeEvery = int64(dest)
		if seed%2 == 1 {
			// The run's own traffic again, at a cycle that may lie
			// outside the run, ahead of a remap to the default.
			cfg.Remaps = []TrafficRemap{{AtCycle: int64(warmup) + int64(skew), Traffic: cfg.Traffic}, {AtCycle: int64(warmup)}}
		}
		if err := cfg.Validate(); err != nil {
			return // rejected is a fine outcome; panicking is not
		}
		// Accepted configs must normalize idempotently and encode.
		norm := cfg.Normalized()
		if err := norm.Validate(); err != nil {
			t.Fatalf("config validates but its normalized form does not: %v\n%+v", err, norm)
		}
		a, err := cfg.CanonicalJSON()
		if err != nil {
			t.Fatalf("valid config fails to encode: %v", err)
		}
		b, err := norm.CanonicalJSON()
		if err != nil {
			t.Fatalf("normalized config fails to encode: %v", err)
		}
		if string(a) != string(b) {
			t.Fatalf("canonical encoding is not normalization-stable:\n%s\n%s", a, b)
		}
		// An accepted config builds: lowered and passed to fabric.New.
		// The probe is left off, so a fuzzed interval allocates no rows.
		fc, err := lower(cfg)
		if err != nil {
			t.Fatalf("valid config fails to lower: %v", err)
		}
		fc.ProbeEvery = 0
		if _, err := fabric.New(fc); err != nil {
			t.Fatalf("config validates but does not build: %v\n%+v", err, cfg)
		}
	})
}
