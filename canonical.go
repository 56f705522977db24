package hetpnoc

import (
	"encoding/json"
	"slices"

	"hetpnoc/internal/fabric"
)

// This file defines the canonical encodings the serving layer is built
// on. Two Configs that select the same simulation normalize to the same
// bytes (so a result cache can deduplicate them), and a Result's
// canonical encoding is byte-identical across runs of the same
// config+seed — the determinism guarantee the differential tests
// enforce and docs/SERVING.md documents.

// Normalized returns the config with every zero-valued optional field
// replaced by the default it selects (the Table 3-3 settings, matching
// Run's behaviour exactly). Two configs that normalize identically
// simulate identically; the serving cache keys on the normalized form so
// an explicit `{"bandwidthSet": 1}` and an omitted one share a cache
// entry. Each remap's traffic is normalized like the run's.
func (c Config) Normalized() Config {
	if c.Architecture == 0 {
		c.Architecture = DHetPNoC
	}
	if c.BandwidthSet == 0 {
		c.BandwidthSet = 1
	}
	c.Traffic = c.Traffic.normalized()
	c.Remaps = slices.Clone(c.Remaps)
	for i := range c.Remaps {
		c.Remaps[i].Traffic = c.Remaps[i].Traffic.normalized()
	}
	if c.LoadScale == 0 {
		c.LoadScale = fabric.DefaultLoadScale
	}
	if c.Cycles == 0 {
		c.Cycles = fabric.DefaultCycles
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = fabric.DefaultWarmupCycles
	}
	if c.Seed == 0 {
		c.Seed = fabric.DefaultSeed
	}
	return c
}

// normalized returns the traffic with its kind's default filled in and
// only the fields that kind reads kept, so stray values cannot split
// cache entries for identical simulations. An unknown kind, which no
// run accepts, is left as it is.
func (t Traffic) normalized() Traffic {
	if t.Kind == 0 {
		t.Kind = UniformRandom
	}
	// Burstiness at or below 1 leaves every source Markov-free, exactly
	// as 0 does; collapse the representations.
	if t.Burstiness > 0 && t.Burstiness <= 1 {
		t.Burstiness = 0
	}
	n := Traffic{Kind: t.Kind, Burstiness: t.Burstiness}
	switch t.Kind {
	case UniformRandom, RealApplication:
	case SkewedKind:
		n.SkewLevel = t.SkewLevel
	case SkewedHotspotKind:
		n.SkewLevel, n.HotspotFraction = t.SkewLevel, t.HotspotFraction
	case PermutationKind:
		n.Permutation = t.Permutation
	case CustomKind:
		n.Custom = t.Custom
	default:
		return t
	}
	return n
}

// Validate reports the first configuration error without building the
// fabric: it is the lowering and the checks Run performs, remaps
// included. A nil error means Run will accept the config. It may still
// fail on resource exhaustion for extreme cycle counts. The fuzz suite
// holds this to a stronger contract: Validate must return normally on
// any input, however hostile, and a config it accepts must build.
func (c Config) Validate() error {
	fc, err := lower(c)
	if err != nil {
		return err
	}
	return fc.WithDefaults().Validate()
}

// CanonicalJSON returns the deterministic byte encoding of the
// normalized config: struct fields in declaration order, map-free, with
// Go's shortest float representation. Equal simulations yield equal
// bytes; the serving cache derives its SHA-256 keys from them.
func (c Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c.Normalized())
}

// CanonicalJSON returns the deterministic byte encoding of the result.
// encoding/json sorts map keys (the energy breakdown), so two Results
// with equal contents encode to equal bytes; the differential tests use
// this to enforce the simulator's bit-exact determinism end to end.
func (r Result) CanonicalJSON() ([]byte, error) {
	return json.Marshal(r)
}
