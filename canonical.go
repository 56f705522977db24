package hetpnoc

import (
	"encoding/json"
	"fmt"
	"math"

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
// entry.
func (c Config) Normalized() Config {
	if c.Architecture == 0 {
		c.Architecture = DHetPNoC
	}
	if c.BandwidthSet == 0 {
		c.BandwidthSet = 1
	}
	if c.Traffic.Kind == 0 {
		c.Traffic.Kind = UniformRandom
	}
	// Burstiness at or below 1 leaves every source Markov-free, exactly
	// as 0 does; collapse the representations.
	if c.Traffic.Burstiness > 0 && c.Traffic.Burstiness <= 1 {
		c.Traffic.Burstiness = 0
	}
	// Zero the traffic fields the selected kind never reads, so stray
	// values cannot split cache entries for identical simulations.
	switch c.Traffic.Kind {
	case UniformRandom, RealApplication:
		c.Traffic.SkewLevel = 0
		c.Traffic.HotspotFraction = 0
		c.Traffic.Permutation = ""
		c.Traffic.Custom = nil
	case SkewedKind:
		c.Traffic.HotspotFraction = 0
		c.Traffic.Permutation = ""
		c.Traffic.Custom = nil
	case SkewedHotspotKind:
		c.Traffic.Permutation = ""
		c.Traffic.Custom = nil
	case PermutationKind:
		c.Traffic.SkewLevel = 0
		c.Traffic.HotspotFraction = 0
		c.Traffic.Custom = nil
	case CustomKind:
		c.Traffic.SkewLevel = 0
		c.Traffic.HotspotFraction = 0
		c.Traffic.Permutation = ""
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

// Validate reports the first configuration error without building the
// fabric, using the same lowering Run performs. A nil error means Run
// will accept the config (it may still fail on resource exhaustion for
// extreme cycle counts). The fuzz suite holds this to a stronger
// contract: Validate must return normally on any input, however hostile.
func (c Config) Validate() error {
	if err := checkFinite("load scale", c.LoadScale); err != nil {
		return err
	}
	if err := checkFinite("burstiness", c.Traffic.Burstiness); err != nil {
		return err
	}
	if err := checkFinite("hotspot fraction", c.Traffic.HotspotFraction); err != nil {
		return err
	}
	for i, spec := range c.Traffic.Custom {
		if err := checkFinite(fmt.Sprintf("core %d rate", i), spec.RateGbps); err != nil {
			return err
		}
		if err := checkFinite(fmt.Sprintf("core %d demand", i), spec.DemandGbps); err != nil {
			return err
		}
		if spec.RateGbps < 0 || spec.DemandGbps < 0 {
			return fmt.Errorf("hetpnoc: core %d: negative rate or demand", i)
		}
	}
	fc, err := lower(c, nil)
	if err != nil {
		return err
	}
	return fc.WithDefaults().Validate()
}

// checkFinite rejects the float values JSON cannot round-trip and the
// simulator cannot meaningfully consume.
func checkFinite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("hetpnoc: %s must be finite, got %g", what, v)
	}
	return nil
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
