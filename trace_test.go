package hetpnoc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hetpnoc/internal/fabric"
)

// TestRunWithTraceRejectsRemapOutsideRun: a remap before cycle 0 used to
// fire at cycle 0 and one at or past the last cycle never fired, both
// with a nil error; each is now refused by Validate with an error naming
// the cycle, and Run refuses it with the same error. The first and last
// cycles of the run stay legal.
func TestRunWithTraceRejectsRemapOutsideRun(t *testing.T) {
	for _, tc := range []struct {
		at int64
		ok bool
	}{
		{-5, false},
		{0, true},
		{1999, true},
		{2000, false},
		{1 << 40, false},
	} {
		cfg := Config{Cycles: 2000, WarmupCycles: 500, Remaps: []TrafficRemap{{AtCycle: tc.at, Traffic: SkewedTraffic(3)}}}
		err := cfg.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("remap at cycle %d refused: %v", tc.at, err)
		case !tc.ok && err == nil:
			t.Errorf("remap at cycle %d of a %d-cycle run accepted", tc.at, cfg.Cycles)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("cycle %d ", tc.at)):
			t.Errorf("remap at cycle %d: error %q does not name the cycle", tc.at, err)
		}
		if _, runErr := Run(cfg); fmt.Sprint(runErr) != fmt.Sprint(err) {
			t.Errorf("remap at cycle %d: Run returned %v, Validate %v", tc.at, runErr, err)
		}
	}
}

// TestRemapSpellingsShareCanonicalJSON: a remap's traffic is normalized
// like the run's, so two spellings of one run encode to one cache key,
// and a config without remaps or probe encodes as it did before either
// field existed.
func TestRemapSpellingsShareCanonicalJSON(t *testing.T) {
	key := func(c Config) string {
		b, err := c.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	skewed := Traffic{Kind: SkewedKind, SkewLevel: 3}
	a := Config{Remaps: []TrafficRemap{{AtCycle: 2000}, {AtCycle: 4000, Traffic: skewed}}}
	b := Config{Remaps: []TrafficRemap{
		{AtCycle: 2000, Traffic: Traffic{Kind: UniformRandom, SkewLevel: 2, Burstiness: 1}},
		{AtCycle: 4000, Traffic: Traffic{Kind: SkewedKind, SkewLevel: 3, HotspotFraction: 0.2, Permutation: "shuffle"}},
	}}
	if key(a) != key(b) {
		t.Errorf("two spellings of one remap schedule encode differently:\n%s\n%s", key(a), key(b))
	}
	if key(Config{Remaps: []TrafficRemap{}}) != key(Config{}) || strings.Contains(key(Config{}), "Remaps") || strings.Contains(key(Config{}), "ProbeEvery") {
		t.Errorf("a config without remaps or probe encodes as %s", key(Config{}))
	}
}

// TestNormalizedDefaultsMatchFabric: the public Normalized pass and the
// fabric's WithDefaults fill every field they share from the same table,
// so a zero Config and a zero fabric.Config select the same run.
func TestNormalizedDefaultsMatchFabric(t *testing.T) {
	lowered, err := lower(Config{}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	want := fabric.Config{}.WithDefaults()
	// Before the fabric's own defaulting pass: what Normalized chose.
	if lowered.LoadScale != want.LoadScale || lowered.Cycles != want.Cycles ||
		lowered.WarmupCycles != want.WarmupCycles || lowered.Seed != want.Seed {
		t.Errorf("Normalized run parameters (load %g, cycles %d, warm-up %d, seed %d) disagree with fabric defaults (load %g, cycles %d, warm-up %d, seed %d)",
			lowered.LoadScale, lowered.Cycles, lowered.WarmupCycles, lowered.Seed,
			want.LoadScale, want.Cycles, want.WarmupCycles, want.Seed)
	}
	if got := lowered.WithDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("zero Config lowers to\n%+v\nbut the fabric's zero value defaults to\n%+v", got, want)
	}
}
