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
// with a nil error; each is now refused with an error naming the cycle.
// The first and last cycles of the run stay legal.
func TestRunWithTraceRejectsRemapOutsideRun(t *testing.T) {
	cfg := Config{Cycles: 2000, WarmupCycles: 500}
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
		_, err := RunWithTrace(cfg, []TrafficRemap{{AtCycle: tc.at, Traffic: SkewedTraffic(3)}}, 1000, nil)
		switch {
		case tc.ok && err != nil:
			t.Errorf("remap at cycle %d refused: %v", tc.at, err)
		case !tc.ok && err == nil:
			t.Errorf("remap at cycle %d of a %d-cycle run accepted", tc.at, cfg.Cycles)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("cycle %d ", tc.at)):
			t.Errorf("remap at cycle %d: error %q does not name the cycle", tc.at, err)
		}
	}
}

// TestNormalizedDefaultsMatchFabric: the public Normalized pass and the
// fabric's WithDefaults fill every field they share from the same table,
// so a zero Config and a zero fabric.Config select the same run.
func TestNormalizedDefaultsMatchFabric(t *testing.T) {
	lowered, err := lower(Config{}.Normalized(), nil)
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
