package hetpnoc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hetpnoc/internal/fabric"
)

// TestRunWithTraceCarriesEvents: Config.EventCapacity promises the log in
// Result.Events on every run path, the traced one included.
func TestRunWithTraceCarriesEvents(t *testing.T) {
	cfg := Config{
		Architecture:  DHetPNoC,
		Traffic:       SkewedTraffic(2),
		Cycles:        2500,
		WarmupCycles:  500,
		EventCapacity: 256,
	}
	traced, err := RunWithTrace(cfg, nil, 500, func(Snapshot) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Events) == 0 {
		t.Fatal("RunWithTrace dropped the event log")
	}
	solo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Events, solo.Events) {
		t.Fatal("traced run's event log differs from Run's")
	}
}

// TestRunWithTraceMatchesRun: without remaps the traced run is Run — the
// observer only reads — whatever the observation interval, on every
// architecture; and it shows the snapshots the fabric shows when stepped
// by hand in the same windows.
func TestRunWithTraceMatchesRun(t *testing.T) {
	for _, arch := range []Architecture{Firefly, DHetPNoC, TorusPNoC} {
		cfg := Config{Architecture: arch, Traffic: SkewedTraffic(3), Cycles: 2500, WarmupCycles: 500, Seed: 7}
		want := canonical(t, reference(t, cfg, 0, nil))
		for _, tc := range []struct {
			name     string
			interval int64
			observed bool
		}{
			{"nil observer", 1, false},
			{"every cycle", 1, true},
			{"non-divisor interval", 700, true},
			{"interval beyond the run", 1 << 40, true},
		} {
			var seen, wantSeen []Snapshot
			var observe func(Snapshot)
			if tc.observed {
				observe = func(s Snapshot) { seen = append(seen, s) }
				reference(t, cfg, tc.interval, func(s Snapshot) { wantSeen = append(wantSeen, s) })
			}
			traced, err := RunWithTrace(cfg, nil, tc.interval, observe)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, traced); !bytes.Equal(got, want) {
				t.Errorf("%s, %s: traced result diverges from the solo run:\ntraced: %s\nsolo:   %s", arch, tc.name, got, want)
			}
			if !reflect.DeepEqual(seen, wantSeen) {
				t.Errorf("%s, %s: the observer saw %d snapshots, the hand-stepped fabric %d, or they differ", arch, tc.name, len(seen), len(wantSeen))
			}
		}
	}
}

// TestTraceIntervalInvariance: how often a run is observed changes
// neither the run nor what is seen. At intervals 1, 7 and 1000 the result
// is Run's, byte for byte, and a cycle two intervals share shows the same
// snapshot through both — at light load most of those cycles lie inside
// a span the fabric jumps over, which the interval cuts in different
// places, while the token keeps rotating and a remap falls due.
func TestTraceIntervalInvariance(t *testing.T) {
	light := Config{Architecture: DHetPNoC, BandwidthSet: 3, Traffic: UniformTraffic(), LoadScale: 0.05, Cycles: 6000, WarmupCycles: 1000, Seed: 5}
	for _, tc := range []struct {
		name   string
		cfg    Config
		remaps []TrafficRemap
	}{
		{"light load", light, nil},
		{"light load, remapped", light, []TrafficRemap{{AtCycle: 3500, Traffic: SkewedTraffic(2)}}},
		{"saturated", Config{Architecture: DHetPNoC, Traffic: SkewedTraffic(3), Cycles: 3000, WarmupCycles: 500, Seed: 5}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			if tc.remaps == nil {
				solo, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = solo.CanonicalJSON(); err != nil {
					t.Fatal(err)
				}
			}
			seen := map[int64]Snapshot{}
			rotated := false
			for _, interval := range []int64{1, 7, 1000} {
				res, err := RunWithTrace(tc.cfg, tc.remaps, interval, func(s Snapshot) {
					if first, ok := seen[s.Cycle]; !ok {
						seen[s.Cycle] = s
					} else if !reflect.DeepEqual(s, first) {
						t.Errorf("cycle %d at interval %d shows %+v, an earlier interval showed %+v", s.Cycle, interval, s, first)
					}
					rotated = rotated || s.TokenRotations > 0
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got // a run with remaps has no Run to match: the intervals must match each other
				}
				if !bytes.Equal(got, want) {
					t.Errorf("interval %d: result diverges:\ngot:  %s\nwant: %s", interval, got, want)
				}
				if res.PacketsDelivered == 0 {
					t.Error("the run delivered nothing")
				}
			}
			if !rotated {
				t.Error("no snapshot saw the token complete a rotation")
			}
		})
	}
}

// TestRunWithTraceSnapshotCadence: the observer fires exactly at the
// positive multiples of interval within the run, including the final
// cycle when it is one.
func TestRunWithTraceSnapshotCadence(t *testing.T) {
	cfg := Config{Cycles: 2000, WarmupCycles: 500}
	for _, tc := range []struct {
		interval int64
		want     []int64
	}{
		{500, []int64{500, 1000, 1500, 2000}},
		{700, []int64{700, 1400}},
		{2000, []int64{2000}},
		{2001, nil},
	} {
		var got []int64
		if _, err := RunWithTrace(cfg, nil, tc.interval, func(s Snapshot) { got = append(got, s.Cycle) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("interval %d: snapshots at cycles %v, want %v", tc.interval, got, tc.want)
		}
	}
}

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
