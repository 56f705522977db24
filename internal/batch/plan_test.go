package batch

import (
	"strings"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// spec builds a minimal valid member config; the fabric defaults fill
// the rest identically for every call, so two specs share a build
// prefix exactly when their explicit fields (beyond seed and load) do.
func spec(seed uint64, load float64) fabric.Config {
	return fabric.Config{
		Pattern:      traffic.Uniform{},
		LoadScale:    load,
		Cycles:       600,
		WarmupCycles: 150,
		Seed:         seed,
	}
}

func mustPlan(t testing.TB, specs []fabric.Config, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(specs, opts)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	return p
}

func TestPlanGroupsBySharedPrefix(t *testing.T) {
	bursty := spec(1, 1)
	bursty.Pattern = traffic.Skewed{Level: 2}
	firefly := spec(1, 1)
	firefly.Arch = fabric.Firefly
	longer := spec(1, 1)
	longer.Cycles = 900

	specs := []fabric.Config{
		spec(1, 1), spec(2, 1), spec(1, 2), spec(9, 0.5), // one build prefix
		bursty,  // pattern splits
		firefly, // architecture splits
		longer,  // cycle count splits
	}
	p := mustPlan(t, specs, Options{})
	st := p.Stats()
	if st.Members != len(specs) || st.Groups != 4 || st.LargestGroup != 4 {
		t.Errorf("stats = %+v, want 7 members in 4 groups, largest 4", st)
	}
}

func TestPlanRemapGrouping(t *testing.T) {
	remapA := spec(1, 1)
	remapA.Remaps = []fabric.Remap{{At: 300, Pattern: traffic.Skewed{Level: 2}}}
	remapB := spec(2, 1)
	remapB.Remaps = []fabric.Remap{{At: 300, Pattern: traffic.Skewed{Level: 2}}}
	remapC := spec(3, 1)
	remapC.Remaps = []fabric.Remap{{At: 400, Pattern: traffic.Skewed{Level: 2}}}

	p := mustPlan(t, []fabric.Config{remapA, remapB, remapC, spec(4, 1)}, Options{})
	if st := p.Stats(); st.Groups != 3 || st.LargestGroup != 2 {
		t.Errorf("remap stats = %+v, want 3 groups, largest 2 (equal remap schedules share)", st)
	}
}

func TestPlanMemberOrderPreserved(t *testing.T) {
	specs := []fabric.Config{spec(3, 1), spec(1, 2), spec(2, 1)}
	p := mustPlan(t, specs, Options{})
	for i, want := range []uint64{3, 1, 2} {
		if got := p.specs[i].Seed; got != want {
			t.Errorf("spec %d has seed %d, want %d", i, got, want)
		}
	}
}

func TestPlanRejectsEmptyAndInvalid(t *testing.T) {
	if _, err := NewPlan(nil, Options{}); err == nil {
		t.Error("NewPlan(nil) succeeded, want error")
	}
	bad := spec(1, 1)
	bad.LoadScale = -1
	_, err := NewPlan([]fabric.Config{spec(1, 1), bad}, Options{})
	if err == nil {
		t.Fatal("NewPlan with invalid member succeeded, want error")
	}
	if !strings.Contains(err.Error(), "member 1") {
		t.Errorf("error %q does not name the offending member", err)
	}
}

// FuzzBatchPlan holds NewPlan's partition invariants on arbitrary job
// lists: every member lands in exactly one group, every member shares a
// prefix with its group's base, and grouping is deterministic. The
// inputs drive the config fields the prefix comparison masks or splits
// on.
func FuzzBatchPlan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x41})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 32 {
			t.Skip()
		}
		specs := make([]fabric.Config, len(raw))
		for i, b := range raw {
			s := spec(uint64(b&0x03)+1, float64(b>>2&0x03)+1)
			if b&0x10 != 0 {
				s.Arch = fabric.Firefly
			}
			if b&0x20 != 0 {
				s.Cycles = 800
			}
			if b&0x40 != 0 {
				s.Pattern = traffic.Skewed{Level: 2}
			}
			if b&0x80 != 0 {
				s.Remaps = []fabric.Remap{{At: 200, Pattern: traffic.Uniform{}}}
			}
			specs[i] = s
		}
		p, err := NewPlan(specs, Options{})
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		seen := make(map[int]bool)
		for _, g := range p.groups {
			if len(g.members) == 0 {
				t.Fatal("empty group")
			}
			base := p.specs[g.members[0]]
			for _, mi := range g.members {
				if seen[mi] {
					t.Fatalf("member %d appears in two groups", mi)
				}
				seen[mi] = true
				if !sharablePrefix(base, p.specs[mi]) {
					t.Fatalf("member %d grouped with a base it may not share a fabric with", mi)
				}
			}
		}
		if len(seen) != len(specs) {
			t.Fatalf("partition covers %d of %d members", len(seen), len(specs))
		}
		// Grouping is pure: replanning the same inputs yields the same
		// partition (no map iteration or shared mutable state involved).
		q, err := NewPlan(specs, Options{})
		if err != nil {
			t.Fatalf("NewPlan (replay): %v", err)
		}
		if len(q.groups) != len(p.groups) {
			t.Fatalf("replay built %d groups, first plan %d", len(q.groups), len(p.groups))
		}
		for gi := range p.groups {
			if len(q.groups[gi].members) != len(p.groups[gi].members) {
				t.Fatalf("group %d size differs between identical plans", gi)
			}
			for mi := range p.groups[gi].members {
				if q.groups[gi].members[mi] != p.groups[gi].members[mi] {
					t.Fatalf("group %d member %d differs between identical plans", gi, mi)
				}
			}
		}
	})
}
