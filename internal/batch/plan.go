package batch

import (
	"fmt"
	"reflect"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// Plan is a deduplicated job list: the member configs in submission
// order, partitioned into groups that share one fabric build. Build one
// with NewPlan and execute it with Run; a Plan is immutable afterwards
// and may be Run any number of times (each Run builds fresh fabrics, so
// re-submitting a canceled plan is safe and reproduces results
// byte-identically).
type Plan struct {
	specs  []fabric.Config
	groups []group
	opts   Options
}

// group is one shared-prefix partition. members holds spec indices in
// submission order; members[0] is the base: its full config builds the
// group's fabric.
type group struct {
	members []int
}

// NewPlan validates the member configs, applies the fabric defaults to
// each, and partitions them into shared-prefix groups. Member order is
// preserved: Run's results align index-for-index with specs.
func NewPlan(specs []fabric.Config, opts Options) (*Plan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("batch: empty plan")
	}
	opts = opts.withDefaults()
	p := &Plan{specs: make([]fabric.Config, len(specs)), opts: opts}
	for i, spec := range specs {
		spec = spec.WithDefaults()
		if err := spec.Validate(); err != nil {
			return nil, memberError(i, spec, err)
		}
		p.specs[i] = spec
	}
	for i := range p.specs {
		placed := false
		for gi := range p.groups {
			base := p.specs[p.groups[gi].members[0]]
			if sharablePrefix(base, p.specs[i]) {
				p.groups[gi].members = append(p.groups[gi].members, i)
				placed = true
				break
			}
		}
		if !placed {
			p.groups = append(p.groups, group{members: []int{i}})
		}
	}
	return p, nil
}

// sharablePrefix reports whether two defaulted configs may share one
// fabric build. Everything that shapes the build — topology, bandwidth
// set, architecture, traffic pattern, router provisioning, energy
// model, DBA parameters, scheduled remaps — must match; only the fields
// the fork sequence re-applies may differ: the seed and the load scale.
func sharablePrefix(a, b fabric.Config) bool {
	if !patternsEqual(a.Pattern, b.Pattern) {
		return false
	}
	if !remapsEqual(a.Remaps, b.Remaps) {
		return false
	}
	// Mask the fields compared above and the legitimately-varying ones,
	// then let deep structural equality cover every remaining build
	// parameter — a field added to fabric.Config is conservatively
	// prefix-splitting by default.
	a.Pattern, b.Pattern = nil, nil
	a.Remaps, b.Remaps = nil, nil
	a.Seed, b.Seed = 0, 0
	a.LoadScale, b.LoadScale = 0, 0
	return reflect.DeepEqual(a, b)
}

// patternsEqual compares traffic patterns structurally. Patterns
// carrying closures (custom fixed assignments) compare unequal unless
// they are the same nil-free value, so configs whose equality cannot be
// proven never share a fabric — a missed dedup is a lost optimization,
// a false merge would be a wrong result.
func patternsEqual(a, b traffic.Pattern) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// remapsEqual compares scheduled remap lists element-wise.
func remapsEqual(a, b []fabric.Remap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].At != b[i].At || !patternsEqual(a[i].Pattern, b[i].Pattern) {
			return false
		}
	}
	return true
}
