package batch

import (
	"fmt"
	"reflect"
	"runtime"

	"hetpnoc/internal/fabric"
)

// Plan is a deduplicated job list: the member configs in submission
// order, partitioned into groups that share one fabric build. Build one
// with NewPlan and execute it with Run; a Plan is immutable afterwards
// and may be Run any number of times (every member starts from a
// pristine cycle-0 state, so re-submitting a canceled plan is safe and
// reproduces results byte-identically).
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
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Plan{specs: make([]fabric.Config, len(specs)), opts: opts}
	for i, spec := range specs {
		p.specs[i] = spec.WithDefaults()
		if err := p.specs[i].Validate(); err != nil {
			return nil, p.memberError(i, err)
		}
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
// fabric build. It is the module's one definition of a build prefix:
// NewPlan groups members by it and take matches shelved builds by it,
// and no layer above decides what may share — the root package and
// hetpnocd submit configs and let the plan find the sharing. All that
// shapes the build — topology, bandwidth set, architecture, traffic
// pattern, router provisioning, DBA parameters, scheduled remaps, the
// probe interval — must match; only the fields the fork sequence
// re-applies may differ: the seed and the load scale. Energy constants
// are not in a config at all: a run counts, and its counts are priced
// when the result is read.
//
// With those two masked, deep structural equality covers every build
// parameter, so a field added to fabric.Config is conservatively
// prefix-splitting by default. Patterns
// (the traffic and every remap's) compare by type and contents: one
// carrying closures, like a traffic.Fixed assignment, never equals a
// separately built one — a missed dedup is a lost optimization, a false
// merge would be a wrong result. The public API's custom traffic is
// traffic.Custom, plain data, so equal custom workloads do share.
func sharablePrefix(a, b fabric.Config) bool {
	if reflect.TypeOf(a.Pattern) != reflect.TypeOf(b.Pattern) || a.Arch != b.Arch ||
		a.Set.Name != b.Set.Name || a.Cycles != b.Cycles || a.WarmupCycles != b.WarmupCycles {
		// The cheap rejects, ahead of DeepEqual's bookkeeping (it boxes
		// both configs): a shelf scan meets mostly other shapes.
		return false
	}
	a.Seed, b.Seed = 0, 0
	a.LoadScale, b.LoadScale = 0, 0
	if len(a.Remaps) == 0 && len(b.Remaps) == 0 {
		a.Remaps, b.Remaps = nil, nil
	}
	return reflect.DeepEqual(a, b)
}
