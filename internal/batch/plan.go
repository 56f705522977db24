package batch

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"

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

// group is one shared-prefix partition. members holds the spec indices
// of its distinct configs in submission order; members[0] is the base:
// its full config builds the group's fabric. Each repeat is a member
// whose config is an earlier member's, its twin's.
type group struct {
	members []int
	repeats []repeat
}

type repeat struct{ slot, twin int }

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
		gi := slices.IndexFunc(p.groups, func(g group) bool { return sharablePrefix(p.specs[g.members[0]], p.specs[i]) })
		if gi < 0 {
			p.groups = append(p.groups, group{members: []int{i}})
		} else {
			p.groups[gi].add(p.specs, i)
		}
	}
	return p, nil
}

// add puts member i, which shares g's prefix, into g: the prefix masks
// only the seed and the load scale, so i repeats the first member with
// its seed and load, if there is one.
func (g *group) add(specs []fabric.Config, i int) {
	for _, mi := range g.members {
		if specs[mi].Seed == specs[i].Seed && specs[mi].LoadScale == specs[i].LoadScale {
			g.repeats = append(g.repeats, repeat{slot: i, twin: mi})
			return
		}
	}
	g.members = append(g.members, i)
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
