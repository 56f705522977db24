package fabric

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hetpnoc/internal/core"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/router"
	"hetpnoc/internal/traffic"
)

// roundTripCase is a fabric, a cut at which it is checkpointed, and the
// run between the cut and the restore, which must move every piece of
// state the case is there to cover (ahead checks that).
type roundTripCase struct {
	name string
	cfg  Config
	cut  int
	// beforeCut runs just before the cut, once the fabric stands at
	// cut-10.
	beforeCut func(f *Fabric)
	// ahead runs the fabric on from the cut and returns what of the
	// state it failed to move.
	ahead func(t *testing.T, f *Fabric) error
}

// roundTripCases: a drop storm with a small event ring and short source
// queues (retransmissions, ring evictions, source-queue rejects, a
// remap), the proportional policy forked to a light load and another
// seed and stepped by StepContext so cycles are jumped, the torus's
// circuits, and a probed bursty run cut in the warm-up and finished past
// it before the restore (the measuring flags, the window's start and
// end, the probe's rows and columns). Between them they move every field
// of every component's state.
func roundTripCases() []roundTripCase {
	storm := dropStormConfig(DHetPNoC)
	storm.EventCapacity = 64
	storm.SourceQueueLimit = 2
	storm.Remaps = []Remap{{At: 2093, Pattern: traffic.Uniform{}}}

	proportional := Config{
		Arch: DHetPNoC, Set: traffic.BWSet1, ProportionalDBA: true,
		Pattern:      traffic.Skewed{Level: 3},
		Remaps:       []Remap{{At: 1500, Pattern: traffic.Skewed{Level: 1}}},
		WarmupCycles: 500, Seed: 13, EventCapacity: 256,
	}

	circuits := Config{Arch: TorusPNoC, Set: traffic.BWSet1, Pattern: traffic.Uniform{}, LoadScale: 1.5, Seed: 11, EventCapacity: 256}

	probed := Config{
		Arch: DHetPNoC, Set: traffic.BWSet3, Pattern: traffic.Bursty{Base: traffic.Uniform{}, Factor: 4},
		WarmupCycles: 1000, Seed: 5, EventCapacity: 256, ProbeEvery: 100,
	}

	return []roundTripCase{
		{name: "drop-storm", cfg: storm, cut: 2080,
			ahead: func(t *testing.T, f *Fabric) error {
				rejected, evicted, assignment := f.Totals().Rejected, f.Events().Evicted(), f.assignment.Name
				if f.PendingRetransmits() == 0 {
					return fmt.Errorf("no retransmission pending at the cut")
				}
				step(t, f, 400)
				switch {
				case f.Totals().Rejected == rejected:
					return fmt.Errorf("no source-queue reject after the cut")
				case f.Events().Evicted() == evicted:
					return fmt.Errorf("no event evicted from the ring after the cut")
				case f.assignment.Name == assignment:
					return fmt.Errorf("the remap did not fire after the cut")
				}
				return nil
			}},
		{name: "proportional", cfg: proportional, cut: 1400,
			ahead: func(t *testing.T, f *Fabric) error {
				tokenDemand := func() string { return fmt.Sprint(field(reflect.ValueOf(f), "dba", "tokenDemand")) }
				demand, skipped := tokenDemand(), f.SkippedCycles()
				if err := f.SetLoadScale(0.05); err != nil {
					t.Fatal(err)
				}
				if err := f.Reseed(99); err != nil {
					t.Fatal(err)
				}
				jump(t, f, 4000) // the skewed backlog drains for ~3,000 cycles first
				switch {
				case tokenDemand() == demand:
					return fmt.Errorf("the token's demand field did not change after the cut")
				case f.SkippedCycles() == skipped:
					return fmt.Errorf("StepContext jumped no cycle after the cut")
				}
				return nil
			}},
		{name: "torus", cfg: circuits, cut: 1300,
			ahead: func(t *testing.T, f *Fabric) error {
				setUp := f.torus.PathsSetUp()
				step(t, f, 400)
				if f.torus.PathsSetUp() == setUp {
					return fmt.Errorf("no circuit was set up after the cut")
				}
				return nil
			}},
		{name: "prewarmup-probed", cfg: probed, cut: 700,
			ahead: func(t *testing.T, f *Fabric) error {
				step(t, f, 601) // odd: BW3's token takes two cycles a hop
				res, err := f.Finish()
				if err != nil {
					t.Fatal(err)
				}
				switch row := int(f.Now())/100 - 1; {
				case res.Stats.PacketsDelivered == 0:
					return fmt.Errorf("no packet was delivered in the measured window after the cut")
				case res.Probe.Rows[row].PacketsDelivered == 0 || res.Probe.Rows[row].TokenRotations == res.Probe.Rows[row-6].TokenRotations:
					return fmt.Errorf("the probe rows written after the cut recorded no delivery or no token rotation")
				}
				return nil
			}},
	}
}

// TestCheckpointRoundTrip: a fabric restored, after it ran on, to the
// checkpoint taken at a cut equals a third fabric stepped straight to
// the cut — the whole of it, through every pointer, slice, map and
// interface (fabricDiff), so a restore leaves no field behind. A twin
// fabric run through the same steps shows that no run,
// before the restore or after it, changes a checkpoint taken earlier —
// the one restored or a later one — so no checkpoint shares storage with
// the live fabric.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			cut := func() (*Fabric, *Checkpoint) {
				f := warmed(t, tc.cfg, tc.cut-10)
				if tc.beforeCut != nil {
					tc.beforeCut(f)
				}
				jump(t, f, 10)
				return f, f.Checkpoint()
			}
			f, cp := cut()
			twin, twinCP := cut()
			ref, _ := cut()
			if err := tc.ahead(t, f); err != nil {
				t.Fatalf("the case no longer covers what it is for: %v", err)
			}
			if err := tc.ahead(t, twin); err != nil {
				t.Fatal(err)
			}
			later, twinLater := f.Checkpoint(), twin.Checkpoint()
			if d := stateDiff(cp, later, true); d == "" {
				t.Fatal("running on from the cut changed nothing a checkpoint holds")
			}
			if d := stateDiff(cp, twinCP, false); d != "" {
				t.Fatalf("running on from the cut changed the checkpoint at %s", d)
			}
			if err := f.Restore(cp); err != nil {
				t.Fatal(err)
			}
			if d := fabricDiff(f, ref); d != "" {
				t.Fatalf("the restored fabric differs from one stepped straight to the cut at %s", d)
			}
			step(t, f, 300)
			if d := stateDiff(cp, twinCP, false); d != "" {
				t.Fatalf("running on after the restore changed the checkpoint restored at %s", d)
			}
			if d := stateDiff(later, twinLater, false); d != "" {
				t.Fatalf("running on after the restore changed a later checkpoint at %s", d)
			}
		})
	}
	t.Run("reseeded-branches", reseededBranches)
}

// reseededBranches forks two branches off one older checkpoint under
// different seeds, with the probe on: restore the older checkpoint,
// reseed, step and take a newer checkpoint; restore the older one again,
// reseed otherwise and step; then restore the newer one and finish. A
// twin that ran the first branch straight through must end the same. A
// copy that shares a slice with the live fabric (the collector's
// latencies, the probe's columns) lets the second branch write into the
// newer checkpoint's storage, which a twin run through the same steps
// cannot show, since it writes the same values.
func reseededBranches(t *testing.T) {
	// Bursty sources keep the network contended, so the two seeds
	// deliver packets of different latencies within a branch. At cycle
	// 1800 the collector's latencies have room to grow in place for
	// longer than a branch: a shared array would be written by both.
	cfg := Config{
		Arch: DHetPNoC, Set: traffic.BWSet1, Pattern: traffic.Bursty{Base: traffic.Uniform{}, Factor: 4},
		Cycles: 3000, WarmupCycles: 500, Seed: 3, EventCapacity: 256, ProbeEvery: 50,
	}
	start := func() *Fabric {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		step(t, f, 1800)
		return f
	}
	branch := func(f *Fabric, cp *Checkpoint, seed uint64) {
		if err := f.Restore(cp); err != nil {
			t.Fatal(err)
		}
		if err := f.Reseed(seed); err != nil {
			t.Fatal(err)
		}
		step(t, f, 400)
	}
	finish := func(f *Fabric) Result {
		jump(t, f, cfg.Cycles-int(f.Now()))
		res, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	f, twin := start(), start()
	older := f.Checkpoint()
	branch(f, older, 2)
	branch(twin, twin.Checkpoint(), 2)
	newer, twinNewer := f.Checkpoint(), twin.Checkpoint()
	branch(f, older, 4)
	if d := stateDiff(newer, twinNewer, false); d != "" {
		t.Errorf("a branch off the older checkpoint changed the newer one at %s", d)
	}
	if err := f.Restore(newer); err != nil {
		t.Fatal(err)
	}
	got, want := finish(f), finish(twin)
	if len(got.Probe.Rows) != cfg.Cycles/int(cfg.ProbeEvery) || got.Stats.PacketsDelivered == 0 {
		t.Fatalf("the run probed %d rows and delivered %d packets; want every row and some packets", len(got.Probe.Rows), got.Stats.PacketsDelivered)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("finishing off the restored newer checkpoint gives\n%+v\nthe twin run straight through\n%+v", got, want)
	}
}

// step runs f n cycles with Step.
func step(t *testing.T, f *Fabric, n int) {
	t.Helper()
	for range n {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// jump runs f n cycles with StepContext, which may jump idle cycles.
func jump(t *testing.T, f *Fabric, n int) {
	t.Helper()
	if err := f.StepContext(context.Background(), n); err != nil {
		t.Fatal(err)
	}
}

// field follows names down from v, through pointers.
func field(v reflect.Value, names ...string) reflect.Value {
	for _, name := range names {
		v = reflect.Indirect(v).FieldByName(name)
	}
	return v
}

// stateDiff names the first place checkpoints a and b differ, or returns
// "". It is reflect.DeepEqual but for three rules. A func is compared by
// its code pointer: a func value's captures are out of reflection's
// reach, and a checkpoint copies the func value (a traffic profile's
// PickDest closure), never rebuilds it. A nil slice equals an empty one,
// since a copy need not keep the distinction. Floats are compared bit
// for bit. Pointers are followed when a and b come from one fabric; the
// checkpoints of twin fabrics point into different ones, so there only
// the values the checkpoints hold themselves are compared.
func stateDiff(a, b *Checkpoint, oneFabric bool) string {
	return diffValues(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), oneFabric, "cp")
}

// diffValues is stateDiff for any two values of one type.
func diffValues(a, b reflect.Value, follow bool, path string) string {
	return (&differ{follow: follow, seen: make(map[[2]uintptr]bool)}).diff(a, b, path)
}

// fabricDiff names the first place fabrics a and b differ, following
// every pointer, slice, map and interface, or returns "". Besides
// stateDiff's rules it leaves out the fields of restoreMayDiffer and
// compares the types of comparedAs by what they hold.
func fabricDiff(a, b *Fabric) string {
	return diffValues(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), true, "f")
}

// restoreMayDiffer lists the only fields in which a restored fabric may
// differ from one stepped straight to the cut, each with its reason.
var restoreMayDiffer = map[reflect.Type]map[string]string{
	reflect.TypeFor[router.Router](): {
		"outMask": "per-Tick scratch, rewritten before it is read",
		"budget":  "per-Tick scratch, rewritten before it is read",
		"quiet":   "quiescence hint: rebuildLive clears it, and a quiet router only skips a Tick that grants nothing",
		"wakeAt":  "quiescence hint, read only while quiet",
		"liveAny": "lazy summary of liveMask: rebuildLive resets it, and a set bit only costs a look at zero words",
	},
	reflect.TypeFor[core.Allocator](): {
		"currentFor": "Restore invalidates it to -1 by design, so the next visit restamps current",
	},
}

// comparedAs maps a type to the named parts it is compared by, in place
// of its fields, for storage whose layout a restore need not reproduce.
// The value must be addressable.
var comparedAs = map[reflect.Type]func(v reflect.Value) []part{
	// A queue is its FIFO contents, not where in its ring they sit.
	reflect.TypeFor[packet.Queue](): func(v reflect.Value) []part {
		return []part{{"fifo", reflect.ValueOf(addr[packet.Queue](v).Snapshot(nil))}}
	},
	// A pool is its fields but the chunks, and the used slots: slots at
	// or past used are stale storage that the next Get zeroes.
	reflect.TypeFor[packet.Pool](): func(v reflect.Value) []part {
		var parts []part
		for i := range v.NumField() {
			if name := v.Type().Field(i).Name; name != "chunks" {
				parts = append(parts, part{name, v.Field(i)})
			}
		}
		var bookkeeping packet.PoolSnapshot
		return append(parts, part{"slots", reflect.ValueOf(addr[packet.Pool](v).Snapshot(&bookkeeping, nil))})
	},
}

// part is one named part of a value compared by comparedAs.
type part struct {
	name string
	v    reflect.Value
}

// addr returns the address of v, which may have been reached through
// unexported fields.
func addr[T any](v reflect.Value) *T { return (*T)(v.Addr().UnsafePointer()) }

type differ struct {
	follow bool
	seen   map[[2]uintptr]bool // pointer pairs under comparison: cycles end there
}

func (d *differ) diff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			return path
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if !d.follow || a.Pointer() == b.Pointer() {
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if d.seen[key] {
			return ""
		}
		d.seen[key] = true
		return d.diff(a.Elem(), b.Elem(), "(*"+path+")")
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path
		}
		return d.diff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		if as := comparedAs[a.Type()]; as != nil {
			pb := as(b)
			for i, pa := range as(a) {
				if p := d.diff(pa.v, pb[i].v, path+"."+pa.name); p != "" {
					return p
				}
			}
			return ""
		}
		mayDiffer := restoreMayDiffer[a.Type()]
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if _, ok := mayDiffer[name]; ok {
				continue
			}
			if p := d.diff(a.Field(i), b.Field(i), path+"."+name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d, %d)", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if p := d.diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (size %d, %d)", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]", path, it.Key())
			}
			if p := d.diff(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key())); p != "" {
				return p
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s (%v, %v)", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d, %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d, %d)", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v, %v)", path, a.Float(), b.Float())
		}
	case reflect.Complex64, reflect.Complex128:
		if a.Complex() != b.Complex() {
			return fmt.Sprintf("%s (%v, %v)", path, a.Complex(), b.Complex())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q, %q)", path, a.String(), b.String())
		}
	default:
		panic(fmt.Sprintf("stateDiff: %s has unhandled kind %s", path, a.Kind()))
	}
	return ""
}
