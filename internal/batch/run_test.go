package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/testutil/leakcheck"
	"hetpnoc/internal/traffic"
)

// soloRun executes one member config on its own fresh fabric — the
// reference every plan member must match byte-for-byte, event log
// included.
func soloRun(t testing.TB, cfg fabric.Config) fabric.Result {
	t.Helper()
	f, err := fabric.New(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("solo fabric.New: %v", err)
	}
	res, err := f.RunContext(context.Background())
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return res
}

func resultJSON(t testing.TB, res fabric.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestPristineForkMatchesSolo drives the engine at the fabric layer —
// including a remap scheduled AFTER the fork point, so the remap timer
// re-arms correctly on every restore and draws the member's own RNG
// stream — and requires byte-identical results and event logs against
// per-config solo runs. The second group forks between 5 % load, where
// the sources rest for a thousand cycles and the run is mostly jumps, and
// 200 %, where they never do: Reseed must restart every source's
// look-ahead, and the fabric's, from the fork cycle.
func TestPristineForkMatchesSolo(t *testing.T) {
	remapped := func(seed uint64, load float64) fabric.Config {
		s := spec(seed, load)
		s.EventCapacity = 256
		s.Remaps = []fabric.Remap{{At: 300, Pattern: traffic.Skewed{Level: 2}}}
		return s
	}
	light := func(seed uint64, load float64) fabric.Config {
		s := remapped(seed, load)
		s.Set = traffic.BWSet3
		s.Cycles = 3000
		return s
	}
	for _, group := range []struct {
		name  string
		specs []fabric.Config
	}{
		{"loaded", []fabric.Config{remapped(1, 1), remapped(5, 1), remapped(1, 2), remapped(5, 0.75)}},
		{"light-heavy", []fabric.Config{light(1, 0.05), light(5, 2), light(5, 0.05), light(1, 2)}},
	} {
		name, specs := group.name, group.specs
		p := mustPlan(t, specs, Options{})
		if st := p.Stats(); st.Groups != 1 {
			t.Fatalf("%s: plan built %d groups, want 1 (seeds and loads vary freely, remap schedules match)", name, st.Groups)
		}
		out, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		for i, s := range specs {
			want := soloRun(t, s)
			if len(want.Events) == 0 {
				t.Fatalf("%s: member %d logged no events; the event-log comparison is vacuous", name, i)
			}
			if got, want := resultJSON(t, out[i]), resultJSON(t, want); !bytes.Equal(got, want) {
				t.Errorf("%s: member %d diverges from solo run (event log included):\nbatch: %s\nsolo:  %s", name, i, got, want)
			}
		}
	}
}

// sameAtEveryWorkerCount runs specs at worker counts 1, 2 and
// GOMAXPROCS and reports whether every member's bytes agree.
func sameAtEveryWorkerCount(t *testing.T, specs []fabric.Config) bool {
	t.Helper()
	var ref [][]byte
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		p, err := NewPlan(specs, Options{Workers: workers})
		if err != nil {
			t.Logf("NewPlan: %v", err)
			return false
		}
		out, err := p.Run(context.Background())
		if err != nil {
			t.Logf("Run: %v", err)
			return false
		}
		enc := make([][]byte, len(out))
		for i := range out {
			enc[i] = resultJSON(t, out[i])
		}
		if ref == nil {
			ref = enc
			continue
		}
		for i := range enc {
			if !bytes.Equal(enc[i], ref[i]) {
				t.Logf("member %d differs between %d workers and 1", i, workers)
				return false
			}
		}
	}
	return true
}

// TestPartitionIndependence is the scheduling-invariance property: for
// random sub-batches of a mixed corpus, the results are byte-identical
// at worker counts 1, 2 and GOMAXPROCS — which worker claims which
// group may never change any member's bytes.
func TestPartitionIndependence(t *testing.T) {
	corpus := []fabric.Config{
		spec(1, 1), spec(2, 1), spec(1, 2), spec(3, 0.5),
		spec(1, 1), // duplicate of corpus[0]: identical members must yield identical bytes
	}
	firefly := spec(2, 1)
	firefly.Arch = fabric.Firefly
	skewed := spec(4, 1)
	skewed.Pattern = traffic.Skewed{Level: 2}
	corpus = append(corpus, firefly, skewed)

	property := func(mask uint8) bool {
		var specs []fabric.Config
		for i, s := range corpus {
			if mask&(1<<i) != 0 {
				specs = append(specs, s)
			}
		}
		return len(specs) == 0 || sameAtEveryWorkerCount(t, specs)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}

	// Uneven groups of 1, 1, 5 and 9 members, interleaved in submission
	// order: the case where the order groups are claimed in decides which
	// worker ends up with the long ones.
	longer := spec(7, 1)
	longer.Cycles = 900
	uneven := []fabric.Config{skewed}
	for i := 0; i < 9; i++ {
		s := spec(uint64(i+1), 1+float64(i%3)/2)
		uneven = append(uneven, s)
		if i < 5 {
			s.Arch = fabric.Firefly
			uneven = append(uneven, s)
		}
	}
	uneven = append(uneven, longer)
	if st := mustPlan(t, uneven, Options{}).Stats(); st.Groups != 4 || st.LargestGroup != 9 || st.Members != 16 {
		t.Fatalf("uneven corpus stats = %+v, want 16 members in 4 groups, largest 9", st)
	}
	if !sameAtEveryWorkerCount(t, uneven) {
		t.Error("uneven groups: results depend on the worker count")
	}
}

// TestRunCancellationDrains is the -race soak: canceling mid-batch
// aborts the in-flight members promptly, drains every worker without
// leaking goroutines (leakcheck snapshots the live goroutines and
// names any survivor), and a resubmitted plan reproduces the
// uncanceled results byte-identically.
func TestRunCancellationDrains(t *testing.T) {
	leakcheck.Check(t)
	long := func(seed uint64) fabric.Config {
		s := spec(seed, 1)
		s.Cycles = 50_000_000
		s.WarmupCycles = 1000
		return s
	}
	specs := []fabric.Config{long(1), long(2), long(3), long(4)}

	p := mustPlan(t, specs, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := p.Run(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not drain within 10s of cancellation (running since %v)", time.Since(start))
	}
	// The cycle loop polls ctx every fabric.CancelCheckInterval cycles;
	// even generously, the workers must be gone well under a second.
	if drain := time.Since(canceledAt); drain > 2*time.Second {
		t.Errorf("drain took %v after cancel", drain)
	}
	// Resubmit: the same Plan runs again from fresh fabrics and must
	// reproduce an uncanceled reference byte-for-byte.
	short := []fabric.Config{spec(1, 1), spec(2, 1), spec(3, 2)}
	rp := mustPlan(t, short, Options{Workers: 2})
	rctx, rcancel := context.WithCancel(context.Background())
	time.AfterFunc(time.Millisecond, rcancel)
	if _, err := rp.Run(rctx); err != nil && err != context.Canceled {
		t.Fatalf("canceled run: %v", err)
	}
	got, err := rp.Run(context.Background())
	if err != nil {
		t.Fatalf("resubmitted run: %v", err)
	}
	want, err := mustPlan(t, short, Options{Workers: 1}).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i := range got {
		if !bytes.Equal(resultJSON(t, got[i]), resultJSON(t, want[i])) {
			t.Errorf("member %d of the resubmitted plan diverges from the reference", i)
		}
	}
}

// TestRunReportsRootCause: when a group fails, Run pulls the other
// workers off their fabrics through its own cancellation — and the
// context.Canceled those groups return must never be the reported
// error, lower group index or not. Group 0 is long enough to still be
// stepping when group 1 fails at build time.
func TestRunReportsRootCause(t *testing.T) {
	leakcheck.Check(t)
	long := spec(1, 1)
	long.Pattern = traffic.Skewed{Level: 3}
	long.Cycles = 200_000
	broken := spec(1, 1)
	broken.Pattern = traffic.Skewed{Level: 9} // passes Validate, fails in fabric.New
	p := mustPlan(t, []fabric.Config{long, broken}, Options{Workers: 2})
	_, err := p.Run(context.Background())
	if err == nil {
		t.Fatal("Run succeeded, want the build failure of member 1")
	}
	if errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("Run returned %q, want member 1's build failure, not the cancellation it caused", err)
	}
}

// TestRunSurfacesRemapFailure: a member whose remap cannot be assigned
// when it fires fails the plan with the member, the cycle and the cause.
func TestRunSurfacesRemapFailure(t *testing.T) {
	leakcheck.Check(t)
	bad := spec(1, 1)
	short := traffic.Fixed{Assignment: traffic.Assignment{Name: "short", Cores: make([]traffic.CoreProfile, 3)}}
	bad.Remaps = []fabric.Remap{{At: 300, Pattern: short}}
	p := mustPlan(t, []fabric.Config{spec(1, 1), bad}, Options{Workers: 1})
	_, err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "member 1") || !strings.Contains(err.Error(), "cycle 300: remap: traffic: fixed assignment has 3 cores") {
		t.Fatalf("Run returned %v, want member 1's remap failure at cycle 300", err)
	}
}

// TestPanicReachesRunsCaller: a panic below Run — here the observer's,
// on member 1 of a two-group plan — surfaces on Run's caller with its own
// value, whether the plan runs inline (one worker) or on worker
// goroutines, and no worker outlives it. The caller, like hetpnocd's
// runRecovered, can then recover it as if it had stepped the fabric.
func TestPanicReachesRunsCaller(t *testing.T) {
	leakcheck.Check(t)
	skewed := spec(2, 1)
	skewed.Pattern = traffic.Skewed{Level: 2}
	specs := []fabric.Config{spec(1, 1), skewed}
	for _, workers := range []int{1, 2} {
		p := mustPlan(t, specs, Options{Workers: workers, Every: 100, Observe: func(member int, _ *fabric.Fabric) {
			if member == 1 {
				panic("observer poisoned")
			}
		}})
		func() {
			defer func() {
				if r := recover(); r != "observer poisoned" {
					t.Errorf("%d workers: recovered %v, want the observer's panic", workers, r)
				}
			}()
			p.Run(context.Background())
			t.Errorf("%d workers: Run returned past a panicking member", workers)
		}()
	}
}

// TestGoexitReachesRunsCaller: a runtime.Goexit below Run (t.Fatal in an
// observer) ends Run's caller, at any worker count, instead of returning
// a zero result with a nil error.
func TestGoexitReachesRunsCaller(t *testing.T) {
	leakcheck.Check(t)
	skewed := spec(2, 1)
	skewed.Pattern = traffic.Skewed{Level: 2}
	specs := []fabric.Config{spec(1, 1), skewed}
	for _, workers := range []int{1, 2} {
		p := mustPlan(t, specs, Options{Workers: workers, Every: 100, Observe: func(member int, _ *fabric.Fabric) {
			if member == 1 {
				runtime.Goexit()
			}
		}})
		returned := make(chan bool, 1)
		go func() {
			exited := true
			defer func() { returned <- !exited }()
			p.Run(context.Background())
			exited = false
		}()
		if <-returned {
			t.Errorf("%d workers: Run returned past a member's Goexit", workers)
		}
	}
}

// TestSoloFailureIsUnframed: a one-member plan is a solo run, so its
// failure reads as the fabric reported it; only a plan with several
// members names the member.
func TestSoloFailureIsUnframed(t *testing.T) {
	broken := spec(1, 1)
	broken.Pattern = traffic.Skewed{Level: 9} // passes Validate, fails in fabric.New
	_, want := fabric.New(broken.WithDefaults())
	if want == nil {
		t.Fatal("fabric.New accepted the broken config")
	}
	_, err := mustPlan(t, []fabric.Config{broken}, Options{}).Run(context.Background())
	if err == nil || err.Error() != want.Error() {
		t.Errorf("one-member plan failed with %v, want fabric.New's %v", err, want)
	}
	_, err = mustPlan(t, []fabric.Config{spec(1, 1), broken}, Options{Workers: 1}).Run(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "batch: member 1 ") {
		t.Errorf("two-member plan failed with %v, want it framed as member 1's", err)
	}
}
