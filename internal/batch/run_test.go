package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/testutil/leakcheck"
	"hetpnoc/internal/traffic"
)

func resultJSON(t testing.TB, res fabric.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
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
	short := traffic.Custom{Cores: make([]traffic.CustomCore, 3)}
	bad.Remaps = []fabric.Remap{{At: 300, Pattern: short}}
	p := mustPlan(t, []fabric.Config{spec(1, 1), bad}, Options{Workers: 1})
	_, err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "member 1") || !strings.Contains(err.Error(), "cycle 300: remap: traffic: custom workload has 3 cores") {
		t.Fatalf("Run returned %v, want member 1's remap failure at cycle 300", err)
	}
}

// TestPanicReachesRunsCaller: a panic below Run — here a remap
// pattern's, on member 1 of a two-group plan — surfaces on Run's caller
// with its own value, whether the plan runs inline (one worker) or on worker
// goroutines, and no worker outlives it. The caller, like hetpnocd's
// runRecovered, can then recover it as if it had stepped the fabric.
func TestPanicReachesRunsCaller(t *testing.T) {
	leakcheck.Check(t)
	skewed := spec(2, 1)
	skewed.Pattern = traffic.Skewed{Level: 2}
	skewed.Remaps = []fabric.Remap{{At: 100, Pattern: firing(func() { panic("remap poisoned") })}}
	specs := []fabric.Config{spec(1, 1), skewed}
	for _, workers := range []int{1, 2} {
		p := mustPlan(t, specs, Options{Workers: workers})
		func() {
			defer func() {
				if r := recover(); r != "remap poisoned" {
					t.Errorf("%d workers: recovered %v, want the remap's panic", workers, r)
				}
			}()
			p.Run(context.Background())
			t.Errorf("%d workers: Run returned past a panicking member", workers)
		}()
	}
}

// TestGoexitReachesRunsCaller: a runtime.Goexit below Run (as t.Fatal
// in a remap pattern would call it) ends Run's caller, at any worker
// count, instead of returning a zero result with a nil error.
func TestGoexitReachesRunsCaller(t *testing.T) {
	leakcheck.Check(t)
	skewed := spec(2, 1)
	skewed.Pattern = traffic.Skewed{Level: 2}
	skewed.Remaps = []fabric.Remap{{At: 100, Pattern: firing(runtime.Goexit)}}
	specs := []fabric.Config{spec(1, 1), skewed}
	for _, workers := range []int{1, 2} {
		p := mustPlan(t, specs, Options{Workers: workers})
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

// firing is a remap pattern that calls its func when the remap fires.
type firing func()

func (firing) Name() string { return "firing" }

func (fire firing) Assign(traffic.BandwidthSet) (traffic.Assignment, error) {
	fire()
	return traffic.Assignment{}, errors.New("unreachable: the remap's func did not return")
}
