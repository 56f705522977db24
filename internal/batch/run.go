package batch

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hetpnoc/internal/fabric"
)

// Run executes every member and returns results aligned with the plan's
// spec order. Options.Workers goroutines claim groups off one shared
// cursor; within a group the members run sequentially on the shared
// fabric (a checkpoint only restores onto the fabric it was taken
// from). The caller's ctx is threaded through every
// fabric.StepContext, so cancellation aborts the in-flight members
// within one fabric.CancelCheckInterval and the workers drain cleanly.
// Run returns ctx's error if it fired, otherwise the failure of the
// lowest-indexed group that genuinely failed. A panic or runtime.Goexit
// below Run unwinds Run's caller as if it had stepped the fabric itself:
// a one-worker plan runs on the caller's goroutine, and spawn re-raises
// a worker's. A Plan may be Run again after a cancellation and
// reproduces its results byte-identically: a cancelled group's fabric is
// dropped, and every member starts from a pristine cycle-0 state whether
// its group builds or takes a shelved build.
func (p *Plan) Run(ctx context.Context) ([]fabric.Result, error) {
	workers := min(p.opts.Workers, len(p.groups))
	results := make([]fabric.Result, len(p.specs))
	// One slot per group, written only by the worker that claimed it.
	errs := make([]error, len(p.groups))

	// runCtx lets the first failing worker pull the others off their
	// fabrics at the next cancellation check instead of letting them
	// finish doomed work.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var cursor atomic.Int64 // groups claimed so far
	work := func() {
		for runCtx.Err() == nil {
			gi := int(cursor.Add(1)) - 1
			if gi >= len(p.groups) {
				return
			}
			if errs[gi] = p.runGroup(runCtx, p.groups[gi], results); errs[gi] != nil {
				cancelRun()
				return
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		spawn(workers, work, cancelRun)
	}

	// Report the caller's cancellation as such even when a worker
	// dressed it in member context: the batch was aborted, not wrong.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		// With the caller's ctx live, a context.Canceled can only be the
		// echo of cancelRun above — a group pulled off its fabric because
		// another one failed. Skip it: the failure that fired cancelRun
		// sits in its own slot.
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	return results, nil
}

// spawn runs work on n goroutines and waits for them. The first panic or
// runtime.Goexit to end one aborts the others and, once all have stopped,
// is re-raised on the caller's goroutine.
func spawn(n int, work, abort func()) {
	var (
		wg      sync.WaitGroup
		once    sync.Once
		escaped bool
		value   any // nil for a Goexit: panic(nil) recovers as a *runtime.PanicNilError
	)
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			returned := false
			defer func() {
				if !returned {
					r := recover()
					once.Do(func() { escaped, value = true, r })
					abort()
				}
			}()
			work()
			returned = true
		}()
	}
	wg.Wait()
	if escaped && value == nil {
		runtime.Goexit()
	} else if escaped {
		panic(value)
	}
}

// runGroup runs every member of g on one fabric. When the shelf holds a
// pristine build of g's prefix, it takes it and forks every member, the
// first included, off its cycle-0 checkpoint. Otherwise it builds the
// fabric from the first member's config and checkpoints it at cycle 0;
// the build is the first member's pristine state — a fork off that
// checkpoint reproduces exactly it (TestPathEquivalence's PristineFork
// path) — so the first member runs as built. The build goes on the shelf
// only once every member has finished without error; a group that fails,
// is cancelled or panics drops its fabric.
func (p *Plan) runGroup(ctx context.Context, g group, results []fabric.Result) error {
	base := g.members[0]
	pr, shelved := take(p.specs[base])
	if !shelved {
		f, err := fabric.New(p.specs[base])
		if err != nil {
			return p.memberError(base, err)
		}
		builds.Add(1)
		pr = pristine{spec: p.specs[base], f: f, cp: f.Checkpoint()}
		// The shelf outlives the caller's remap slice; the fabric holds
		// its own sorted copy.
		pr.spec.Remaps = slices.Clone(pr.spec.Remaps)
	}
	for i, mi := range g.members {
		if err := ctx.Err(); err != nil {
			return p.memberError(mi, err)
		}
		if shelved || i > 0 {
			if err := fork(pr.f, pr.cp, p.specs[mi]); err != nil {
				return p.memberError(mi, err)
			}
		}
		var err error
		if results[mi], err = p.runMember(ctx, mi, pr.f); err != nil {
			return p.memberError(mi, err)
		}
	}
	shelve(pr)
	return nil
}

// fork rewinds f onto the group's cycle-0 checkpoint and gives it the
// member's load and seed.
func fork(f *fabric.Fabric, cp *fabric.Checkpoint, spec fabric.Config) error {
	forks.Add(1)
	if err := f.Restore(cp); err != nil {
		return err
	}
	if err := f.SetLoadScale(spec.LoadScale); err != nil {
		return err
	}
	return f.Reseed(spec.Seed)
}

// runMember runs member mi's whole budget on f, which must hold the
// member's pristine cycle-0 state: one StepContext and a Finish.
func (p *Plan) runMember(ctx context.Context, mi int, f *fabric.Fabric) (fabric.Result, error) {
	if err := f.StepContext(ctx, p.specs[mi].Cycles); err != nil {
		return fabric.Result{}, err
	}
	return f.Finish()
}
