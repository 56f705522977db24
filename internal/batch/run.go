package batch

import (
	"context"
	"errors"
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
// lowest-indexed group that genuinely failed. A Plan may be Run again
// after a cancellation — each Run builds fresh fabrics — and reproduces
// its results byte-identically.
func (p *Plan) Run(ctx context.Context) ([]Result, error) {
	workers := min(p.opts.Workers, len(p.groups))
	results := make([]Result, len(p.specs))
	// One slot per group, written only by the worker that claimed it.
	errs := make([]error, len(p.groups))

	// runCtx lets the first failing worker pull the others off their
	// fabrics at the next cancellation check instead of letting them
	// finish doomed work.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var (
		wg     sync.WaitGroup
		cursor atomic.Int64 // groups claimed so far
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
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
		}()
	}
	wg.Wait()

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

// runGroup builds the group's shared fabric, checkpoints it before any
// stepping, and replays every member's whole run off the checkpoint.
func (p *Plan) runGroup(ctx context.Context, g group, results []Result) error {
	base := p.specs[g.members[0]]
	f, err := fabric.New(base)
	if err != nil {
		return memberError(g.members[0], base, err)
	}
	cp := f.Checkpoint()

	for _, mi := range g.members {
		if err := ctx.Err(); err != nil {
			return memberError(mi, p.specs[mi], err)
		}
		if results[mi], err = runMember(ctx, f, cp, p.specs[mi]); err != nil {
			return memberError(mi, p.specs[mi], err)
		}
	}
	return nil
}

// runMember is one fork: rewind f onto the group's cycle-0 checkpoint,
// give it the member's load and seed, and run the member's whole budget.
func runMember(ctx context.Context, f *fabric.Fabric, cp *fabric.Checkpoint, spec fabric.Config) (Result, error) {
	if err := f.Restore(cp); err != nil {
		return Result{}, err
	}
	if err := f.SetLoadScale(spec.LoadScale); err != nil {
		return Result{}, err
	}
	if err := f.Reseed(spec.Seed); err != nil {
		return Result{}, err
	}
	if err := f.StepContext(ctx, spec.Cycles); err != nil {
		return Result{}, err
	}
	res, err := f.Finish()
	if err != nil {
		return Result{}, err
	}
	out := Result{Res: res}
	if log := f.Events(); log != nil {
		out.Events = log.Events()
	}
	return out, nil
}
