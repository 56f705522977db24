package hetpnoc

import (
	"context"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
)

// RunBatch executes every config in one batched pass and returns the
// results in config order. Configs that share a batch prefix (they
// normalize identically except for Seed and LoadScale — see
// Config.NormalizedPrefix) share one fabric build: the fabric is
// checkpointed pristine and every member forks off it via
// restore-and-reseed instead of paying its own build. Each result is
// byte-identical (Result.CanonicalJSON and the event log) to what
// Run would return for that config alone — TestBatchEquivalence holds
// this across all three architectures and bandwidth sets — so batching
// is purely a performance choice: a 256-point sweep stops paying 256
// builds. docs/BATCHING.md documents the plan model and the
// determinism contract.
//
//hetpnoc:ctxroot synchronous public entry point, wraps RunBatchContext
func RunBatch(cfgs []Config) ([]Result, error) {
	return RunBatchContext(context.Background(), cfgs)
}

// RunBatchContext is RunBatch honoring cancellation: ctx is threaded
// through every member's cycle loop, so canceling aborts the in-flight
// members within one cancellation-check interval and drains the batch
// workers cleanly.
func RunBatchContext(ctx context.Context, cfgs []Config) ([]Result, error) {
	if len(cfgs) == 0 {
		return []Result{}, nil
	}
	specs, err := lowerAll(cfgs)
	if err != nil {
		return nil, err
	}
	plan, err := batch.NewPlan(specs, batch.Options{})
	if err != nil {
		return nil, err
	}
	out, err := plan.Run(ctx)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(out))
	for i, r := range out {
		results[i] = fromFabricResult(r.Res, r.Events)
	}
	return results, nil
}

// lowerAll lowers every public config onto the internal fabric form.
func lowerAll(cfgs []Config) ([]fabric.Config, error) {
	specs := make([]fabric.Config, len(cfgs))
	for i, c := range cfgs {
		fc, err := lower(c, nil)
		if err != nil {
			return nil, err
		}
		specs[i] = fc
	}
	return specs, nil
}
