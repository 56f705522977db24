package hetpnoc

import "context"

// RunBatch executes every config in one batched pass and returns the
// results in config order. Configs that lower to the same fabric build
// — they differ at most in Seed and LoadScale; internal/batch alone
// decides what that means — share one build: the first runs on it
// and every other member forks off its pristine checkpoint via
// restore-and-reseed instead of paying its own build. Builds are kept
// across calls, so a prefix run before — by RunBatch, Run or any other
// entry point — costs no build at all. Each result is
// byte-identical (Result.CanonicalJSON and the event log) to what
// Run would return for that config alone — TestPathEquivalence holds
// this on every scenario of its corpus, at 1, 2 and GOMAXPROCS workers —
// so batching is purely a performance choice: a 256-point sweep stops
// paying 256 builds. docs/BATCHING.md documents the plan model and the
// determinism contract.
func RunBatch(cfgs []Config) ([]Result, error) {
	return RunBatchContext(context.Background(), cfgs)
}

// RunBatchContext is RunBatch honoring cancellation: ctx is threaded
// through every member's cycle loop, so canceling aborts the in-flight
// members within one cancellation-check interval and drains the batch
// workers cleanly.
func RunBatchContext(ctx context.Context, cfgs []Config) ([]Result, error) {
	return run(ctx, cfgs)
}
