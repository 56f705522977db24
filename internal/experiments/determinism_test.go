package experiments

import (
	"context"
	"reflect"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// TestRunMatrixParallelDeterminism: the matrix runner parallelizes across
// goroutines, but each run's state is isolated and seeded, so two
// executions produce identical rows regardless of scheduling.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	cfgs := []fabric.Config{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC},
		{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 3}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.RealApp{}, Arch: fabric.DHetPNoC},
	}
	opts := quickOpts()
	opts.Parallelism = 4

	a, err := RunMatrix(context.Background(), opts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 1
	b, err := RunMatrix(context.Background(), opts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel and serial matrices differ:\n%+v\n%+v", a, b)
	}
}
