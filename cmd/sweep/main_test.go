package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetpnoc/internal/testutil/leakcheck"
)

func TestRunTables(t *testing.T) {
	leakcheck.Check(t)
	if err := run(context.Background(), []string{"-tables"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig1_1(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "1-1"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig3_6(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "3-6"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickSimulationFigure(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	if err := run(context.Background(), []string{"-fig", "3-8", "-quick"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-cycles", "abc"}, os.Stdout); err == nil {
		t.Fatal("non-numeric cycles accepted")
	}
}

func TestRunFig3_3WithCSV(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-fig", "3-3", "-quick", "-cycles", "2000", "-warmup", "400", "-csv", dir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3-3_peak_bandwidth.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "d-hetpnoc") {
		t.Fatal("CSV missing architecture rows")
	}
}

func TestRunFig3_3RejectsBadCSVDir(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	err := run(context.Background(), []string{"-fig", "3-3", "-quick", "-cycles", "1500", "-warmup", "300", "-csv", "/nonexistent-dir"}, os.Stdout)
	if err == nil {
		t.Fatal("unwritable CSV dir accepted")
	}
}

func TestRunCaseStudiesAndExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures in -short mode")
	}
	if err := run(context.Background(), []string{"-fig", "3-5", "-cycles", "2000", "-warmup", "400"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "none", "-latency", "-cycles", "1500", "-warmup", "300"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "none", "-sensitivity", "-cycles", "1500", "-warmup", "300"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunScalingFigures(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figures in -short mode")
	}
	if err := run(context.Background(), []string{"-fig", "3-7", "-cycles", "1500", "-warmup", "300"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-fig", "3-10", "-cycles", "1500", "-warmup", "300"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// TestRunHonorsCancellation: every simulating selection runs under run's
// context, so a canceled one fails each with its error before any
// simulation starts.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-fig", "3-3"}, {"-fig", "3-5"}, {"-fig", "3-7"}, {"-fig", "3-8"}, {"-fig", "3-10"},
		{"-fig", "none", "-ablations"}, {"-fig", "none", "-latency"}, {"-fig", "none", "-sensitivity"},
	} {
		var out bytes.Buffer
		if err := run(ctx, append(args, "-cycles", "1500", "-warmup", "300"), &out); !errors.Is(err, context.Canceled) {
			t.Errorf("sweep %s with a canceled context: want context.Canceled, got %v", strings.Join(args, " "), err)
		}
	}
}

// TestQuickGolden: `sweep -quick` prints testdata/quick.golden byte for
// byte, every figure's numbers at 4,000 cycles. After an intended change
// regenerate it with `go run ./cmd/sweep -quick >
// cmd/sweep/testdata/quick.golden` and review the diff.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(context.Background(), []string{"-quick"}, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	var diff strings.Builder
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := line(gotLines, i), line(wantLines, i)
		if g != w {
			fmt.Fprintf(&diff, "line %d:\n-%s\n+%s\n", i+1, w, g)
		}
	}
	t.Errorf("sweep -quick drifted from testdata/quick.golden (-golden +now):\n%s", diff.String())
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
