package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetpnoc/internal/testutil/leakcheck"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-cycles", "abc"}, os.Stdout); err == nil {
		t.Fatal("non-numeric cycles accepted")
	}
	// An unknown figure is refused by name, before any output file is
	// created.
	page := filepath.Join(t.TempDir(), "report.html")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "3-11", "-html", page}, &out)
	if err == nil || !strings.Contains(err.Error(), "3-10") {
		t.Fatalf("-fig 3-11: error %v, want one naming the valid figures", err)
	}
	if _, statErr := os.Stat(page); !os.IsNotExist(statErr) || out.Len() > 0 {
		t.Fatalf("-fig 3-11 wrote output: %q, report %v", out.String(), statErr)
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

// TestRunCSVFailsBeforeSimulating: sweep creates its CSV files and its
// HTML report before it simulates, so a bad -csv directory or -html path
// is reported even when the context is canceled and no simulation could
// run.
func TestRunCSVFailsBeforeSimulating(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-fig", "3-3", "-csv", "/nonexistent-dir"},
		{"-fig", "3-5", "-csv", "/nonexistent-dir"},
		{"-html", "/nonexistent-dir/x.html"},
	} {
		if err := run(ctx, args, io.Discard); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("sweep %s with a canceled context: want fs.ErrNotExist, got %v", strings.Join(args, " "), err)
		}
	}
}

// TestRunWritesHTMLReport: -html renders every figure the report draws
// into one self-contained page, and says where it wrote it.
func TestRunWritesHTMLReport(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figures in -short mode")
	}
	page := filepath.Join(t.TempDir(), "report.html")
	out := sweep(t, []string{"-cycles", "1500", "-warmup", "300", "-html", page})
	if want := "wrote " + page + "\n"; !bytes.HasSuffix(out, []byte(want)) {
		t.Errorf("sweep -html printed %q last, want %q", out[max(0, len(out)-len(want)):], want)
	}
	data, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "Figure 1-1", "Figure 3-3", "Figure 3-6", "BW3"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("the report lacks %q", want)
		}
	}
}

// TestRunQuickKeepsExplicitCycles: -quick shortens only the run lengths
// the caller did not set.
func TestRunQuickKeepsExplicitCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	explicit := []string{"-fig", "3-5", "-cycles", "2000", "-warmup", "400"}
	if quick, plain := sweep(t, append([]string{"-quick"}, explicit...)), sweep(t, explicit); !bytes.Equal(quick, plain) {
		t.Errorf("sweep -quick %s printed\n%s\nwithout -quick it printed\n%s", strings.Join(explicit, " "), quick, plain)
	}
}

// TestRunHonorsCancellation: the one plan of every simulating selection
// runs under run's context, so a canceled one fails each with its error
// before any simulation starts.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-fig", "3-3"}, {"-fig", "3-5"}, {"-fig", "3-7"}, {"-fig", "3-8"}, {"-fig", "3-10"},
		{"-fig", "none", "-ablations"}, {"-fig", "none", "-latency"}, {"-fig", "none", "-sensitivity"},
		{"-fig", "none", "-ablations", "-html", filepath.Join(t.TempDir(), "report.html")},
	} {
		var out bytes.Buffer
		if err := run(ctx, append(args, "-cycles", "1500", "-warmup", "300"), &out); !errors.Is(err, context.Canceled) {
			t.Errorf("sweep %s with a canceled context: want context.Canceled, got %v", strings.Join(args, " "), err)
		}
	}
}

// TestQuickGolden: sweep -quick, every figure at 4,000 cycles, prints
// testdata/quick.golden byte for byte.
func TestQuickGolden(t *testing.T) {
	leakcheck.Check(t)
	checkGolden(t, "quick.golden", []string{"-quick"})
}

// TestGolden: each further selection prints its golden byte for byte.
// figures.golden is every figure at the full 10,000 cycles,
// extensions.golden the ablation, load-latency and energy-sensitivity
// tables, tables.golden the input tables. After an intended change
// regenerate one with `go run ./cmd/sweep <args> >
// cmd/sweep/testdata/<golden>` and review the diff.
func TestGolden(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"figures.golden", nil},
		{"extensions.golden", []string{"-quick", "-fig", "none", "-ablations", "-latency", "-sensitivity"}},
		{"tables.golden", []string{"-tables"}},
	} {
		t.Run(strings.TrimSuffix(c.golden, ".golden"), func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.golden, c.args)
		})
	}
}

// The single-figure tests hold one -fig selection to its section of the
// golden that prints every figure at the same cycle count.

func TestRunFig1_1(t *testing.T) {
	checkSection(t, "figures.golden", []string{"-fig", "1-1"})
}

func TestRunFig3_6(t *testing.T) {
	checkSection(t, "figures.golden", []string{"-fig", "3-6"})
}

func TestRunQuickSimulationFigure(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	checkSection(t, "quick.golden", []string{"-fig", "3-8", "-quick"})
}

func TestRunScalingFigures(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("simulation figures in -short mode")
	}
	checkSection(t, "figures.golden", []string{"-fig", "3-7"})
	checkSection(t, "figures.golden", []string{"-fig", "3-10"})
}

// sweep runs sweep with args and returns what it printed.
func sweep(t *testing.T, args []string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("sweep %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes()
}

// golden reads testdata/<name>.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden fails with the differing lines unless sweep args prints
// testdata/<name> byte for byte.
func checkGolden(t *testing.T, name string, args []string) {
	t.Helper()
	want, got := golden(t, name), sweep(t, args)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var diff strings.Builder
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := line(gotLines, i), line(wantLines, i)
		if g != w {
			fmt.Fprintf(&diff, "line %d:\n-%s\n+%s\n", i+1, w, g)
		}
	}
	t.Errorf("sweep %s drifted from testdata/%s (-golden +now):\n%s", strings.Join(args, " "), name, diff.String())
}

// checkSection fails unless sweep args prints a non-empty run of whole
// lines found as they stand in testdata/<name>.
func checkSection(t *testing.T, name string, args []string) {
	t.Helper()
	got := sweep(t, args)
	if len(got) == 0 || got[len(got)-1] != '\n' {
		t.Fatalf("sweep %s printed %q, want whole lines", strings.Join(args, " "), got)
	}
	want := golden(t, name)
	if !bytes.HasPrefix(want, got) && !bytes.Contains(want, append([]byte("\n"), got...)) {
		t.Errorf("sweep %s printed a section not in testdata/%s:\n%s", strings.Join(args, " "), name, got)
	}
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
