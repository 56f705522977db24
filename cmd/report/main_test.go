package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	// Even the -quick matrix runs every figure, so -short skips it.
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if err := run(context.Background(), []string{"-o", out, "-quick"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{"<!DOCTYPE html>", "Figure 3-3", "Figure 3-6", "BW3"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-seed", "notanumber"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRejectsUnwritableOutput(t *testing.T) {
	if err := run(context.Background(), []string{"-o", "/nonexistent-dir/x.html", "-quick"}); err == nil {
		t.Fatal("unwritable output accepted")
	}
}

// TestRunHonorsCancellation: the simulations run under run's context, so
// a canceled one fails the report with its error.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(t.TempDir(), "report.html")
	if err := run(ctx, []string{"-o", out, "-quick"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
