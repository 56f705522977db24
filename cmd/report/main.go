// Command report runs the evaluation and writes a self-contained HTML
// report with inline SVG charts: the Figures 3-3/3-4 matrices, the
// Figure 3-6 area model, the Figure 1-1 motivation, and the extension
// ablations.
//
// Usage:
//
//	report -o report.html            # full-length runs
//	report -o report.html -quick     # fast pass
//	report -o report.html -ablations # include the ablation studies
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hetpnoc/internal/experiments"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/report"
	"hetpnoc/internal/traffic"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// run parses args and writes the report they select. Every simulation
// runs under ctx.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		out       = fs.String("o", "report.html", "output file")
		quick     = fs.Bool("quick", false, "short runs (4000 cycles)")
		ablations = fs.Bool("ablations", false, "include the ablation studies (slower)")
		seed      = fs.Uint64("seed", fabric.DefaultSeed, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Open the output before spending minutes on simulations.
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	opts := experiments.Options{Seed: *seed}
	if *quick {
		opts.Cycles = 4000
		opts.WarmupCycles = 800
	}

	r := report.New(
		"d-HetPNoC reproduction report",
		"Heterogeneous Photonic Network-on-Chip with Dynamic Bandwidth Allocation (Shah, RIT/SOCC 2014) — simulated with the hetpnoc package")

	gpu, err := experiments.Figure1_1()
	if err != nil {
		return err
	}
	if err := r.AddGPUSpeedups(gpu); err != nil {
		return err
	}

	rows, err := experiments.PeakBandwidth(ctx, opts, traffic.BandwidthSets())
	if err != nil {
		return err
	}
	for _, set := range traffic.BandwidthSets() {
		if err := r.AddPeakBandwidth(set.Name, rows); err != nil {
			return err
		}
	}

	if err := r.AddAreaModel(experiments.AreaSweep(nil)); err != nil {
		return err
	}

	if *ablations {
		ab, err := experiments.Ablations(ctx, opts)
		if err != nil {
			return err
		}
		r.AddAblations(ab)
	}

	if err := r.Render(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}
