// Command sweep regenerates the thesis's evaluation: every figure of §3.4
// as a printed table. Run it without flags for everything, or select a
// figure:
//
//	sweep -fig 1-1      # GPU flit-size speedups
//	sweep -fig 3-3      # peak bandwidth matrix (also carries Fig 3-4 EPM)
//	sweep -fig 3-5      # case studies (hotspot + real application)
//	sweep -fig 3-6      # area model
//	sweep -fig 3-7      # d-HetPNoC scaling across bandwidth sets
//	sweep -fig 3-8      # wavelengths vs bandwidth/EPM/area (also Fig 3-9)
//	sweep -fig 3-10     # Firefly scaling across bandwidth sets
//	sweep -tables       # the input tables (3-1..3-5)
//
// Simulation figures honour -cycles/-warmup/-seed; -quick shrinks runs for
// a fast smoke pass. -parallel bounds concurrent simulations; figures run
// one after another, each as one batch plan.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hetpnoc/internal/experiments"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/traffic"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run parses args and prints what they select to stdout. Every
// simulation runs under ctx.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		fig         = fs.String("fig", "", "figure to regenerate (1-1, 3-3, 3-5, 3-6, 3-7, 3-8, 3-10); empty = all")
		tables      = fs.Bool("tables", false, "print the input tables (3-1..3-5) and exit")
		ablations   = fs.Bool("ablations", false, "run the ablation studies (extensions beyond the paper)")
		latency     = fs.Bool("latency", false, "print load-latency curves (extension)")
		sensitivity = fs.Bool("sensitivity", false, "print the energy-model sensitivity study (extension)")
		cycles      = fs.Int("cycles", fabric.DefaultCycles, "simulated cycles per run")
		warmup      = fs.Int("warmup", fabric.DefaultWarmupCycles, "warm-up cycles per run")
		seed        = fs.Uint64("seed", fabric.DefaultSeed, "simulation seed")
		quick       = fs.Bool("quick", false, "short runs (4000 cycles) for a fast pass")
		parallel    = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		csvDir      = fs.String("csv", "", "also write machine-readable CSV files into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tables {
		var buf bytes.Buffer
		printTables(&buf)
		_, err := stdout.Write(buf.Bytes())
		return err
	}

	opts := experiments.Options{Cycles: *cycles, WarmupCycles: *warmup, Seed: *seed, Parallelism: *parallel}
	if *quick {
		opts.Cycles = 4000
		opts.WarmupCycles = 800
	}

	var figures []func(*bytes.Buffer) error
	add := func(fn func(*bytes.Buffer) error) { figures = append(figures, fn) }

	all := *fig == ""
	if all || *fig == "1-1" {
		add(printFig1_1)
	}
	if all || *fig == "3-3" || *fig == "3-4" {
		add(func(w *bytes.Buffer) error { return printFig3_3(ctx, w, opts, *csvDir) })
	}
	if all || *fig == "3-5" {
		add(func(w *bytes.Buffer) error { return printFig3_5(ctx, w, opts, *csvDir) })
	}
	if all || *fig == "3-6" {
		add(func(w *bytes.Buffer) error { printFig3_6(w); return nil })
	}
	if all || *fig == "3-7" {
		add(func(w *bytes.Buffer) error { return printScaling(ctx, w, opts, fabric.DHetPNoC, "3-7") })
	}
	if all || *fig == "3-8" || *fig == "3-9" {
		add(func(w *bytes.Buffer) error { return printFig3_8(ctx, w, opts) })
	}
	if all || *fig == "3-10" {
		add(func(w *bytes.Buffer) error { return printScaling(ctx, w, opts, fabric.Firefly, "3-10") })
	}
	if *ablations {
		add(func(w *bytes.Buffer) error { return printAblations(ctx, w, opts) })
	}
	if *latency {
		add(func(w *bytes.Buffer) error { return printLatencyCurves(ctx, w, opts) })
	}
	if *sensitivity {
		add(func(w *bytes.Buffer) error { return printSensitivity(ctx, w, opts) })
	}

	return runFigures(stdout, figures)
}

// runFigures executes the figures in order. Every figure writes into its
// own buffer — an in-memory sink that cannot fail, so table rendering
// needs no per-line error handling — which is flushed to stdout before a
// failure is reported, so a failing figure still shows what it printed.
func runFigures(stdout io.Writer, figures []func(*bytes.Buffer) error) error {
	for _, fn := range figures {
		var buf bytes.Buffer
		err := fn(&buf)
		if _, werr := stdout.Write(buf.Bytes()); werr != nil {
			return werr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func printSensitivity(ctx context.Context, w *bytes.Buffer, opts experiments.Options) error {
	rows, err := experiments.EnergySensitivity(ctx, opts, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Energy-model sensitivity (extension): Figure 3-4 sign vs calibration ==")
	fmt.Fprintf(w, "%-18s %6s %14s %14s %10s\n", "parameter", "scale", "firefly EPM", "d-Het EPM", "saving")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %5.2fx %14.1f %14.1f %9.1f%%\n",
			r.Parameter, r.Scale, r.FireflyEPMPJ, r.DHetPNoCEPMPJ, r.DHetSavingPct)
	}
	fmt.Fprintln(w)
	return nil
}

func printLatencyCurves(ctx context.Context, w *bytes.Buffer, opts experiments.Options) error {
	fmt.Fprintln(w, "== Load-latency curves (extension), BW set 1, skewed 2 ==")
	fmt.Fprintf(w, "%-10s %6s %12s %14s %12s\n", "arch", "load", "offered", "delivered", "avg latency")
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
		points, err := experiments.LoadLatencyCurve(ctx, opts, arch, traffic.Skewed{Level: 2}, traffic.BWSet1, nil)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(w, "%-10s %6.2f %10.1f G %12.1f G %10.1f c\n",
				arch, p.LoadScale, p.OfferedGbps, p.DeliveredGbps, p.AvgLatencyCycles)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func printAblations(ctx context.Context, w *bytes.Buffer, opts experiments.Options) error {
	rows, err := experiments.AllAblations(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation studies (extensions; see DESIGN.md §4 and EXPERIMENTS.md) ==")
	fmt.Fprintf(w, "%-24s %-24s %12s %14s %12s %9s %10s\n",
		"study", "variant", "BW Gb/s", "EPM pJ", "latency cyc", "fairness", "area mm^2")
	for _, r := range rows {
		areaCol := "-"
		if r.AreaMM2 > 0 {
			areaCol = fmt.Sprintf("%.3f", r.AreaMM2)
		}
		fmt.Fprintf(w, "%-24s %-24s %12.1f %14.1f %12.1f %9.3f %10s\n",
			r.Study, r.Variant, r.PeakBandwidthGbps, r.EnergyPerMessagePJ,
			r.AvgLatencyCycles, r.FairnessJain, areaCol)
	}
	fmt.Fprintln(w)
	return nil
}

func printFig1_1(w *bytes.Buffer) error {
	points, err := experiments.Figure1_1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 1-1: speedup of 1024 B flits over 32 B baseline, 700 MHz GPU-memory link ==")
	fmt.Fprintf(w, "%-15s %-9s %8s %10s\n", "benchmark", "suite", "kernels", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-15s %-9s %8d %9.2f%%\n", p.Benchmark, p.Suite, p.KernelLaunches, p.SpeedupPct)
	}
	fmt.Fprintln(w)
	return nil
}

func printFig3_3(ctx context.Context, w *bytes.Buffer, opts experiments.Options, csvDir string) error {
	rows, err := experiments.PeakBandwidth(ctx, opts, traffic.BandwidthSets())
	if err != nil {
		return err
	}
	if err := writeRowsCSV(w, csvDir, "fig3-3_peak_bandwidth.csv", rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figures 3-3 / 3-4: peak bandwidth and packet energy, Firefly vs d-HetPNoC ==")
	fmt.Fprintf(w, "%-5s %-10s %-10s %12s %14s %10s\n", "set", "traffic", "arch", "peak Gb/s", "EPM pJ", "drops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-10s %-10s %12.1f %14.1f %10d\n",
			r.Set, r.Pattern, r.Arch, r.PeakBandwidthGbps, r.EnergyPerMessagePJ, r.PacketsDropped)
	}
	printPairGains(w, rows)
	fmt.Fprintln(w)
	return nil
}

// writeRowsCSV writes rows into dir/name when dir is set.
func writeRowsCSV(w *bytes.Buffer, dir, name string, rows []experiments.Row) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteRowsCSV(f, rows); err != nil {
		_ = f.Close() // the write error is the one worth returning
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}

func printFig3_5(ctx context.Context, w *bytes.Buffer, opts experiments.Options, csvDir string) error {
	rows, err := experiments.CaseStudies(ctx, opts, traffic.BWSet1)
	if err != nil {
		return err
	}
	if err := writeRowsCSV(w, csvDir, "fig3-5_case_studies.csv", rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 3-5: case studies (skewed hotspot + real application), BW set 1 ==")
	fmt.Fprintf(w, "%-17s %-10s %15s %14s %10s\n", "traffic", "arch", "per-core Gb/s", "EPM pJ", "drops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-10s %15.2f %14.1f %10d\n",
			r.Pattern, r.Arch, r.PerCoreGbps, r.EnergyPerMessagePJ, r.PacketsDropped)
	}
	printPairGains(w, rows)
	fmt.Fprintln(w)
	return nil
}

func printFig3_6(w *bytes.Buffer) {
	fmt.Fprintln(w, "== Figure 3-6: total electro-optic device area vs aggregate bandwidth ==")
	fmt.Fprintf(w, "%12s %15s %13s %10s\n", "wavelengths", "d-HetPNoC mm^2", "Firefly mm^2", "overhead")
	for _, p := range experiments.AreaSweep(nil) {
		fmt.Fprintf(w, "%12d %15.3f %13.3f %9.1f%%\n", p.DataWavelengths, p.DynamicMM2, p.FireflyMM2, p.OverheadPct)
	}
	fmt.Fprintln(w)
}

func printScaling(ctx context.Context, w *bytes.Buffer, opts experiments.Options, arch fabric.Arch, figName string) error {
	rows, err := experiments.ScalingSeries(ctx, opts, arch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure %s: %s peak core bandwidth and EPM across bandwidth sets ==\n", figName, arch)
	fmt.Fprintf(w, "%-5s %-10s %6s %15s %14s %12s\n", "set", "traffic", "total", "per-core Gb/s", "EPM pJ", "area mm^2")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-10s %6d %15.2f %14.1f %12.3f\n",
			r.Set, r.Pattern, r.TotalWavelengths, r.PerCoreGbps, r.EnergyPerMessagePJ, r.AreaMM2)
	}
	fmt.Fprintln(w)
	return nil
}

func printFig3_8(ctx context.Context, w *bytes.Buffer, opts experiments.Options) error {
	points, err := experiments.WavelengthScaling(ctx, opts, fabric.DHetPNoC)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figures 3-8 / 3-9: d-HetPNoC, skewed 3 — wavelengths vs peak bandwidth, EPM, area ==")
	fmt.Fprintf(w, "%12s %12s %12s %11s %9s %9s %9s\n",
		"wavelengths", "peak Gb/s", "EPM pJ", "area mm^2", "dBW%", "dEPM%", "dArea%")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %12.1f %12.1f %11.3f %+8.1f%% %+8.1f%% %+8.1f%%\n",
			p.TotalWavelengths, p.PeakBandwidthGbps, p.EnergyPerMessagePJ, p.AreaMM2,
			p.BandwidthChangePct, p.EPMChangePct, p.AreaChangePct)
	}
	fmt.Fprintln(w)
	return nil
}

// printPairGains prints the d-HetPNoC-over-Firefly deltas for rows that
// come in (Firefly, d-HetPNoC) pairs.
func printPairGains(w *bytes.Buffer, rows []experiments.Row) {
	for i := 0; i+1 < len(rows); i += 2 {
		ff, dh := rows[i], rows[i+1]
		if ff.Arch == dh.Arch || ff.Set != dh.Set || ff.Pattern != dh.Pattern {
			continue
		}
		if ff.Arch != "firefly" {
			ff, dh = dh, ff
		}
		fmt.Fprintf(w, "   %s/%s: d-HetPNoC bandwidth %+.1f%%, EPM %+.1f%%\n",
			ff.Set, ff.Pattern,
			(dh.PeakBandwidthGbps/ff.PeakBandwidthGbps-1)*100,
			(dh.EnergyPerMessagePJ/ff.EnergyPerMessagePJ-1)*100)
	}
}

func printTables(w *bytes.Buffer) {
	fmt.Fprintln(w, "== Table 3-1: bandwidth sets ==")
	for _, s := range traffic.BandwidthSets() {
		fmt.Fprintf(w, "%s: classes %v Gb/s, %d wavelengths, packets %dx%d b\n",
			s.Name, s.ClassGbps, s.TotalWavelengths, s.Format.Flits, s.Format.FlitBits)
	}
	fmt.Fprintln(w, "\n== Table 3-2: frequency of communication (share of traffic per class) ==")
	for level := 1; level <= 3; level++ {
		f, _ := traffic.SkewFrequencies(level)
		fmt.Fprintf(w, "skewed%d: %.1f%% / %.1f%% / %.2f%% / %.2f%%\n",
			level, f[0]*100, f[1]*100, f[2]*100, f[3]*100)
	}
	fmt.Fprintln(w, "\n== Table 3-3: simulation parameters ==")
	fmt.Fprintln(w, "64 cores, 16 clusters of 4; 2.5 GHz clock; 10,000 cycles with 1,000 reset;")
	fmt.Fprintln(w, "16 VCs/port, 64-flit buffers; wormhole switching; 64 wavelengths/waveguide")
	fmt.Fprintln(w, "\n== Tables 3-4 / 3-5: photonic energy parameters ==")
	p := photonic.DefaultEnergyParams()
	fmt.Fprintf(w, "modulation %.3g pJ/b, tuning %.3g pJ/b, launch %.3g pJ/b, buffer %.6g pJ/b, router %.3g pJ/b\n",
		p.ModulationPJPerBit, p.TuningPJPerBit, p.LaunchPJPerBit, p.BufferPJPerBit, p.RouterPJPerBit)
}
