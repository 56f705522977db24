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
// Simulation figures honour -cycles/-warmup/-seed; -quick shrinks the run
// lengths that -cycles and -warmup do not set, for a fast smoke pass.
// All selected figures' configs run as one batch plan, in which a config
// listed twice runs once; -parallel bounds concurrent simulations. -csv
// dir also writes Figs 3-3 and 3-5 as CSV, -html file a self-contained
// HTML report with SVG charts of Figs 1-1, 3-3/3-4, 3-6 and the ablations.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hetpnoc/internal/area"
	"hetpnoc/internal/experiments"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/report"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// figure is one selected section of the output: its configs, the printer
// of their rows and, if it has them, its -csv file name and HTML report
// section. run sets rows (those of cfgs) and file (the -csv file).
type figure struct {
	cfgs    []fabric.Config
	print   func(w *bytes.Buffer, rows []experiments.Row) error
	csv     string
	section func(r *report.Report, rows []experiments.Row) error

	rows []experiments.Row
	file *os.File
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
		quick       = fs.Bool("quick", false, "short runs (4000 cycles, 800 warm-up) unless -cycles or -warmup says otherwise")
		parallel    = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		csvDir      = fs.String("csv", "", "also write machine-readable CSV files into this directory")
		htmlPath    = fs.String("html", "", "also write the selected figures as an HTML report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tables {
		return runFigures(stdout, []figure{{print: printTables}})
	}

	opts := experiments.Options{Cycles: *cycles, WarmupCycles: *warmup, Seed: *seed, Parallelism: *parallel}
	if *quick {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["cycles"] {
			opts.Cycles = 4000
		}
		if !set["warmup"] {
			opts.WarmupCycles = 800
		}
	}

	var figures []figure
	add := func(f figure) { figures = append(figures, f) }

	all := *fig == ""
	if all || *fig == "1-1" {
		add(figure{print: printFig1_1, section: addFig1_1})
	}
	if all || *fig == "3-3" || *fig == "3-4" {
		add(figure{cfgs: experiments.PeakBandwidth(traffic.BandwidthSets()), print: printFig3_3, csv: "fig3-3_peak_bandwidth.csv", section: addFig3_3})
	}
	if all || *fig == "3-5" {
		add(figure{cfgs: experiments.CaseStudies(traffic.BWSet1), print: printFig3_5, csv: "fig3-5_case_studies.csv"})
	}
	if all || *fig == "3-6" {
		add(figure{print: printFig3_6, section: addFig3_6})
	}
	if all || *fig == "3-7" {
		add(scaling(fabric.DHetPNoC, "3-7"))
	}
	if all || *fig == "3-8" || *fig == "3-9" {
		add(figure{cfgs: acrossSets(fabric.DHetPNoC, traffic.Skewed{Level: 3}), print: printFig3_8})
	}
	if all || *fig == "3-10" {
		add(scaling(fabric.Firefly, "3-10"))
	}
	if *ablations {
		add(figure{cfgs: experiments.Ablations(), print: printAblations, section: addAblations})
	}
	if *latency {
		add(figure{cfgs: latencyCurves(), print: printLatencyCurves})
	}
	if *sensitivity {
		add(figure{cfgs: experiments.SensitivityRuns(), print: printSensitivity})
	}

	// Every output file is created before anything simulates, so a bad
	// path fails at once; the deferred Close covers the error paths.
	var page *os.File
	if *htmlPath != "" {
		var err error
		if page, err = os.Create(*htmlPath); err != nil {
			return err
		}
		defer page.Close()
	}
	var cfgs []fabric.Config
	for i, f := range figures {
		cfgs = append(cfgs, f.cfgs...)
		if f.csv != "" && *csvDir != "" {
			var err error
			if figures[i].file, err = os.Create(filepath.Join(*csvDir, f.csv)); err != nil {
				return err
			}
			defer figures[i].file.Close()
		}
	}
	// NewPlan refuses an empty list: -fig 1-1 or 3-6 alone runs nothing.
	if len(cfgs) > 0 {
		rows, err := experiments.RunMatrix(ctx, opts, cfgs)
		if err != nil {
			return err
		}
		for i := range figures {
			n := len(figures[i].cfgs)
			figures[i].rows, rows = rows[:n], rows[n:]
		}
	}
	if err := runFigures(stdout, figures); err != nil {
		return err
	}
	if page == nil {
		return nil
	}
	return writeReport(stdout, page, figures)
}

// runFigures prints the figures in order, each after writing its CSV
// file. Every figure writes into its own buffer — an in-memory sink that
// cannot fail, so table rendering needs no per-line error handling —
// which is flushed to stdout before a failure is reported, so a failing
// figure still shows what it printed.
func runFigures(stdout io.Writer, figures []figure) error {
	for _, f := range figures {
		var buf bytes.Buffer
		var err error
		if f.file != nil {
			err = write(&buf, f.file, func(w io.Writer) error { return experiments.WriteRowsCSV(w, f.rows) })
		}
		if err == nil {
			err = f.print(&buf, f.rows)
		}
		if _, werr := stdout.Write(buf.Bytes()); werr != nil {
			return werr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeReport renders the sections of the figures that have one into
// page, in figure order, and closes it.
func writeReport(stdout io.Writer, page *os.File, figures []figure) error {
	r := report.New(
		"d-HetPNoC reproduction report",
		"Heterogeneous Photonic Network-on-Chip with Dynamic Bandwidth Allocation (Shah, RIT/SOCC 2014) — simulated with the hetpnoc package")
	for _, f := range figures {
		if f.section == nil {
			continue
		}
		if err := f.section(r, f.rows); err != nil {
			return err
		}
	}
	return write(stdout, page, r.Render)
}

// write renders into f, closes it and says so on w.
func write(w io.Writer, f *os.File, render func(io.Writer) error) error {
	if err := render(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "wrote", f.Name())
	return err
}

func addFig1_1(r *report.Report, _ []experiments.Row) error {
	points, err := gpgpu.Figure1_1()
	if err != nil {
		return err
	}
	return r.AddGPUSpeedups(points)
}

func addFig3_3(r *report.Report, rows []experiments.Row) error {
	for _, set := range traffic.BandwidthSets() {
		if err := r.AddPeakBandwidth(set.Name, rows); err != nil {
			return err
		}
	}
	return nil
}

func addFig3_6(r *report.Report, _ []experiments.Row) error {
	return r.AddAreaModel(experiments.AreaSweep(nil))
}

func addAblations(r *report.Report, rows []experiments.Row) error {
	r.AddAblations(experiments.LabelAblations(rows))
	return nil
}

func printSensitivity(w *bytes.Buffer, runs []experiments.Row) error {
	rows, err := experiments.EnergySensitivity(runs[0], runs[1], nil)
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

// latencyCurves lists the classic NoC latency-throughput curve of each
// architecture, one config per offered load: latency rises gently until
// the network saturates, then climbs steeply while delivered bandwidth
// flattens. The thesis reports only the saturation point.
func latencyCurves() []fabric.Config {
	var cfgs []fabric.Config
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
		for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
			cfgs = append(cfgs, fabric.Config{Arch: arch, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, LoadScale: load})
		}
	}
	return cfgs
}

func printLatencyCurves(w *bytes.Buffer, rows []experiments.Row) error {
	fmt.Fprintln(w, "== Load-latency curves (extension), BW set 1, skewed 2 ==")
	fmt.Fprintf(w, "%-10s %6s %12s %14s %12s\n", "arch", "load", "offered", "delivered", "avg latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6.2f %10.1f G %12.1f G %10.1f c\n",
			r.Arch, r.AtLoad, r.OfferedGbps, r.PeakBandwidthGbps, r.AvgLatencyCycles)
	}
	fmt.Fprintln(w)
	return nil
}

func printAblations(w *bytes.Buffer, rows []experiments.Row) error {
	rows = experiments.LabelAblations(rows)
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

func printFig1_1(w *bytes.Buffer, _ []experiments.Row) error {
	points, err := gpgpu.Figure1_1()
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

func printFig3_3(w *bytes.Buffer, rows []experiments.Row) error {
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

func printFig3_5(w *bytes.Buffer, rows []experiments.Row) error {
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

func printFig3_6(w *bytes.Buffer, _ []experiments.Row) error {
	fmt.Fprintln(w, "== Figure 3-6: total electro-optic device area vs aggregate bandwidth ==")
	fmt.Fprintf(w, "%12s %15s %13s %10s\n", "wavelengths", "d-HetPNoC mm^2", "Firefly mm^2", "overhead")
	for _, p := range experiments.AreaSweep(nil) {
		fmt.Fprintf(w, "%12d %15.3f %13.3f %9.1f%%\n", p.DataWavelengths, p.DynamicMM2, p.FireflyMM2, p.OverheadPct)
	}
	fmt.Fprintln(w)
	return nil
}

// standardPatterns are Figures 3-7/3-10's patterns: uniform-random plus
// the three skewed levels of Table 3-1.
var standardPatterns = []traffic.Pattern{
	traffic.Uniform{}, traffic.Skewed{Level: 1}, traffic.Skewed{Level: 2}, traffic.Skewed{Level: 3},
}

// acrossSets lists one arch config per bandwidth set and pattern, set by
// set.
func acrossSets(arch fabric.Arch, patterns ...traffic.Pattern) []fabric.Config {
	var cfgs []fabric.Config
	for _, set := range traffic.BandwidthSets() {
		for _, p := range patterns {
			cfgs = append(cfgs, fabric.Config{Set: set, Pattern: p, Arch: arch})
		}
	}
	return cfgs
}

// areaOf is the analytic electro-optic area of arch at a wavelength
// budget.
func areaOf(arch string, wavelengths int) units.SquareMillimeter {
	cfg := area.DefaultConfig(wavelengths)
	if arch == fabric.Firefly.String() {
		return cfg.FireflyAreaMM2()
	}
	return cfg.DynamicAreaMM2()
}

// scaling is Figure 3-7 (d-HetPNoC) or 3-10 (Firefly): arch's runs under
// the standard patterns across the bandwidth sets.
func scaling(arch fabric.Arch, figName string) figure {
	return figure{cfgs: acrossSets(arch, standardPatterns...), print: func(w *bytes.Buffer, rows []experiments.Row) error {
		fmt.Fprintf(w, "== Figure %s: %s peak core bandwidth and EPM across bandwidth sets ==\n", figName, arch)
		fmt.Fprintf(w, "%-5s %-10s %6s %15s %14s %12s\n", "set", "traffic", "total", "per-core Gb/s", "EPM pJ", "area mm^2")
		for _, r := range rows {
			fmt.Fprintf(w, "%-5s %-10s %6d %15.2f %14.1f %12.3f\n",
				r.Set, r.Pattern, r.TotalWavelengths, r.PerCoreGbps, r.EnergyPerMessagePJ, areaOf(r.Arch, r.TotalWavelengths))
		}
		fmt.Fprintln(w)
		return nil
	}}
}

// printFig3_8 prints Figures 3-8 and 3-9: the effect of growing the total
// wavelength count (64 -> 256 -> 512) on d-HetPNoC's peak bandwidth,
// energy per message and area under skewed 3 traffic, each as a change
// from the first set (the thesis: +751.31% bandwidth, +70% area, -10.89%
// energy per message from 64 to 512 wavelengths).
func printFig3_8(w *bytes.Buffer, rows []experiments.Row) error {
	fmt.Fprintln(w, "== Figures 3-8 / 3-9: d-HetPNoC, skewed 3 — wavelengths vs peak bandwidth, EPM, area ==")
	fmt.Fprintf(w, "%12s %12s %12s %11s %9s %9s %9s\n",
		"wavelengths", "peak Gb/s", "EPM pJ", "area mm^2", "dBW%", "dEPM%", "dArea%")
	base, baseArea := rows[0], areaOf(rows[0].Arch, rows[0].TotalWavelengths)
	for _, r := range rows {
		a := areaOf(r.Arch, r.TotalWavelengths)
		fmt.Fprintf(w, "%12d %12.1f %12.1f %11.3f %+8.1f%% %+8.1f%% %+8.1f%%\n",
			r.TotalWavelengths, r.PeakBandwidthGbps, r.EnergyPerMessagePJ, a,
			(r.PeakBandwidthGbps/base.PeakBandwidthGbps-1)*100,
			(r.EnergyPerMessagePJ/base.EnergyPerMessagePJ-1)*100,
			(a/baseArea-1)*100)
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

func printTables(w *bytes.Buffer, _ []experiments.Row) error {
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
	return nil
}
