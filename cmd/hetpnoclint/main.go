// Command hetpnoclint runs the repo's three analyzers
// (internal/analysis/...) over module packages and fails on any
// violation: dropped errors (errsink), residual bounds checks in the
// simulator's occupancy scan loops (allocproof) and exported-API
// stability (apistable). `make lint` wires it into the tier-1 gate. Zero
// allocations, determinism and cancellation are checked by running, not
// here (docs/ANALYSIS.md).
//
// Usage:
//
//	hetpnoclint [-json] [-tests=false] [-fix [-dry]] [-update] [-timing] [-only a,b] [-gcobsout file] [packages ...]
//
// Packages default to ./... . Each diagnostic carries a -fix-style
// suggestion: the rewrite that removes the violation. Diagnostics with machine-applicable rewrites
// are applied in place by -fix (atomically per fix, conflicting fixes
// dropped); -fix -dry reports what would change without writing.
// -update regenerates the API golden snapshots checked by apistable.
// -json emits machine-readable diagnostics for CI annotation. -timing
// prints load time and per-analyzer wall time to stderr (the CI lint
// job budgets the whole suite). -only runs a comma-separated subset of
// analyzers for fast local iteration; skipping allocproof also skips
// its compiler-evidence build.
//
// The suite loads and type-checks the module once; per-package
// analyzers then run over each package, and allocproof runs once over
// all of them against one evidence build
// (go build -gcflags='-d=ssa/check_bce'); -gcobsout writes its parsed
// bounds-check report as JSON for the CI artifact.
//
// Exit status: 0 clean (or, with -fix, every diagnostic fixed), 1
// diagnostics reported, 2 load or internal failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/allocproof"
	"hetpnoc/internal/analysis/apistable"
	"hetpnoc/internal/analysis/errsink"
	"hetpnoc/internal/analysis/fix"
	"hetpnoc/internal/analysis/gcobs"
	"hetpnoc/internal/analysis/load"
)

// analyzers is the hetpnoclint suite, in reporting order: the
// per-package analyzers first, then allocproof's whole-module pass, with
// apistable last (it only gates exported API goldens).
var analyzers = []*analysis.Analyzer{
	errsink.Analyzer,
	allocproof.Analyzer,
	apistable.Analyzer,
}

// selectAnalyzers resolves the -only flag: a comma-separated list of
// analyzer names, order-insensitive, applied as a filter over the full
// suite (suite order is preserved — apistable still reports last). The
// empty string selects everything.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	wanted := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, a := range analyzers {
			if a.Name == name {
				known = true
				break
			}
		}
		if !known {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			return nil, fmt.Errorf("-only: unknown analyzer %q (available: %s)", name, strings.Join(names, ", "))
		}
		wanted[name] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("-only: no analyzer names given")
	}
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if wanted[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// timings collects -timing instrumentation: one load, then wall time
// per analyzer (summed over packages for the per-package ones).
var timings = struct {
	load time.Duration
	per  map[string]time.Duration
}{per: make(map[string]time.Duration)}

// gcobsOut is the -gcobsout flag: where lint writes the compiler
// evidence report allocproof collected, for the CI artifact.
var gcobsOut string

// diagnostic is one resolved violation, shaped for both output modes.
type diagnostic struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
	Fixable    bool   `json:"fixable,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON for CI annotation")
	tests := flag.Bool("tests", true, "also lint _test.go files and external test packages")
	applyFix := flag.Bool("fix", false, "apply machine-applicable suggested fixes in place")
	dry := flag.Bool("dry", false, "with -fix: report what would change without writing files")
	update := flag.Bool("update", false, "regenerate apistable API golden snapshots")
	timing := flag.Bool("timing", false, "print load time and per-analyzer wall time to stderr")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: the full suite)")
	flag.StringVar(&gcobsOut, "gcobsout", "", "write allocproof's parsed bounds-check report (JSON) to this file")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	active, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetpnoclint: %v\n", err)
		os.Exit(2)
	}

	apistable.Update = *update
	diags, fileFixes, err := lint("", *tests, patterns, active)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetpnoclint: %v\n", err)
		os.Exit(2)
	}

	if *timing {
		total := timings.load
		fmt.Fprintf(os.Stderr, "hetpnoclint: load %9.3fs\n", timings.load.Seconds())
		for _, a := range active {
			d := timings.per[a.Name]
			total += d
			fmt.Fprintf(os.Stderr, "hetpnoclint: %-13s %8.3fs\n", a.Name, d.Seconds())
		}
		fmt.Fprintf(os.Stderr, "hetpnoclint: total %8.3fs\n", total.Seconds())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "hetpnoclint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
			if d.Suggestion != "" {
				fmt.Printf("\tsuggestion: %s\n", d.Suggestion)
			}
		}
	}

	if *applyFix {
		applied, dropped, files, err := applyFixes(fileFixes, *dry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetpnoclint: %v\n", err)
			os.Exit(2)
		}
		verb := "applied"
		if *dry {
			verb = "would apply"
		}
		fmt.Fprintf(os.Stderr, "hetpnoclint: %s %d fix(es) in %d file(s), %d dropped as conflicting\n",
			verb, applied, files, dropped)
		// With fixes written, only diagnostics a human must resolve keep
		// the non-zero exit; in -dry mode nothing was resolved.
		unfixed := 0
		for _, d := range diags {
			if !d.Fixable || *dry {
				unfixed++
			}
		}
		if unfixed > 0 {
			os.Exit(1)
		}
		return
	}

	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "hetpnoclint: %d violation(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// lint loads patterns from the module containing dir and applies the
// active analyzers, returning position-sorted diagnostics plus the
// machine-applicable fixes grouped by absolute file path. Skipping an
// analyzer skips everything only it needs — excluding allocproof drops
// the gcobs compiler-evidence build entirely.
func lint(dir string, tests bool, patterns []string, active []*analysis.Analyzer) ([]diagnostic, map[string][]fix.Fix, error) {
	loader := &load.Loader{Dir: dir, Tests: tests}
	loadStart := time.Now()
	fset, pkgs, err := loader.Load(patterns...)
	timings.load = time.Since(loadStart)
	if err != nil {
		return nil, nil, err
	}

	cwd, _ := os.Getwd()
	diags := []diagnostic{}
	fileFixes := map[string][]fix.Fix{}
	reporter := func(a *analysis.Analyzer) func(analysis.Diagnostic) {
		return func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			file := pos.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, file); err == nil && len(rel) < len(file) {
					file = rel
				}
			}
			fixable := false
			for _, sf := range d.Fixes {
				if f, target, ok := resolveFix(fset, sf); ok {
					fileFixes[target] = append(fileFixes[target], f)
					fixable = true
				}
			}
			diags = append(diags, diagnostic{
				Analyzer:   a.Name,
				File:       file,
				Line:       pos.Line,
				Col:        pos.Column,
				Message:    d.Message,
				Suggestion: d.Suggestion,
				Fixable:    fixable,
			})
		}
	}

	for _, p := range pkgs {
		for _, a := range active {
			if a.Run == nil {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.Info,
				Report:    reporter(a),
			}
			start := time.Now()
			err := a.Run(pass)
			timings.per[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", a.Name, p.Path, err)
			}
		}
	}

	// Whole-module layer: one pass over every loaded package, sharing
	// one cache so the compiler evidence is collected once.
	units := make([]*analysis.PackageUnit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &analysis.PackageUnit{Path: p.Path, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.Info}
	}
	cache := make(map[string]any)
	cache[allocproof.DirKey] = dir
	for _, a := range active {
		if a.RunModule == nil {
			continue
		}
		mp := &analysis.ModulePass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     units,
			Report:   reporter(a),
			Cache:    cache,
		}
		start := time.Now()
		err := a.RunModule(mp)
		timings.per[a.Name] += time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	if gcobsOut != "" {
		if report, ok := cache[allocproof.ReportKey].(*gcobs.Report); ok {
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				return nil, nil, fmt.Errorf("gcobsout: %w", err)
			}
			if err := os.WriteFile(gcobsOut, append(data, '\n'), 0o644); err != nil {
				return nil, nil, fmt.Errorf("gcobsout: %w", err)
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})
	return diags, fileFixes, nil
}

// resolveFix turns a SuggestedFix's token positions into byte offsets.
// A fix whose edits span multiple files is not applicable.
func resolveFix(fset *token.FileSet, sf analysis.SuggestedFix) (fix.Fix, string, bool) {
	out := fix.Fix{Message: sf.Message}
	target := ""
	for _, e := range sf.TextEdits {
		start := fset.Position(e.Pos)
		end := fset.Position(e.End)
		if start.Filename == "" || start.Filename != end.Filename {
			return fix.Fix{}, "", false
		}
		if target == "" {
			target = start.Filename
		} else if target != start.Filename {
			return fix.Fix{}, "", false
		}
		out.Edits = append(out.Edits, fix.Edit{Start: start.Offset, End: end.Offset, New: e.NewText})
	}
	if target == "" {
		return fix.Fix{}, "", false
	}
	return out, target, true
}

// applyFixes rewrites (or, in dry mode, only reports) each file with its
// accumulated fixes.
func applyFixes(fileFixes map[string][]fix.Fix, dry bool) (applied, dropped, files int, err error) {
	paths := make([]string, 0, len(fileFixes))
	for p := range fileFixes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return applied, dropped, files, err
		}
		res := fix.Apply(src, fileFixes[path])
		applied += res.Applied
		dropped += res.Dropped
		if res.Applied == 0 {
			continue
		}
		files++
		if dry {
			fmt.Fprintf(os.Stderr, "hetpnoclint: would rewrite %s (%d fixes)\n", path, res.Applied)
			continue
		}
		if err := os.WriteFile(path, res.Src, 0o644); err != nil {
			return applied, dropped, files, err
		}
	}
	return applied, dropped, files, nil
}
