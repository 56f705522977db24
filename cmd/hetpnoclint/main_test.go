package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoLintsClean is the self-gate: the hetpnoclint suite must run
// clean over the repository that ships it, test files included. A
// failure here means a violation landed without its fix.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	diags, _, err := lint("", true, []string{"hetpnoc/..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
	}
}

// TestLintFindsViolations drives the full pipeline — go list, parsing,
// type checking, every analyzer — over a scratch module with one
// violation per analyzer.
func TestLintFindsViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module badmod\n\ngo 1.22\n")
	write("internal/sim/scan.go", `package sim

import "math/bits"

func Scan(words []uint64, sink []int) {
	for _, word := range words {
		for ; word != 0; word &= word - 1 {
			sink[bits.TrailingZeros64(word)]++
		}
	}
}
`)
	write("internal/sim/step.go", `package sim

func Step() error { return nil }

func Use() {
	Step()
}

func Drop() {
	Step()
}
`)
	// Stale API golden: lists one symbol that no longer exists, knows
	// the rest.
	write("internal/sim/testdata/api/sim.golden", "Drop\tfunc func()\n"+
		"Gone\tfunc func()\n"+
		"Scan\tfunc func(words []uint64, sink []int)\n"+
		"Step\tfunc func() error\n"+
		"Use\tfunc func()\n")

	diags, _, err := lint(dir, true, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	got := map[string]int{}
	for _, d := range diags {
		got[d.Analyzer]++
		if d.Suggestion == "" {
			t.Errorf("diagnostic without a suggestion: %s: %s", d.Analyzer, d.Message)
		}
	}
	want := map[string]int{
		"errsink":    2, // Step() dropped error in Use and in Drop
		"allocproof": 1, // Scan's sink store, which no length check guards
		"apistable":  1, // Gone removed relative to the golden
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("analyzer %s reported %d diagnostics, want %d", a, got[a], n)
		}
	}
	// Every registered analyzer has bait.
	if len(want) != len(analyzers) {
		t.Errorf("bait covers %d analyzers, the suite has %d", len(want), len(analyzers))
	}
	if len(diags) == 0 {
		t.Fatal("expected diagnostics from the scratch module, got none")
	}
}

// TestSelectAnalyzers covers the -only flag resolution: subset
// selection preserves suite order, names are trimmed and
// order-insensitive, unknown names fail, and the empty string selects
// the full suite.
func TestSelectAnalyzers(t *testing.T) {
	full, err := selectAnalyzers("")
	if err != nil {
		t.Fatalf("empty -only: %v", err)
	}
	if len(full) != len(analyzers) {
		t.Errorf("empty -only selected %d analyzers, want the full suite of %d", len(full), len(analyzers))
	}

	active, err := selectAnalyzers("apistable, errsink ,allocproof")
	if err != nil {
		t.Fatalf("subset -only: %v", err)
	}
	gotNames := make([]string, len(active))
	for i, a := range active {
		gotNames[i] = a.Name
	}
	// Suite order, not flag order: apistable still runs last.
	wantNames := []string{"errsink", "allocproof", "apistable"}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("selected %v, want %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Fatalf("selected %v, want %v (suite order must be preserved)", gotNames, wantNames)
		}
	}

	// Names of retired analyzers are unknown like any other typo.
	for _, name := range []string{"errsink,nosuch", "ctxflow", "maprange", "globalstate", "hotpathreach", "dettaint", "callgraph", "snapcover", "detrand", "hotpathalloc", "goleak", "lockguard", "lockorder", "unitsafe"} {
		if _, err := selectAnalyzers(name); err == nil {
			t.Errorf("-only %s accepted, want an unknown-analyzer error", name)
		}
	}
}

// TestFixProducesGoldenTree drives the whole -fix pipeline: lint the
// deliberately broken fixture tree, apply every machine-applicable fix,
// and byte-compare each rewritten file against its want/ twin.
func TestFixProducesGoldenTree(t *testing.T) {
	broken := filepath.Join("testdata", "fixtree", "broken")
	wantDir := filepath.Join("testdata", "fixtree", "want")

	dir := t.TempDir()
	entries, err := os.ReadDir(broken)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(broken, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, fileFixes, err := lint(dir, true, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	applied, dropped, files, err := applyFixes(fileFixes, false)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if applied != 3 || dropped != 0 || files != 2 {
		t.Errorf("applied=%d dropped=%d files=%d, want 3/0/2", applied, dropped, files)
	}

	for _, name := range []string{"fixme.go", "errs.go"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s after -fix differs from want:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}
