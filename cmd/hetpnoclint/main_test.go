package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoLintsClean is the self-gate: the hetpnoclint suite must run
// clean over the repository that ships it, test files included. A
// failure here means a determinism or hot-path violation landed without
// a justified directive.
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
	write("internal/sim/bad.go", `package sim

import (
	"fmt"
	"math/rand"
	"time"
)

var hits int

func Draw(m map[string]int) int64 {
	s := 0
	for _, v := range m {
		s += v
	}
	hits += s
	return rand.Int63() + time.Now().UnixNano()
}

//hetpnoc:hotpath
func Hot(n int) string {
	return fmt.Sprintf("%d", n)
}
`)
	write("internal/sim/ctx.go", `package sim

import "context"

func StepContext(ctx context.Context) error { return ctx.Err() }

func Step() error { return nil }

func Use(ctx context.Context) {
	Step()
	_ = context.Background()
}

func Drop() {
	Step()
}
`)
	// Whole-program layer bait. helper is a non-sim package whose
	// Jitter launders time.Now; fabric is a sim package (suffix match)
	// that calls it, and whose hotpath root reaches helper.Label's
	// fmt.Sprintf two frames down. Neither package has an API golden,
	// so apistable ignores the exported surface here. fabric also
	// carries the compiler-evidence bait (Esc's local moved to the heap
	// on a hot path) and the snapshot-coverage bait (Core's
	// Snapshot/Restore both miss the mutable drift field).
	write("internal/helper/helper.go", `package helper

import (
	"fmt"
	"time"
)

func Jitter() int64 { return time.Now().UnixNano() }

func Label(n int) string { return fmt.Sprintf("h%d", n) }
`)
	write("internal/fabric/fabric.go", `package fabric

import "badmod/internal/helper"

//hetpnoc:hotpath
func Step(n int) int {
	return len(helper.Label(n))
}

func Sync() int64 {
	return helper.Jitter()
}

//hetpnoc:hotpath
func Esc() *int {
	v := 0
	return &v
}
`)
	// Stale API golden: lists one symbol that no longer exists, knows
	// the rest.
	write("internal/sim/testdata/api/sim.golden", "Draw\tfunc func(m map[string]int) int64\n"+
		"Drop\tfunc func()\n"+
		"Gone\tfunc func()\n"+
		"Hot\tfunc func(n int) string\n"+
		"Step\tfunc func() error\n"+
		"StepContext\tfunc func(ctx context.Context) error\n"+
		"Use\tfunc func(ctx context.Context)\n")

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
		"maprange":     1, // undirected range over m
		"globalstate":  1, // package-level var hits
		"ctxflow":      2, // Step() with ctx in scope + context.Background mint
		"errsink":      2, // Step() dropped error in Use and in Drop
		"hotpathreach": 2, // fmt.Sprintf in root sim.Hot + fabric.Step -> helper.Label reaches fmt.Sprintf
		"dettaint":     3, // math/rand import + time.Now call in sim + fabric.Sync calls helper.Jitter (taints to time.Now)
		"apistable":    1, // Gone removed relative to the golden
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("analyzer %s reported %d diagnostics, want %d", a, got[a], n)
		}
	}
	// Every registered analyzer has bait: want plus allocproof below.
	if len(want)+1 != len(analyzers) {
		t.Errorf("bait covers %d analyzers, the suite has %d", len(want)+1, len(analyzers))
	}
	// allocproof counts come from the live compiler's -m=2 output, which
	// shifts with toolchain version (inlining attribution, moved/escape
	// pairing), so assert a floor: Esc's moved-to-heap local and Hot's
	// boxed Sprintf operand are unambiguous hot-path allocations.
	if got["allocproof"] < 2 {
		t.Errorf("analyzer allocproof reported %d diagnostics, want at least 2", got["allocproof"])
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

	active, err := selectAnalyzers("hotpathreach, maprange ,dettaint")
	if err != nil {
		t.Fatalf("subset -only: %v", err)
	}
	gotNames := make([]string, len(active))
	for i, a := range active {
		gotNames[i] = a.Name
	}
	// Suite order, not flag order: maprange runs first, apistable would
	// still run last if selected.
	wantNames := []string{"maprange", "hotpathreach", "dettaint"}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("selected %v, want %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Fatalf("selected %v, want %v (suite order must be preserved)", gotNames, wantNames)
		}
	}

	// Names of analyzers folded into dettaint/hotpathreach or removed
	// are unknown like any other typo.
	for _, name := range []string{"maprange,nosuch", "detrand", "hotpathalloc", "goleak", "lockguard", "lockorder", "unitsafe"} {
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
	if applied != 4 || dropped != 0 || files != 2 {
		t.Errorf("applied=%d dropped=%d files=%d, want 4/0/2", applied, dropped, files)
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
