package apistable_test

import (
	"os"
	"path/filepath"
	"testing"

	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/apistable"
)

// TestUpdateRoundTrip checks -update semantics: Update writes a golden
// that the very next plain run accepts without diagnostics.
func TestUpdateRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "src", "apup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package apup

// Hello is exported API.
func Hello(n int) int { return n }

// T is exported API with a field and a method.
type T struct{ N int }

// M is exported API.
func (t T) M() {}
`
	if err := os.WriteFile(filepath.Join(dir, "apup.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Opt the package in: a golden (however stale) marks it as
	// API-frozen; -update then refreshes it. Packages with no golden are
	// only snapshotted when listed in apistable.Required.
	golden := filepath.Join(dir, "testdata", "api", "apup.golden")
	if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, []byte("Stale\tfunc func()\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	apistable.Update = true
	analysistest.Run(t, tmp, apistable.Analyzer, "apup")
	apistable.Update = false

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("update did not write the golden: %v", err)
	}
	want := "Hello\tfunc func(n int) int\n" +
		"T\ttype struct\n" +
		"T.M\tmethod func()\n" +
		"T.N\tfield int\n"
	if string(data) != want {
		t.Errorf("golden mismatch\ngot:\n%s\nwant:\n%s", data, want)
	}

	// A plain run against the freshly written golden must be clean; the
	// fixture has no want comments, so any diagnostic fails the test.
	analysistest.Run(t, tmp, apistable.Analyzer, "apup")
}
