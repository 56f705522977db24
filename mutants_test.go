package hetpnoc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutant is one entry of the mutant catalogue (testdata/mutants/*.json):
// the one-place edit that turns File's source into a known defect, and
// the tests that must fail on it. Old occurs exactly once in File; New
// replaces it. Each killer is "package:run pattern", as in `go test -run
// pattern ./package`. `make mutants` applies every entry alone to a
// copy of the module and runs its killers (mutants_run_test.go).
type mutant struct {
	Name    string   `json:"name"`
	File    string   `json:"file"`
	Old     string   `json:"old"`
	New     string   `json:"new"`
	Killers []string `json:"killers"`
}

// killer splits a killer into its package and its -run pattern.
func killer(k string) (pkg, run string) {
	pkg, run, _ = strings.Cut(k, ":")
	return pkg, run
}

// loadMutants reads the catalogue, one JSON array per family file, each
// entry named family/....
func loadMutants(t *testing.T) []mutant {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no mutant catalogue: %v", err)
	}
	var all []mutant
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var family []mutant
		if err := json.Unmarshal(data, &family); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		all = append(all, family...)
	}
	return all
}

// TestMutantCatalogue keeps the catalogue applicable without running
// it: every name is unique, every Old is found exactly once in its file
// and every killer names a package and a valid pattern. An edit to a
// mutated line fails here until its entry follows.
func TestMutantCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range loadMutants(t) {
		if seen[m.Name] {
			t.Errorf("%s: name used twice", m.Name)
		}
		seen[m.Name] = true
		src, err := os.ReadFile(filepath.FromSlash(m.File))
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if n := strings.Count(string(src), m.Old); n != 1 || m.New == m.Old {
			t.Errorf("%s: old text found %d times in %s, want once and a different new text", m.Name, n, m.File)
		}
		if len(m.Killers) == 0 {
			t.Errorf("%s: no killer", m.Name)
		}
		for _, k := range m.Killers {
			pkg, run := killer(k)
			for _, elem := range strings.Split(run, "/") {
				if _, err := regexp.Compile(elem); err != nil || run == "" {
					t.Errorf("%s: killer %q has no valid -run pattern", m.Name, k)
				}
			}
			if matches, _ := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go")); len(matches) == 0 {
				t.Errorf("%s: killer %q names a package without tests", m.Name, k)
			}
		}
	}
}
