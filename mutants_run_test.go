//go:build mutants

package hetpnoc

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMutants runs the mutant catalogue: it copies the module once, then
// applies each entry alone to the copy, runs the entry's killers with
// plain `go test` until one fails, and puts the file back. A mutant no
// killer fails survives; one that does not build is a broken entry. Both
// fail the test, which ends with the tally per family. Run it with `make
// mutants`; `-run 'TestMutants/alloc'` picks a family or an entry.
func TestMutants(t *testing.T) {
	all := loadMutants(t)
	root := t.TempDir()
	if err := copyModule(".", root); err != nil {
		t.Fatal(err)
	}
	type count struct{ killed, total int }
	tally := map[string]*count{}
	var families []string
	start := time.Now()
	for _, m := range all {
		family, _, _ := strings.Cut(m.Name, "/")
		t.Run(m.Name, func(t *testing.T) {
			if tally[family] == nil {
				tally[family] = &count{}
				families = append(families, family)
			}
			tally[family].total++
			path := filepath.Join(root, filepath.FromSlash(m.File))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(src), m.Old) != 1 {
				t.Fatalf("the old text is not found exactly once in %s", m.File)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			for _, k := range m.Killers {
				pkg, run := killer(k)
				cmd := exec.Command("go", "test", "-count=1", "-failfast", "-timeout=5m", "-run", run, pkg)
				cmd.Dir = root
				out, err := cmd.CombinedOutput()
				if err == nil {
					continue
				}
				if strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]") {
					t.Fatalf("the mutant does not build:\n%s", out)
				}
				tally[family].killed++
				t.Logf("killed by %s: %s", k, firstFailure(out))
				return
			}
			t.Errorf("survived %s", strings.Join(m.Killers, ", "))
		})
	}
	for _, family := range families {
		c := tally[family]
		t.Logf("%s: %d of %d mutants killed", family, c.killed, c.total)
	}
	t.Logf("wall time %v", time.Since(start).Round(time.Second))
}

// copyModule copies the module's files under src to dst, leaving out
// version control.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		target := filepath.Join(dst, path)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// firstFailure returns the first line of a failed go test's output that
// reports where a test failed.
func firstFailure(out []byte) string {
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); strings.Contains(line, "_test.go:") || strings.HasPrefix(line, "panic:") {
			return line
		}
	}
	return "no failure line"
}
