// Package gcobs collects ground-truth optimization evidence from the Go
// compiler itself: it builds the module with
//
//	go build -gcflags='-d=ssa/check_bce' <patterns>
//
// and parses the resulting bounds-check-elimination diagnostics into
// position-keyed facts: each "Found IsInBounds" (or IsSliceInBounds) is
// a bounds check the BCE pass failed to eliminate.
//
// The go build cache stores and replays compiler diagnostics, so repeat
// collections after the first are cheap; the flag gets its own cache
// entries and never pollutes regular builds.
package gcobs

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Fact is one position-keyed bounds check the compiler left in.
type Fact struct {
	// File is the absolute path of the source file.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Text is the compiler's message, e.g. "Found IsInBounds".
	Text string `json:"text"`
}

// Report is one collection run: the facts plus enough provenance to
// reproduce it.
type Report struct {
	// Dir is the module directory the build ran in.
	Dir string `json:"dir"`
	// GcFlags are the -gcflags passed to the compiler.
	GcFlags string `json:"gcflags"`
	Facts   []Fact `json:"facts"`
}

// gcflags is the flag set handed to the compiler: BCE debugging output.
const gcflags = "-d=ssa/check_bce"

// Collect builds patterns (default ./...) in the module containing dir
// (resolved via `go list -m`, so tests running from a subdirectory still
// cover the whole module) and returns the parsed facts.
func Collect(dir string, patterns ...string) (*Report, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}

	args := append([]string{"build", "-gcflags=" + gcflags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("gcobs: go %s: %v\n%s", strings.Join(args, " "), err, tail(stderr.Bytes(), 2048))
	}
	return &Report{Dir: root, GcFlags: gcflags, Facts: Parse(root, stderr.Bytes())}, nil
}

// moduleRoot resolves the directory of the module containing dir.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("gcobs: resolving module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	if root == "" {
		return "", fmt.Errorf("gcobs: no module found in %q", dir)
	}
	return root, nil
}

// Parse extracts facts from compiler stderr output. File paths are
// reported relative to the build directory; dir makes them absolute.
func Parse(dir string, stderr []byte) []Fact {
	var facts []Fact
	for _, line := range strings.Split(string(stderr), "\n") {
		f, ok := parseLine(line)
		if !ok {
			continue
		}
		if !filepath.IsAbs(f.File) {
			f.File = filepath.Join(dir, f.File)
		}
		facts = append(facts, f)
	}
	return facts
}

// parseLine parses one "file.go:line:col: message" bounds-check
// diagnostic, returning false for package headers, indented detail and
// any other message.
func parseLine(line string) (Fact, bool) {
	if line == "" || line[0] == '#' || line[0] == ' ' || line[0] == '\t' {
		return Fact{}, false
	}
	// file.go:line:col: message
	i := strings.Index(line, ".go:")
	if i < 0 {
		return Fact{}, false
	}
	file := line[:i+3]
	fields := strings.SplitN(line[i+4:], ":", 3)
	if len(fields) != 3 {
		return Fact{}, false
	}
	lineNo, err1 := strconv.Atoi(fields[0])
	col, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil {
		return Fact{}, false
	}
	msg := strings.TrimSpace(fields[2])
	if msg != "Found IsInBounds" && msg != "Found IsSliceInBounds" {
		return Fact{}, false
	}
	return Fact{File: file, Line: lineNo, Col: col, Text: msg}, true
}

// tail returns at most n trailing bytes of b, for error messages.
func tail(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[len(b)-n:]
}
