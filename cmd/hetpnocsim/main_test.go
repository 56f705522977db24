package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hetpnoc"
)

func TestTrafficByName(t *testing.T) {
	names := []string{
		"uniform", "skewed1", "skewed2", "skewed3",
		"hotspot1", "hotspot2", "hotspot3", "hotspot4", "realapp",
	}
	for _, name := range names {
		if _, err := trafficByName(name); err != nil {
			t.Errorf("trafficByName(%q): %v", name, err)
		}
	}
	if _, err := trafficByName("bogus"); err == nil {
		t.Error("unknown traffic name accepted")
	}
}

// runText runs args and returns what run printed.
func runText(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// wantLines fails unless out holds every line of want.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, w := range want {
		if !slices.Contains(lines, w) {
			t.Errorf("output lacks the line %q:\n%s", w, out)
		}
	}
}

// eventLines returns the protocol events printed under the events header,
// or fails when the header is missing or names another count.
func eventLines(t *testing.T, out string, n int) []string {
	t.Helper()
	header := fmt.Sprintf("last %d protocol events:\n", n)
	_, events, ok := strings.Cut(out, header)
	if !ok {
		t.Fatalf("output lacks %q:\n%s", header, out)
	}
	lines := strings.Split(strings.TrimSuffix(events, "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d event lines after the header, want %d:\n%s", len(lines), n, out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "  [") {
			t.Errorf("event line %q is not an indented event", l)
		}
	}
	return lines
}

func TestRunShortSimulation(t *testing.T) {
	out := runText(t,
		"-arch", "d-hetpnoc", "-set", "1", "-traffic", "skewed2",
		"-cycles", "1500", "-warmup", "300", "-energy-breakdown",
	)
	wantLines(t, out, "architecture      d-hetpnoc", "traffic           skewed2 (load x1.00)",
		"bandwidth set     BW1", "energy breakdown:")
	if strings.Contains(out, "protocol events") {
		t.Errorf("events printed although none were asked for:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	out := runText(t,
		"-arch", "firefly", "-traffic", "uniform",
		"-cycles", "1200", "-warmup", "200", "-json",
	)
	var res hetpnoc.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not one JSON result: %v\n%s", err, out)
	}
	if res.Architecture != "firefly" || res.Traffic != "uniform" || res.PacketsDelivered == 0 {
		t.Errorf("result %s/%s with %d packets delivered, want firefly/uniform delivering some",
			res.Architecture, res.Traffic, res.PacketsDelivered)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-arch", "nonsense"},
		{"-traffic", "nonsense"},
		{"-set", "9", "-cycles", "100", "-warmup", "10"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := `{
		"Architecture": 1,
		"BandwidthSet": 1,
		"Traffic": {"Kind": 2, "SkewLevel": 2},
		"Cycles": 1500,
		"WarmupCycles": 300,
		"Seed": 9,
		"EventCapacity": 5
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runText(t, "-config", path)
	wantLines(t, out, "architecture      firefly", "traffic           skewed2 (load x1.00)")
	// The file's EventCapacity is printed as the -json output holds it.
	text := eventLines(t, out, 5)
	var res hetpnoc.Result
	if err := json.Unmarshal([]byte(runText(t, "-config", path, "-json")), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 5 {
		t.Fatalf("-json holds %d events, want 5", len(res.Events))
	}
	for i, e := range res.Events {
		if text[i] != "  "+e {
			t.Errorf("event %d printed as %q, -json holds %q", i, text[i], e)
		}
	}

	// Flags override the file.
	out = runText(t, "-config", path, "-arch", "d-hetpnoc", "-cycles", "1200", "-warmup", "200", "-events", "3")
	wantLines(t, out, "architecture      d-hetpnoc", "traffic           skewed2 (load x1.00)")
	eventLines(t, out, 3)
}

func TestConfigFileRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"Archtiecture": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}, io.Discard); err == nil {
		t.Fatal("unknown config field accepted")
	}
	if err := run([]string{"-config", filepath.Join(dir, "missing.json")}, io.Discard); err == nil {
		t.Fatal("missing config file accepted")
	}
}

func TestRunWithEvents(t *testing.T) {
	out := runText(t, "-cycles", "1200", "-warmup", "200", "-events", "8")
	eventLines(t, out, 8)
}
