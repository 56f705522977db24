package serve

import (
	"strings"
	"testing"

	"hetpnoc"
)

func TestDecodeRunRequestDefaults(t *testing.T) {
	cfg, err := DecodeRunRequest([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	norm := cfg.Normalized()
	if norm.Architecture != hetpnoc.DHetPNoC || norm.BandwidthSet != 1 ||
		norm.Traffic.Kind != hetpnoc.UniformRandom || norm.Cycles != 10000 {
		t.Fatalf("empty request did not normalize to the Table 3-3 defaults: %+v", norm)
	}
}

func TestDecodeRunRequestEnumMapping(t *testing.T) {
	cases := []struct {
		body string
		arch hetpnoc.Architecture
		kind hetpnoc.TrafficKind
	}{
		{`{"architecture":"firefly"}`, hetpnoc.Firefly, 0},
		{`{"architecture":"d-hetpnoc"}`, hetpnoc.DHetPNoC, 0},
		{`{"architecture":"dhetpnoc"}`, hetpnoc.DHetPNoC, 0},
		{`{"architecture":"torus-pnoc"}`, hetpnoc.TorusPNoC, 0},
		{`{"architecture":"torus"}`, hetpnoc.TorusPNoC, 0},
		{`{"traffic":{"kind":"uniform"}}`, 0, hetpnoc.UniformRandom},
		{`{"traffic":{"kind":"skewed","skewLevel":2}}`, 0, hetpnoc.SkewedKind},
		{`{"traffic":{"kind":"hotspot","hotspotFraction":0.1,"skewLevel":1}}`, 0, hetpnoc.SkewedHotspotKind},
		{`{"traffic":{"kind":"realapp"}}`, 0, hetpnoc.RealApplication},
		{`{"traffic":{"kind":"permutation","permutation":"transpose"}}`, 0, hetpnoc.PermutationKind},
	}
	for _, tc := range cases {
		cfg, err := DecodeRunRequest([]byte(tc.body))
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if cfg.Architecture != tc.arch {
			t.Errorf("%s: architecture = %v, want %v", tc.body, cfg.Architecture, tc.arch)
		}
		if cfg.Traffic.Kind != tc.kind {
			t.Errorf("%s: traffic kind = %v, want %v", tc.body, cfg.Traffic.Kind, tc.kind)
		}
	}
}

func TestDecodeRunRequestRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"cyclez":100}`, "unknown field"},
		{"trailing data", `{"cycles":100}{"cycles":200}`, "trailing data"},
		{"wrong shape", `[1,2,3]`, "bad request"},
		{"empty body", ``, "bad request"},
		{"unknown architecture", `{"architecture":"hypercube"}`, "unknown architecture"},
		{"unknown kind", `{"traffic":{"kind":"adversarial"}}`, "unknown traffic kind"},
		{"unknown permutation", `{"traffic":{"kind":"permutation","permutation":"frobnicate"}}`, "permutation"},
		{"bad skew level", `{"traffic":{"kind":"skewed","skewLevel":9}}`, "skew"},
	}
	for _, tc := range cases {
		_, err := DecodeRunRequest([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: decoder accepted %q", tc.name, tc.body)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestSweepExpandCrossProduct(t *testing.T) {
	configs, err := DecodeSweepRequest([]byte(`{
		"base": {"cycles": 2000, "seed": 3},
		"loadScales": [0.5, 1],
		"bandwidthSets": [1, 2],
		"architectures": ["firefly", "d-hetpnoc"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 8 {
		t.Fatalf("expanded to %d points, want 8", len(configs))
	}
	// Deterministic order: load outermost, then set, then architecture.
	first, last := configs[0], configs[7]
	if first.LoadScale != 0.5 || first.BandwidthSet != 1 || first.Architecture != hetpnoc.Firefly {
		t.Fatalf("first point = %+v", first)
	}
	if last.LoadScale != 1 || last.BandwidthSet != 2 || last.Architecture != hetpnoc.DHetPNoC {
		t.Fatalf("last point = %+v", last)
	}
	for i, cfg := range configs {
		if cfg.Cycles != 2000 || cfg.Seed != 3 {
			t.Fatalf("point %d lost base fields: %+v", i, cfg)
		}
	}
}

func TestSweepExpandCaps(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"base":{},"seeds":[`)
	for i := 0; i <= MaxSweepPoints; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("1")
	}
	b.WriteString(`]}`)
	if _, err := DecodeSweepRequest([]byte(b.String())); err == nil {
		t.Fatal("oversized axis accepted")
	}
	// Axes individually under the cap but whose product exceeds it.
	if _, err := DecodeSweepRequest([]byte(`{
		"base": {},
		"loadScales": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],
		"bandwidthSets": [1,2,3],
		"architectures": ["firefly","d-hetpnoc","torus-pnoc"],
		"seeds": [1,2]
	}`)); err == nil {
		t.Fatal("oversized cross product accepted")
	}
}

func TestSweepExpandInvalidPoint(t *testing.T) {
	if _, err := DecodeSweepRequest([]byte(`{"base":{},"bandwidthSets":[1,9]}`)); err == nil {
		t.Fatal("sweep with an invalid bandwidth set accepted")
	}
}

// TestAbsurdLoadScaleRefusedEverywhere: a load scale past the fabric's
// bound is a configuration error on every path a config can take — a
// batch forks through Fabric.SetLoadScale, which always refused it, so a
// solo run that simulated it broke "every batch member is byte-identical
// to a solo run".
func TestAbsurdLoadScaleRefusedEverywhere(t *testing.T) {
	cfg := hetpnoc.Config{LoadScale: 1e13, Cycles: 200, WarmupCycles: 20}
	const want = "load scale 1e+13 out of range"
	_, runErr := hetpnoc.Run(cfg)
	_, batchErr := hetpnoc.RunBatch([]hetpnoc.Config{cfg})
	_, decodeErr := DecodeRunRequest([]byte(`{"loadScale":1e13,"cycles":200,"warmupCycles":20}`))
	for path, err := range map[string]error{
		"Validate":         cfg.Validate(),
		"Run":              runErr,
		"RunBatch":         batchErr,
		"DecodeRunRequest": decodeErr,
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one mentioning %q", path, err, want)
		}
	}
}
