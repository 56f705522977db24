package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hetpnoc"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/serve"
	"hetpnoc/internal/testutil/leakcheck"
)

func TestPercentileIsNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},  // ceil(0.5*10) = 5th sample, never the 5.5 an interpolation gives
		{ten, 90, 9},  // 9th of 10
		{ten, 91, 10}, // any share past 90 % needs the last sample
		{ten, 100, 10},
		{ten, 0.1, 1},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.sorted, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %g, want 5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {22, 50}, // too few samples for any tail: the median is all there is
		{99, 50},   // p90 would leave 9 beyond
		{100, 90},  // p90 leaves exactly 10
		{199, 90},  // p95 would leave 9
		{200, 95},  // p95 leaves 10
		{1000, 99}, // p99 leaves 10, p99.9 leaves 1
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTimeOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: parallel workers
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120}, // runs past the parent: clipped
		{ID: 6, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 7, Parent: 1, Name: "open", Start: 80, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10 + 5), // [10,50] merged, [60,70], [95,100]
		2: 20 - 6,
		3: 30,
		4: 10,
		5: 25,
		6: 6,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	layers := summarize(spans)
	var op layerSummary
	for _, l := range layers {
		if l.Name == "op" {
			op = l
		}
		if l.Name == "open" {
			t.Errorf("open span summarized: %+v", l)
		}
	}
	if op.Count != 1 || op.TotalMS != 100e-6 || op.SelfMS != 45e-6 {
		t.Errorf("op summary = %+v, want count 1, total 100 ns, self 45 ns", op)
	}
}

// allInputs renders every input the benchmark derives from a seed into
// one byte string.
func allInputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	add := func(cfgs []hetpnoc.Config) {
		for _, cfg := range cfgs {
			body, err := requestBody(cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(body)
		}
	}
	for op := uint64(0); op < 3; op++ {
		add(panelConfigs(shapeSaturated, simSeed(seed, streamPanel, op)))
		add(panelConfigs(shapeLightload, simSeed(seed, streamPanel, op)))
		add(sweepConfigs(seed, streamSweep, op))
	}
	for g := uint64(0); g < 5000; g++ {
		r := scheduleAt(seed, g)
		if r.hot >= 0 {
			add([]hetpnoc.Config{serveConfig(simSeed(seed, streamHot, uint64(r.hot)))})
		} else {
			add([]hetpnoc.Config{serveConfig(r.seed)})
		}
	}
	return buf.Bytes()
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	a, b, c := allInputs(t, 42), allInputs(t, 42), allInputs(t, 43)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different configs or request bodies")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical inputs")
	}
}

func TestScheduleHasOneMissPerBlock(t *testing.T) {
	const blocks = 200
	seen := make(map[uint64]bool)
	hotUsed := make(map[int]bool)
	for b := 0; b < blocks; b++ {
		misses := 0
		for i := 0; i < missPerBlock; i++ {
			r := scheduleAt(7, uint64(b*missPerBlock+i))
			if r.hot >= 0 {
				if r.hot >= hotSetSize {
					t.Fatalf("hot index %d outside the hot set", r.hot)
				}
				hotUsed[r.hot] = true
				continue
			}
			misses++
			if r.seed == 0 || seen[r.seed] {
				t.Fatalf("miss seed %d is zero or repeats: a repeat would be a cache hit", r.seed)
			}
			seen[r.seed] = true
		}
		if misses != 1 {
			t.Fatalf("block %d has %d misses, want exactly 1", b, misses)
		}
	}
	if len(hotUsed) != hotSetSize {
		t.Errorf("%d of %d hot configs drawn in %d requests", len(hotUsed), hotSetSize, blocks*missPerBlock)
	}
}

// benchConfigs is one of every kind of config the benchmark generates.
func benchConfigs() []hetpnoc.Config {
	cfgs := panelConfigs(shapeSaturated, 11)
	cfgs = append(cfgs, panelConfigs(shapeLightload, 12)...)
	cfgs = append(cfgs, sweepConfigs(13, streamSweep, 0)...)
	return append(cfgs, serveConfig(14))
}

func TestRequestBodyDecodesToTheSameConfig(t *testing.T) {
	for _, cfg := range benchConfigs() {
		body, err := requestBody(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serve.DecodeRunRequest(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(got.Normalized(), cfg.Normalized()) {
			t.Errorf("body %s decodes to %+v, want %+v", body, got.Normalized(), cfg.Normalized())
		}
	}
}

func TestHandLoweringMatchesRun(t *testing.T) {
	// Every panel member of every run shape the traced pass decomposes.
	for _, sh := range []shape{shapeSaturated, shapeLightload, shapeSweep, shapeServe} {
		for i, cfg := range panelConfigs(sh, 5) {
			want, err := hetpnoc.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := lower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fabric.New(fc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !agrees(got, want) {
				t.Errorf("%s at %+v: lowered run delivered %d packets, %v, %v; hetpnoc.Run %d, %v, %v",
					panelMembers[i].name, sh.traffic, got.Stats.PacketsDelivered, got.Stats.DeliveredGbps, got.EnergyTotalPJ,
					want.PacketsDelivered, want.DeliveredGbps, want.EnergyTotalPJ)
			}
			if want.PacketsDelivered == 0 {
				t.Errorf("%s at %+v delivered nothing: the comparison is vacuous", panelMembers[i].name, sh.traffic)
			}
		}
	}
	if _, err := lower(hetpnoc.Config{Architecture: hetpnoc.TorusPNoC, BandwidthSet: 1, Traffic: hetpnoc.UniformTraffic()}); err == nil {
		t.Error("lower accepted an architecture it has no mapping for")
	}
}

// TestSmoke runs every workload end to end and traced for about a
// second each with every output check on, and requires that no
// goroutine — client, server worker or listener — outlives the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about half a minute")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			leakcheck.Check(t)
			o := options{seed: 3, duration: time.Second, smoke: true, outDir: t.TempDir(), info: new(bytes.Buffer)}
			ctx := context.Background()

			e2e, err := runWorkload(ctx, w, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", e2e.Correct, e2e.Attempted, e2e.Failed)
			}
			for name, unit := range endToEndUnits {
				m, ok := e2e.Metrics[name]
				if !ok || m.Unit != unit || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", name, m, ok, unit)
				}
			}
			if len(e2e.Metrics) != len(endToEndUnits) {
				t.Errorf("untraced run reported %d metrics, want %d", len(e2e.Metrics), len(endToEndUnits))
			}

			layers, err := runWorkload(ctx, w, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.Correct || layers.Failed != 0 {
				t.Errorf("traced pass: correct=%v attempted=%d failed=%d", layers.Correct, layers.Attempted, layers.Failed)
			}
			if len(layers.Metrics) != len(perLayerUnits) {
				t.Errorf("traced pass reported %d metrics, want %d", len(layers.Metrics), len(perLayerUnits))
			}
			for _, name := range []string{"fabric.build_us", "fabric.checkpoint_us", "batch.run_ms", "serve.http_hit_p50_us", "core.token_tick_ns", "hetpnoc.run_ms.dhet-bw1"} {
				if !(layers.Metrics[name].Value > 0) {
					t.Errorf("per-layer metric %s = %g, want a measured time", name, layers.Metrics[name].Value)
				}
			}

			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != w.name || len(tf.SpanList) == 0 || len(tf.Layers) == 0 {
				t.Errorf("trace file: workload %q, %d spans, %d layers", tf.Workload, len(tf.SpanList), len(tf.Layers))
			}
			ids := make(map[int]bool, len(tf.SpanList))
			for _, s := range tf.SpanList {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) names parent %d, which was not recorded before it", s.ID, s.Name, s.Parent)
				}
				ids[s.ID] = true
			}
		})
	}
}

// TestSimulatedStatsRepeat holds the fabric.sim.* values to their
// contract: equal seeds give exactly equal values.
func TestSimulatedStatsRepeat(t *testing.T) {
	sh := shapeSaturated
	sh.cycles, sh.warmup = 1500, 300
	stats := func() map[string]float64 {
		res, _, err := runPanel(panelConfigs(sh, 9))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		if err := simulatedStats(res, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := stats(), stats()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fabric.sim.* differ between two runs of one seed:\n%v\n%v", a, b)
	}
	if a["fabric.sim.delivered_gbps"] <= 0 || a["fabric.sim.result_digest32"] == 0 {
		t.Errorf("fabric.sim.* look empty: %v", a)
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program from
// drifting apart: same workloads, same metric names and units, and
// bounds inside the limits of the acceptance contract.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(mf.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", mf.Command, mf.Paths)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q / %q", i, mf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	good := func(better string) bool { return better == "lower" || better == "higher" }
	if len(mf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in the manifest, %d in the program", len(mf.EndToEnd), len(endToEndUnits))
	}
	var setupBound float64
	for _, m := range mf.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range mf.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit || !good(m.Better) {
			t.Errorf("end-to-end metric %+v: program unit %q", m, endToEndUnits[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound >= setupBound {
			t.Errorf("end-to-end metric %s: bound %g is not below setup_s's %g, which must be the largest", m.Name, m.Bound, setupBound)
		}
	}
	if len(mf.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics in the manifest, %d in the program", len(mf.PerLayer), len(perLayerUnits))
	}
	for _, m := range mf.PerLayer {
		if perLayerUnits[m.Name] != m.Unit || !good(m.Better) {
			t.Errorf("per-layer metric %+v: program unit %q", m, perLayerUnits[m.Name])
		}
	}
}
