// Command hetpnocsim runs one photonic-NoC simulation and prints its
// measurements.
//
// Usage:
//
//	hetpnocsim -arch d-hetpnoc -set 1 -traffic skewed3 -cycles 10000
//
// Traffic names: uniform, skewed1..skewed3, hotspot1..hotspot4, realapp.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hetpnoc"
	"hetpnoc/internal/fabric"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetpnocsim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates the configuration they select and writes
// the result to stdout: as JSON under -json, else as text that ends with
// the run's protocol events whenever it captured any.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hetpnocsim", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "load the full configuration from a JSON file (flags override)")
		archName   = fs.String("arch", "d-hetpnoc", "architecture: firefly, d-hetpnoc or torus-pnoc")
		set        = fs.Int("set", 1, "bandwidth set: 1 (64 wavelengths), 2 (256) or 3 (512)")
		trafName   = fs.String("traffic", "uniform", "traffic pattern: uniform, skewed1-3, hotspot1-4, realapp, transpose, bit-complement, bit-reverse, shuffle, neighbor")
		load       = fs.Float64("load", fabric.DefaultLoadScale, "offered-load scale")
		cycles     = fs.Int("cycles", fabric.DefaultCycles, "simulated cycles")
		warmup     = fs.Int("warmup", fabric.DefaultWarmupCycles, "warm-up (reset) cycles excluded from measurement")
		seed       = fs.Uint64("seed", fabric.DefaultSeed, "simulation seed")
		conc       = fs.Bool("concentrated", false, "use Firefly-style concentrated intra-cluster switches")
		prop       = fs.Bool("proportional", false, "use the demand-proportional DBA policy (d-hetpnoc only)")
		jsonOut    = fs.Bool("json", false, "emit the result as JSON")
		breakdown  = fs.Bool("energy-breakdown", false, "print the per-component energy breakdown")
		events     = fs.Int("events", 0, "capture and print the last N protocol events (overrides the file's EventCapacity)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg hetpnoc.Config
	if *configPath != "" {
		loaded, err := loadConfig(*configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	}

	// Explicitly-set flags override the file; defaults fill the rest.
	setFlags := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	fromFile := *configPath != ""

	if !fromFile || setFlags["set"] {
		cfg.BandwidthSet = *set
	}
	if !fromFile || setFlags["load"] {
		cfg.LoadScale = *load
	}
	if !fromFile || setFlags["cycles"] {
		cfg.Cycles = *cycles
	}
	if !fromFile || setFlags["warmup"] {
		cfg.WarmupCycles = *warmup
	}
	if !fromFile || setFlags["seed"] {
		cfg.Seed = *seed
	}
	if !fromFile || setFlags["concentrated"] {
		cfg.Concentrated = *conc
	}
	if !fromFile || setFlags["proportional"] {
		cfg.ProportionalDBA = *prop
	}
	if *events > 0 {
		cfg.EventCapacity = *events
	}
	if !fromFile || setFlags["arch"] {
		switch *archName {
		case "firefly":
			cfg.Architecture = hetpnoc.Firefly
		case "d-hetpnoc", "dhetpnoc":
			cfg.Architecture = hetpnoc.DHetPNoC
		case "torus-pnoc", "torus":
			cfg.Architecture = hetpnoc.TorusPNoC
		default:
			return fmt.Errorf("unknown architecture %q", *archName)
		}
	}
	if !fromFile || setFlags["traffic"] {
		traffic, err := trafficByName(*trafName)
		if err != nil {
			return err
		}
		cfg.Traffic = traffic
	}

	res, err := hetpnoc.Run(cfg)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "architecture      %s\n", res.Architecture)
	fmt.Fprintf(&b, "traffic           %s (load x%.2f)\n", res.Traffic, res.LoadScale)
	fmt.Fprintf(&b, "bandwidth set     %s\n", res.BandwidthSet)
	fmt.Fprintf(&b, "offered           %.1f Gb/s\n", res.OfferedGbps)
	fmt.Fprintf(&b, "delivered         %.1f Gb/s (%.2f Gb/s per core)\n", res.DeliveredGbps, res.PerCoreGbps)
	fmt.Fprintf(&b, "energy/message    %.1f pJ\n", res.EnergyPerMessagePJ)
	fmt.Fprintf(&b, "packets           delivered %d, dropped %d, rejected %d, lost %d, retransmitted %d\n",
		res.PacketsDelivered, res.PacketsDroppedRX, res.PacketsRejected, res.PacketsLost, res.Retransmissions)
	fmt.Fprintf(&b, "latency           avg %.1f cycles, p50 %d, p99 %d, max %d\n",
		res.AvgLatencyCycles, res.P50LatencyCycles, res.P99LatencyCycles, res.MaxLatencyCycles)
	fmt.Fprintf(&b, "service fairness  %.3f (Jain, over source clusters)\n", res.FairnessJain)
	fmt.Fprintf(&b, "wavelengths       %v\n", res.AllocatedWavelengths)
	if res.TokenRotations > 0 {
		fmt.Fprintf(&b, "token rotations   %d\n", res.TokenRotations)
	}
	if res.TorusPathsSetUp > 0 {
		fmt.Fprintf(&b, "torus circuits    %d set up, %d setups blocked\n",
			res.TorusPathsSetUp, res.TorusSetupsBlocked)
	}
	if *breakdown {
		fmt.Fprintln(&b, "energy breakdown:")
		names := make([]string, 0, len(res.EnergyBreakdownPJ))
		for name := range res.EnergyBreakdownPJ {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-18s %14.0f pJ\n", name, res.EnergyBreakdownPJ[name])
		}
	}
	if len(res.Events) > 0 {
		fmt.Fprintf(&b, "last %d protocol events:\n", len(res.Events))
		for _, e := range res.Events {
			fmt.Fprintln(&b, " ", e)
		}
	}
	_, err = stdout.Write(b.Bytes())
	return err
}

// loadConfig reads a hetpnoc.Config from a JSON file. Unknown fields are
// rejected so typos surface instead of silently using defaults.
func loadConfig(path string) (hetpnoc.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return hetpnoc.Config{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg hetpnoc.Config
	if err := dec.Decode(&cfg); err != nil {
		return hetpnoc.Config{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return cfg, nil
}

// trafficByName maps CLI names to workloads.
func trafficByName(name string) (hetpnoc.Traffic, error) {
	switch name {
	case "uniform":
		return hetpnoc.UniformTraffic(), nil
	case "skewed1":
		return hetpnoc.SkewedTraffic(1), nil
	case "skewed2":
		return hetpnoc.SkewedTraffic(2), nil
	case "skewed3":
		return hetpnoc.SkewedTraffic(3), nil
	case "hotspot1":
		return hetpnoc.HotspotTraffic(0.10, 2), nil
	case "hotspot2":
		return hetpnoc.HotspotTraffic(0.10, 3), nil
	case "hotspot3":
		return hetpnoc.HotspotTraffic(0.20, 2), nil
	case "hotspot4":
		return hetpnoc.HotspotTraffic(0.20, 3), nil
	case "realapp":
		return hetpnoc.RealAppTraffic(), nil
	case "transpose", "bit-complement", "bit-reverse", "shuffle", "neighbor":
		return hetpnoc.PermutationTraffic(name), nil
	default:
		return hetpnoc.Traffic{}, fmt.Errorf("unknown traffic pattern %q", name)
	}
}
