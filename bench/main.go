// Command bench is the hetpnoc benchmark: a self-contained load
// generator that times the simulator, the batch engine and the serving
// path from outside, through their exported functions, on four
// workloads. See README.md in this directory for the workloads, the
// metrics and how to read the output; BENCHMARK.json at the repository
// root is the machine-readable contract.
//
// Run it from the repository root:
//
//	bash bench/run.sh -seed 1              # whole suite: every workload, untraced then traced
//	bash bench/run.sh -selfcheck           # suite twice; fail if an end-to-end metric moves past its bound
//	bash bench/run.sh --workload serve-mixed --seed 7 --seconds 20 --trace 0
//
// A single-workload run prints, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Paths are relative to the repository root, where run.sh puts the
// process.
const (
	manifestPath = "BENCHMARK.json"
	traceDir     = "bench/out"
)

// Fallback run length when no BENCHMARK.json says otherwise; -smoke
// runs are a second per workload.
const (
	defaultSeconds = 20.0
	smokeSeconds   = 1.0
)

//hetpnoc:ctxroot process entry point; every context of the benchmark derives from this one
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// manifest is the part of BENCHMARK.json the program reads back.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (manifest, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return m, nil
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print its result as the last line (default: the whole suite)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same configs and request bytes")
	seconds := fs.Float64("seconds", 0, "length of the timed section (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced pass, per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run the suite's untraced runs twice and fail if an end-to-end metric differs by more than its bound")
	smoke := fs.Bool("smoke", false, "one-second runs with a single set-up, every output check on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	mf, mfErr := readManifest()
	if *seconds <= 0 {
		switch {
		case *smoke:
			*seconds = smokeSeconds
		case mfErr == nil && mf.RunSeconds > 0:
			*seconds = float64(mf.RunSeconds)
		default:
			*seconds = defaultSeconds
		}
	}
	o := options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		smoke:    *smoke,
		outDir:   traceDir,
		info:     new(bytes.Buffer),
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(ctx, w, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stdout, "%s%s\n", o.info, line)
		return 0
	}

	s := suite{o: o, seconds: *seconds}
	var err error
	if *selfcheck {
		if mfErr != nil {
			fmt.Fprintf(os.Stderr, "bench: -selfcheck needs the bounds of %s: %v\n", manifestPath, mfErr)
			return 1
		}
		err = s.selfcheck(ctx, mf)
	} else {
		err = s.all(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process, sized to benchProcs()
// cores.
func runWorkload(ctx context.Context, w workload, o options, traced bool) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs()))
	if traced {
		return runTraced(ctx, w, o)
	}
	return runEndToEnd(ctx, w, o)
}

// suite runs workloads in child processes — one process per run, so
// heap size, GC pacing and resident set never carry over from one
// workload to the next — and prints what they report.
type suite struct {
	o       options
	seconds float64
}

// errFailedOps reports that the suite ran but some operation or output
// check failed.
var errFailedOps = errors.New("some operations or output checks failed")

// child re-executes this binary for one run and parses its last line.
func (s suite) child(ctx context.Context, w workload, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatUint(s.o.seed, 10),
		"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"-trace", traceArg,
	}
	if s.o.smoke {
		args = append(args, "-smoke")
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(os.Stdout, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %v): last line is not a result: %w", w.name, traced, err)
	}
	return res, nil
}

func (s suite) header(mode string) {
	fmt.Fprintf(os.Stdout, "hetpnoc benchmark (%s): seed=%d seconds=%g smoke=%v %s nproc=%d gomaxprocs=%d cpu=%q\n",
		mode, s.o.seed, s.seconds, s.o.smoke, runtime.Version(), runtime.NumCPU(), benchProcs(), cpuModel())
}

// paperReference is printed beside the simulated figures the paper
// states, on the workload that runs the paper's operating point.
var paperReference = map[string]string{
	"fabric.sim.dhet_bw_gain_pct":   "paper: +7 to +8 %",
	"fabric.sim.dhet_epm_delta_pct": "paper: about -5 %",
}

func (s suite) printMetrics(w workload, title string, res result) {
	fmt.Fprintf(os.Stdout, "%s: %s (correct=%v attempted=%d failed=%d)\n", w.name, title, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		note := ""
		if ref, ok := paperReference[name]; ok && w.name == "run-saturated" {
			note = "   (" + ref + ")"
		}
		fmt.Fprintf(os.Stdout, "  %-38s %16.6g %s%s\n", name, m.Value, m.Unit, note)
	}
}

// all runs every workload untraced, then traced.
func (s suite) all(ctx context.Context) error {
	s.header("suite")
	failed := false
	for _, w := range workloads {
		fmt.Fprintf(os.Stdout, "\n== %s — %s\n", w.name, w.why)
		e2e, err := s.child(ctx, w, false)
		if err != nil {
			return err
		}
		s.printMetrics(w, "end-to-end metrics, untraced run", e2e)
		fmt.Fprintf(os.Stdout, "  %-38s %16.6g %s\n", "fail_frac", float64(e2e.Failed)/float64(e2e.Attempted), "ratio")
		layers, err := s.child(ctx, w, true)
		if err != nil {
			return err
		}
		s.printMetrics(w, "per-layer metrics, traced pass", layers)
		failed = failed || !e2e.Correct || !layers.Correct
	}
	if failed {
		return errFailedOps
	}
	return nil
}

// selfcheck runs every workload's untraced run twice on this binary and
// holds each end-to-end metric to its BENCHMARK.json bound.
func (s suite) selfcheck(ctx context.Context, mf manifest) error {
	s.header("selfcheck")
	var moved []string
	failed := false
	for _, w := range workloads {
		first, err := s.child(ctx, w, false)
		if err != nil {
			return err
		}
		second, err := s.child(ctx, w, false)
		if err != nil {
			return err
		}
		failed = failed || !first.Correct || !second.Correct
		fmt.Fprintf(os.Stdout, "\n== %s\n  %-20s %14s %14s %9s %7s\n", w.name, "metric", "first", "second", "change", "bound")
		for _, m := range mf.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			change := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if change > m.Bound {
				verdict = "  MOVED"
				moved = append(moved, w.name+"/"+m.Name)
			}
			fmt.Fprintf(os.Stdout, "  %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", m.Name, a, b, 100*change, 100*m.Bound, verdict)
		}
	}
	if failed {
		return errFailedOps
	}
	if len(moved) > 0 {
		return fmt.Errorf("the same binary disagrees with itself beyond the bound on: %s", strings.Join(moved, ", "))
	}
	return nil
}
