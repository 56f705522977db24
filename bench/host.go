package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// maxBenchProcs caps GOMAXPROCS: the reference sandbox has two cores,
// and pinning the count keeps batch.Plan's worker pool and the serve
// client count the same on any larger host.
const maxBenchProcs = 2

// benchProcs is the core count every workload is sized to.
func benchProcs() int {
	n := runtime.NumCPU()
	if n > maxBenchProcs {
		n = maxBenchProcs
	}
	return n
}

// snapshot is one reading of the process-wide cost counters.
type snapshot struct {
	at      time.Time
	cpu     time.Duration // user + system, from getrusage
	mallocs uint64
	bytes   uint64
}

func takeSnapshot() (snapshot, error) {
	cpu, err := processCPU()
	if err != nil {
		return snapshot{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}, nil
}

// processCPU is the user+system CPU time the process has consumed.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// cpuModel reads the processor name for the suite header. Only the
// interactive suite calls it; a single-workload run touches nothing
// outside its checkout.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
