// Dbatrace watches the dynamic bandwidth allocation protocol at work: the
// run starts under uniform traffic (every cluster holds an equal share of
// the wavelength budget), then the task mapping changes to skewed 3 at
// cycle 4000 — and the token-passing allocator reshapes the allocation
// over the following rotations, exactly the reconfiguration path §3.2 of
// the thesis describes.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"hetpnoc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the remap with the probe on and writes the allocation
// at every probe row where it changed, then the run's totals.
func run(w io.Writer) error {
	const every = 200 // probe every 200 cycles
	res, err := hetpnoc.Run(hetpnoc.Config{
		Architecture: hetpnoc.DHetPNoC,
		BandwidthSet: 1,
		Traffic:      hetpnoc.UniformTraffic(),
		Cycles:       8000,
		WarmupCycles: 1000,
		Seed:         1,
		Remaps:       []hetpnoc.TrafficRemap{{AtCycle: 4000, Traffic: hetpnoc.SkewedTraffic(3)}},
		ProbeEvery:   every,
	})
	if err != nil {
		return err
	}

	var b bytes.Buffer
	fmt.Fprintln(&b, "cycle | token rotations | wavelengths per cluster write channel")
	fmt.Fprintln(&b, "------+-----------------+--------------------------------------")
	var last string
	p := res.Probe
	for i, row := range p.Rows {
		line := fmt.Sprintf("%v", p.AllocatedWavelengths[i*p.Clusters:(i+1)*p.Clusters])
		if line == last {
			continue // only print when the allocation changes
		}
		last = line
		fmt.Fprintf(&b, "%5d | %15d | %s\n", row.Cycle, row.TokenRotations, line)
	}

	fmt.Fprintf(&b, "\nFinal allocation: %v\n", res.AllocatedWavelengths)
	fmt.Fprintf(&b, "Delivered %.1f Gb/s across the remap; %d token rotations total.\n",
		res.DeliveredGbps, res.TokenRotations)
	fmt.Fprintln(&b, "After the remap, the high-demand clusters (which want 8 wavelengths each)")
	fmt.Fprintln(&b, "split the contended pool fairly over successive token rotations, while")
	fmt.Fprintln(&b, "low-demand clusters fall back toward their reserved minimum of 1.")
	_, err = w.Write(b.Bytes())
	return err
}
