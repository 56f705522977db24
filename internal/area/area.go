// Package area implements the analytic electro-optic device area model of
// §3.4.3 of the thesis (Equations 1 and 5-24): the modulator and detector
// counts of the dynamic (d-HetPNoC) and Firefly architectures and the
// resulting silicon area, assuming 5 um-radius micro-ring resonators [28].
//
// The model reproduces the thesis's headline numbers: with 64 data
// wavelengths and 16 photonic routers the total modulator/demodulator area
// is 1.608 mm^2 for d-HetPNoC versus 1.367 mm^2 for Firefly.
package area

import (
	"fmt"
	"math"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/units"
)

// The chip the model prices: the 64-core, 16-cluster design point of
// Table 3-3, with 5 um rings (§3.4.3).
const (
	// nPR is N_PR, the photonic routers, one per cluster.
	nPR = 16
	// lambdaW is the DWDM density, wavelengths per waveguide.
	lambdaW = photonic.MaxWavelengthsPerWaveguide
	// mrrAreaSquareMicron is the footprint of one MRR device, pi*r^2.
	mrrAreaSquareMicron = math.Pi * photonic.MRRRadiusMicron * photonic.MRRRadiusMicron
)

// Config is the area model at one aggregate bandwidth.
type Config struct {
	// DataWavelengths is N_lambda, the total wavelengths provisioned for
	// data communication (64, 256 or 512 in the evaluation).
	DataWavelengths int
}

// Validate reports an error for a non-positive wavelength count.
func (c Config) Validate() error {
	if c.DataWavelengths <= 0 {
		return fmt.Errorf("area: data wavelengths must be positive, got %d", c.DataWavelengths)
	}
	return nil
}

// DataWaveguides returns N_WD = ceil(N_lambda / lambda_W), the number of
// data waveguides of the dynamic architecture.
func (c Config) DataWaveguides() int {
	return (c.DataWavelengths + lambdaW - 1) / lambdaW
}

// FireflyWavelengthsPerChannel returns N_Flambda = ceil(N_lambda / N_WF):
// in Firefly each photonic router writes a dedicated waveguide, so the
// per-channel wavelength count divides the same aggregate bandwidth
// uniformly (Eq. preceding Eq. 10).
func (c Config) FireflyWavelengthsPerChannel() int {
	return (c.DataWavelengths + nPR - 1) / nPR
}

// DynamicModulators returns T_MD (Eq. 9): data modulators (every router
// can modulate any wavelength of any data waveguide, Eq. 6) plus the
// reservation (Eq. 7) and token control (Eq. 8) waveguide modulators.
func (c Config) DynamicModulators() int {
	data := nPR * lambdaW * c.DataWaveguides() // Eq. 6
	reservation := nPR * lambdaW               // Eq. 7
	control := nPR * lambdaW                   // Eq. 8
	return data + reservation + control
}

// FireflyModulators returns T_MF (Eq. 13): each router writes N_Flambda
// data channels on its dedicated waveguide (Eq. 11) plus a full-DWDM
// reservation waveguide (Eq. 12).
func (c Config) FireflyModulators() int {
	data := nPR * c.FireflyWavelengthsPerChannel() // Eq. 11
	reservation := nPR * lambdaW                   // Eq. 12
	return data + reservation
}

// DynamicDetectors returns T_DMD (Eq. 18): data detectors on every
// wavelength of every waveguide (Eq. 15), reservation detectors on every
// other router's reservation waveguide (Eq. 16), and the 64-wavelength
// token control waveguide (Eq. 17).
func (c Config) DynamicDetectors() int {
	data := nPR * lambdaW * c.DataWaveguides()           // Eq. 15
	reservation := nPR * lambdaW * (nPR - 1)             // Eq. 16
	control := nPR * photonic.MaxWavelengthsPerWaveguide // Eq. 17
	return data + reservation + control
}

// FireflyDetectors returns T_DMF (Eq. 22): N_Flambda data detectors per
// foreign write channel (Eq. 20) plus reservation detectors (Eq. 21).
func (c Config) FireflyDetectors() int {
	data := nPR * c.FireflyWavelengthsPerChannel() * (nPR - 1) // Eq. 20
	reservation := nPR * lambdaW * (nPR - 1)                   // Eq. 21
	return data + reservation
}

// RestrictedDynamicModulators returns the modulator count of the
// waveguide-restricted d-HetPNoC variant the thesis proposes in its
// conclusion (Chapter 4): each photonic router only drives the
// wavelengths of `waveguides` waveguides (e.g. Waveguide(x) and
// Waveguide(x+1)), so the per-router data modulators shrink from
// lambda_W * N_WD to lambda_W * waveguides.
func (c Config) RestrictedDynamicModulators(waveguides int) int {
	if waveguides <= 0 || waveguides > c.DataWaveguides() {
		waveguides = c.DataWaveguides()
	}
	data := nPR * lambdaW * waveguides
	reservation := nPR * lambdaW
	control := nPR * lambdaW
	return data + reservation + control
}

// RestrictedDynamicDetectors returns the detector count of the restricted
// variant. Read-side restriction is weaker: a destination must still be
// able to receive on any wavelength a source might use, so only the
// per-router write flexibility shrinks; detectors keep full coverage of
// the data waveguides (conservative — the thesis sketch does not resolve
// the read side).
func (c Config) RestrictedDynamicDetectors(int) int {
	return c.DynamicDetectors()
}

// RestrictedDynamicAreaMM2 returns the electro-optic area of the
// restricted variant.
func (c Config) RestrictedDynamicAreaMM2(waveguides int) units.SquareMillimeter {
	devices := float64(c.RestrictedDynamicModulators(waveguides) + c.RestrictedDynamicDetectors(waveguides))
	return units.SquareMillimeter(devices * mrrAreaSquareMicron / 1e6)
}

// DynamicAreaMM2 returns A_D (Eq. 23), the total d-HetPNoC electro-optic
// device area in mm^2.
func (c Config) DynamicAreaMM2() units.SquareMillimeter {
	devices := float64(c.DynamicModulators() + c.DynamicDetectors())
	return units.SquareMillimeter(devices * mrrAreaSquareMicron / 1e6)
}

// FireflyAreaMM2 returns A_F (Eq. 24), the total Firefly electro-optic
// device area in mm^2.
func (c Config) FireflyAreaMM2() units.SquareMillimeter {
	devices := float64(c.FireflyModulators() + c.FireflyDetectors())
	return units.SquareMillimeter(devices * mrrAreaSquareMicron / 1e6)
}

// Point is one row of the Figure 3-6 comparison.
type Point struct {
	DataWavelengths int
	DynamicMM2      units.SquareMillimeter
	FireflyMM2      units.SquareMillimeter
	// OverheadPct is the d-HetPNoC area overhead over Firefly, percent.
	OverheadPct float64
}

// Sweep evaluates the model at each wavelength count, reproducing the
// Figure 3-6 series.
func Sweep(wavelengths []int) []Point {
	points := make([]Point, 0, len(wavelengths))
	for _, n := range wavelengths {
		cfg := Config{DataWavelengths: n}
		d := cfg.DynamicAreaMM2()
		f := cfg.FireflyAreaMM2()
		points = append(points, Point{
			DataWavelengths: n,
			DynamicMM2:      d,
			FireflyMM2:      f,
			OverheadPct:     float64((d - f) / f * 100),
		})
	}
	return points
}
