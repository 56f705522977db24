// Package photonic models the photonic substrate of the NoC: DWDM
// wavelengths and waveguides, micro-ring resonator (MRR) modulator and
// demodulator banks, photodetectors, the laser source, and the energy
// accounting of Tables 3-4 and 3-5 of the thesis.
//
// The behavioural abstraction matches the thesis's simulator: a
// wavelength carries a fixed line rate (12.5 Gb/s, one wavelength per
// single-carrier electro-optic modulator [28]); a waveguide multiplexes up
// to 64 wavelengths (as in Firefly [20]); devices contribute per-bit
// energies and per-device area, not optical physics.
package photonic

import (
	"fmt"

	"hetpnoc/internal/units"
)

// Constants of the photonic technology assumed throughout the thesis.
const (
	// WavelengthGbps is the line rate of one DWDM wavelength channel
	// (12.5 Gb/s electro-optic modulators, [28]).
	WavelengthGbps = 12.5

	// MaxWavelengthsPerWaveguide is the densest DWDM considered (64, as
	// in Firefly [20]).
	MaxWavelengthsPerWaveguide = 64

	// MRRRadiusMicron is the micro-ring resonator radius used by the
	// area model (5 um, [28]).
	MRRRadiusMicron = 5.0
)

// WavelengthID identifies one DWDM wavelength within the data-waveguide
// bundle: the waveguide number and the wavelength index inside it. The
// reservation flit carries these identifiers to the destination so it can
// gate the right demodulators (§3.3.1).
type WavelengthID struct {
	Waveguide  int
	Wavelength int
}

// String returns a compact "w<waveguide>:l<wavelength>" form.
func (w WavelengthID) String() string {
	return fmt.Sprintf("w%d:l%d", w.Waveguide, w.Wavelength)
}

// WaveguideBundle describes the data-waveguide bundle shared by all
// photonic routers: how many waveguides exist and how many DWDM
// wavelengths each carries.
type WaveguideBundle struct {
	Waveguides              int
	WavelengthsPerWaveguide int
}

// NewBundle sizes a bundle for total data wavelengths, packing
// MaxWavelengthsPerWaveguide wavelengths per waveguide (Eq. "N_WD =
// ceil(N_lambda / lambda_W)" in §3.4.3).
func NewBundle(totalWavelengths int) (WaveguideBundle, error) {
	if totalWavelengths <= 0 {
		return WaveguideBundle{}, fmt.Errorf("photonic: total wavelengths must be positive, got %d", totalWavelengths)
	}
	perWG := MaxWavelengthsPerWaveguide
	waveguides := (totalWavelengths + perWG - 1) / perWG
	return WaveguideBundle{Waveguides: waveguides, WavelengthsPerWaveguide: perWG}, nil
}

// Capacity returns the number of wavelength slots in the bundle. This can
// exceed the requested total when the total is not a multiple of the DWDM
// density; the allocator only hands out the requested number.
func (b WaveguideBundle) Capacity() int {
	return b.Waveguides * b.WavelengthsPerWaveguide
}

// IDForSlot maps a flat slot index in [0, Capacity()) to a WavelengthID.
func (b WaveguideBundle) IDForSlot(slot int) WavelengthID {
	return WavelengthID{
		Waveguide:  slot / b.WavelengthsPerWaveguide,
		Wavelength: slot % b.WavelengthsPerWaveguide,
	}
}

// SlotForID is the inverse of IDForSlot.
func (b WaveguideBundle) SlotForID(id WavelengthID) int {
	return id.Waveguide*b.WavelengthsPerWaveguide + id.Wavelength
}

// WavelengthCredit returns the payload one wavelength carries per clock
// cycle at the given NoC clock frequency, as credit. At the thesis's
// 2.5 GHz clock a 12.5 Gb/s wavelength carries exactly 5 bits per cycle.
func WavelengthCredit(clockHz float64) (units.BitCredit, error) {
	return units.CreditOf(WavelengthGbps * 1e9 / clockHz)
}
