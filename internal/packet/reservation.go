package packet

import (
	"math/bits"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/units"
)

// bitsFor returns the minimum field width that can represent values in
// [0, n). bitsFor(1) is 0: a field with a single possible value needs no
// bits on the wire.
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// DestinationIDBits returns the width of the reservation flit's
// destination-ID field — the only part every listening cluster must
// demodulate before deciding whether the rest of the flit is for it.
func DestinationIDBits(clusters int) int {
	return bitsFor(clusters)
}

// ReservationBits returns the encoded size of the reservation flit in
// bits, following the sizing argument of §3.4.1.1:
//
//   - destination ID: log2(clusters) bits
//   - packet size: log2(maxFlits+1) bits
//   - per wavelength identifier: 6 bits for the wavelength number (64 per
//     waveguide) plus log2(waveguides) bits for the waveguide number
//     (0 bits when a single waveguide holds all data wavelengths, the
//     "best case" of bandwidth set 1).
func ReservationBits(clusters, maxFlits int, bundle photonic.WaveguideBundle, nWavelengthIDs int) int {
	idBits := bitsFor(clusters)
	sizeBits := bitsFor(maxFlits + 1)
	perID := bitsFor(bundle.WavelengthsPerWaveguide) + bitsFor(bundle.Waveguides)
	return idBits + sizeBits + nWavelengthIDs*perID
}

// ReservationCycles returns how many clock cycles the reservation flit
// occupies on the reservation waveguide. The reservation waveguide uses
// maximum DWDM (64 wavelengths at 12.5 Gb/s = 800 Gb/s, i.e. 320 bits per
// 400 ps cycle at 2.5 GHz), so per §3.4.1.1 bandwidth set 1 needs a single
// cycle (<= 8 identifiers, 48 bits + header fields) while bandwidth set 3
// needs two cycles (64 identifiers x 9 bits = 576 bits). perWavelength
// is what one wavelength carries per cycle.
func ReservationCycles(clusters, maxFlits int, bundle photonic.WaveguideBundle, nWavelengthIDs int, perWavelength units.BitCredit) int {
	total := ReservationBits(clusters, maxFlits, bundle, nWavelengthIDs)
	return units.CyclesFor(total, perWavelength*photonic.MaxWavelengthsPerWaveguide)
}
