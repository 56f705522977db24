package photonic

import "hetpnoc/internal/units"

// EnergyParams holds the per-bit energy figures of Tables 3-4 and 3-5 of
// the thesis plus the derived constants the simulator needs. All values
// are in picojoules per bit unless noted.
type EnergyParams struct {
	// ModulationPJPerBit is the electro-optic modulation/demodulation
	// energy (40 fJ/bit, [28]). Charged once at the modulator and once
	// at each powered demodulator.
	ModulationPJPerBit units.Picojoule

	// TuningPJPerBit is the thermal MRR tuning energy (derived from
	// 2.4 mW/nm, [28]; 0.24 pJ/bit in Table 3-5).
	TuningPJPerBit units.Picojoule

	// LaunchPJPerBit is the laser launch energy (derived from
	// 1.5 mW/wavelength, [30]; 0.15 pJ/bit in Table 3-5).
	LaunchPJPerBit units.Picojoule

	// BufferPJPerBit is the energy of one buffer access (write or read)
	// per bit (0.078125 pJ/bit in Table 3-5, from the 65 nm synthesis).
	BufferPJPerBit units.Picojoule

	// RouterPJPerBit is the energy of one router traversal per bit
	// (0.625 pJ/bit in Table 3-5).
	RouterPJPerBit units.Picojoule

	// WireLinkPJPerBit is the intra-cluster electrical link energy per
	// bit per hop. The thesis folds link energy into the Cadence-derived
	// electrical figures; we use a conservative fraction of the router
	// energy for the short (<5 mm) all-to-all cluster wires.
	WireLinkPJPerBit units.Picojoule

	// BufferResidencyPJPerBitCycle is the retention (leakage + clocking)
	// energy of holding one bit in an SRAM buffer for one cycle. This is
	// the congestion-sensitive term: the thesis attributes d-HetPNoC's
	// lower energy-per-message under skew to flits "occupy[ing] the
	// buffers in routers for a shorter duration" (§3.4.1.2, Fig. 3-10
	// discussion).
	BufferResidencyPJPerBitCycle units.Picojoule

	// IdleDetectorPJPerWavelengthCycle is the energy of keeping one
	// demodulator row powered for one cycle while a packet is being
	// received. Firefly powers every wavelength of the channel for every
	// transmission; d-HetPNoC gates only the wavelengths named in the
	// reservation flit (§3.3.1).
	IdleDetectorPJPerWavelengthCycle units.Picojoule
}

// DefaultEnergyParams returns the thesis's Table 3-4/3-5 figures.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		ModulationPJPerBit:               0.04,
		TuningPJPerBit:                   0.24,
		LaunchPJPerBit:                   0.15,
		BufferPJPerBit:                   0.078125,
		RouterPJPerBit:                   0.625,
		WireLinkPJPerBit:                 0.1,
		BufferResidencyPJPerBitCycle:     0.0015625,
		IdleDetectorPJPerWavelengthCycle: 0.03,
	}
}

// EnergyComponent names one term of the packet-energy decomposition,
// Eq. (3)-(4): E_packet = E_electrical + E_photonic, with E_photonic =
// E_launch + E_modulation + E_tuning + E_buffer.
type EnergyComponent int

// Energy components tracked by the ledger.
const (
	EnergyLaunch EnergyComponent = iota + 1
	EnergyModulation
	EnergyTuning
	EnergyBuffer
	EnergyBufferResidency
	EnergyRouter
	EnergyWireLink
	EnergyIdleDetector
	numEnergyComponents
)

// String returns the component name.
func (c EnergyComponent) String() string {
	switch c {
	case EnergyLaunch:
		return "launch"
	case EnergyModulation:
		return "modulation"
	case EnergyTuning:
		return "tuning"
	case EnergyBuffer:
		return "buffer"
	case EnergyBufferResidency:
		return "buffer-residency"
	case EnergyRouter:
		return "router"
	case EnergyWireLink:
		return "wire-link"
	case EnergyIdleDetector:
		return "idle-detector"
	default:
		return "unknown"
	}
}

// Components lists every tracked component in declaration order.
func Components() []EnergyComponent {
	comps := make([]EnergyComponent, 0, int(numEnergyComponents)-1)
	for c := EnergyLaunch; c < numEnergyComponents; c++ {
		comps = append(comps, c)
	}
	return comps
}

// Ledger accumulates dissipated energy by component. It distinguishes a
// warm-up phase (not counted toward reported totals) from the measurement
// window, mirroring the thesis's 1,000 reset cycles.
type Ledger struct {
	params EnergyParams
	state
}

// state is the ledger's checkpointed part: the phase and the totals. It
// is a plain value: copying it copies everything.
type state struct {
	measuring bool
	totals    [numEnergyComponents]units.Picojoule
}

// NewLedger returns a ledger using params; it starts in the warm-up
// (non-measuring) phase.
func NewLedger(params EnergyParams) *Ledger {
	return &Ledger{params: params}
}

// StartMeasurement begins counting energy toward the reported totals.
func (l *Ledger) StartMeasurement() { l.measuring = true }

// Add charges pj picojoules to component c.
func (l *Ledger) Add(c EnergyComponent, pj units.Picojoule) {
	if !l.measuring {
		return
	}
	l.totals[c] += pj
}

// LedgerSnapshot is a checkpoint of the ledger: a copy of its state.
type LedgerSnapshot = state

// Snapshot copies the ledger's state into dst.
func (l *Ledger) Snapshot(dst *LedgerSnapshot) { *dst = l.state }

// Restore rewinds the ledger to a snapshot.
func (l *Ledger) Restore(s *LedgerSnapshot) { l.state = *s }

// AddPhotonicTransmit charges the transmit-side photonic energy for bits
// modulated onto the channel: laser launch, modulation and MRR tuning.
func (l *Ledger) AddPhotonicTransmit(bits float64) {
	l.Add(EnergyLaunch, l.params.LaunchPJPerBit.Times(bits))
	l.Add(EnergyModulation, l.params.ModulationPJPerBit.Times(bits))
	l.Add(EnergyTuning, l.params.TuningPJPerBit.Times(bits))
}

// AddDemodulation charges receive-side demodulation for bits detected.
func (l *Ledger) AddDemodulation(bits float64) {
	l.Add(EnergyModulation, l.params.ModulationPJPerBit.Times(bits))
}

// AddControlTransmit charges control-plane bits (reservation flits, the
// DBA token) modulated onto an always-tuned control or reservation
// waveguide: laser launch and modulation, but no per-bit thermal tuning —
// the control rings hold a fixed resonance.
func (l *Ledger) AddControlTransmit(bits float64) {
	l.Add(EnergyLaunch, l.params.LaunchPJPerBit.Times(bits))
	l.Add(EnergyModulation, l.params.ModulationPJPerBit.Times(bits))
}

// AddBufferAccess charges one buffer write or read of bits.
func (l *Ledger) AddBufferAccess(bits float64) {
	l.Add(EnergyBuffer, l.params.BufferPJPerBit.Times(bits))
}

// AddBufferResidency charges bitCycles bit-cycles of buffer retention.
func (l *Ledger) AddBufferResidency(bitCycles float64) {
	l.Add(EnergyBufferResidency, l.params.BufferResidencyPJPerBitCycle.Times(bitCycles))
}

// AddRouterTraversal charges one router crossbar traversal of bits.
func (l *Ledger) AddRouterTraversal(bits float64) {
	l.Add(EnergyRouter, l.params.RouterPJPerBit.Times(bits))
}

// AddWireLink charges one electrical link hop of bits.
func (l *Ledger) AddWireLink(bits float64) {
	l.Add(EnergyWireLink, l.params.WireLinkPJPerBit.Times(bits))
}

// AddIdleDetector charges wavelengthCycles of powered-but-gated detector
// rows (the Firefly inefficiency).
func (l *Ledger) AddIdleDetector(wavelengthCycles float64) {
	l.Add(EnergyIdleDetector, l.params.IdleDetectorPJPerWavelengthCycle.Times(wavelengthCycles))
}

// Total returns the accumulated energy of component c in picojoules.
func (l *Ledger) Total(c EnergyComponent) units.Picojoule { return l.totals[c] }

// TotalPJ returns the total accumulated energy in picojoules.
func (l *Ledger) TotalPJ() units.Picojoule {
	var sum units.Picojoule
	for _, v := range l.totals {
		sum += v
	}
	return sum
}

// PhotonicPJ returns the photonic share, Eq. (4): launch + modulation +
// tuning + photonic buffer terms.
func (l *Ledger) PhotonicPJ() units.Picojoule {
	return l.totals[EnergyLaunch] + l.totals[EnergyModulation] +
		l.totals[EnergyTuning] + l.totals[EnergyIdleDetector]
}

// ElectricalPJ returns the electrical share: routers, links, buffers.
func (l *Ledger) ElectricalPJ() units.Picojoule {
	return l.totals[EnergyRouter] + l.totals[EnergyWireLink] +
		l.totals[EnergyBuffer] + l.totals[EnergyBufferResidency]
}

// Breakdown returns a copy of the per-component totals.
func (l *Ledger) Breakdown() map[EnergyComponent]units.Picojoule {
	out := make(map[EnergyComponent]units.Picojoule, int(numEnergyComponents)-1)
	for c := EnergyLaunch; c < numEnergyComponents; c++ {
		out[c] = l.totals[c]
	}
	return out
}
