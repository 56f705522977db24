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

// Energy components tracked by the ledger, each with the unit it counts.
const (
	EnergyLaunch          EnergyComponent = iota + 1 // bits launched by the laser
	EnergyModulation                                 // bits modulated, and bits demodulated
	EnergyTuning                                     // data bits through thermally tuned rings
	EnergyBuffer                                     // bits written to or read from a buffer
	EnergyBufferResidency                            // bit-cycles held in buffers
	EnergyRouter                                     // bits through a router crossbar
	EnergyWireLink                                   // bits over an electrical link hop
	EnergyIdleDetector                               // wavelength-cycles of powered detector rows
	numEnergyComponents
)

// String returns the component name.
func (c EnergyComponent) String() string {
	if c < EnergyLaunch || c >= numEnergyComponents {
		return "unknown"
	}
	return [...]string{EnergyLaunch: "launch", EnergyModulation: "modulation", EnergyTuning: "tuning",
		EnergyBuffer: "buffer", EnergyBufferResidency: "buffer-residency", EnergyRouter: "router",
		EnergyWireLink: "wire-link", EnergyIdleDetector: "idle-detector"}[c]
}

// Components lists every tracked component in declaration order.
func Components() []EnergyComponent {
	comps := make([]EnergyComponent, 0, int(numEnergyComponents)-1)
	for c := EnergyLaunch; c < numEnergyComponents; c++ {
		comps = append(comps, c)
	}
	return comps
}

// Counts holds one exact integer per component, indexed by
// EnergyComponent, in the component's unit. EnergyParams.Price turns
// them into picojoules.
type Counts [numEnergyComponents]int64

// Energy is a Counts priced at one EnergyParams.
type Energy struct {
	TotalPJ units.Picojoule
	// PhotonicPJ is the photonic share, Eq. (4): launch + modulation +
	// tuning + the idle-detector rows.
	PhotonicPJ units.Picojoule
	// ElectricalPJ is the electrical share: routers, links, buffers.
	ElectricalPJ units.Picojoule
	// ByComponent is each component's energy, indexed like Counts.
	ByComponent [numEnergyComponents]units.Picojoule
}

// Price returns the energy of n at these per-unit figures. Each component
// is one product of its exact count and its figure, so a run can be
// re-priced under other constants without re-simulating it.
func (p EnergyParams) Price(n Counts) Energy {
	perUnit := [numEnergyComponents]units.Picojoule{
		EnergyLaunch:          p.LaunchPJPerBit,
		EnergyModulation:      p.ModulationPJPerBit,
		EnergyTuning:          p.TuningPJPerBit,
		EnergyBuffer:          p.BufferPJPerBit,
		EnergyBufferResidency: p.BufferResidencyPJPerBitCycle,
		EnergyRouter:          p.RouterPJPerBit,
		EnergyWireLink:        p.WireLinkPJPerBit,
		EnergyIdleDetector:    p.IdleDetectorPJPerWavelengthCycle,
	}
	var e Energy
	b := &e.ByComponent
	for c, per := range perUnit {
		b[c] = per.Times(float64(n[c])) // Times rounds: no product fuses into a sum
		e.TotalPJ += b[c]
	}
	e.PhotonicPJ = b[EnergyLaunch] + b[EnergyModulation] + b[EnergyTuning] + b[EnergyIdleDetector]
	e.ElectricalPJ = b[EnergyRouter] + b[EnergyWireLink] + b[EnergyBuffer] + b[EnergyBufferResidency]
	return e
}

// PerMessage returns the total energy divided by delivered packets, or 0
// when none was delivered.
func (e Energy) PerMessage(delivered int64) units.Picojoule {
	if delivered <= 0 {
		return 0
	}
	return e.TotalPJ.Div(float64(delivered))
}

// Ledger counts the quantities that dissipate energy, by component. It
// distinguishes a warm-up phase (not counted toward reported totals) from
// the measurement window, mirroring the thesis's 1,000 reset cycles. No
// charge touches a float: the price is applied when the ledger is read.
type Ledger struct {
	params EnergyParams
	state
}

// state is the ledger's checkpointed part: the phase and the counts. It
// is a plain value: copying it copies everything.
type state struct {
	measuring bool
	counts    Counts
}

// NewLedger returns a ledger whose Energy is priced at params; it starts
// in the warm-up (non-measuring) phase.
func NewLedger(params EnergyParams) *Ledger {
	return &Ledger{params: params}
}

// StartMeasurement begins counting toward the reported totals.
func (l *Ledger) StartMeasurement() { l.measuring = true }

// Add charges n units of component c (see the unit beside each
// component).
func (l *Ledger) Add(c EnergyComponent, n int64) {
	if l.measuring {
		l.counts[c] += n
	}
}

// LedgerSnapshot is a checkpoint of the ledger: a copy of its state.
type LedgerSnapshot = state

// Snapshot copies the ledger's state into dst.
func (l *Ledger) Snapshot(dst *LedgerSnapshot) { *dst = l.state }

// Restore rewinds the ledger to a snapshot.
func (l *Ledger) Restore(s *LedgerSnapshot) { l.state = *s }

// AddPhotonicTransmit charges the transmit-side photonic energy for bits
// modulated onto the channel: laser launch, modulation and MRR tuning.
func (l *Ledger) AddPhotonicTransmit(bits int64) {
	l.Add(EnergyLaunch, bits)
	l.Add(EnergyModulation, bits)
	l.Add(EnergyTuning, bits)
}

// AddControlTransmit charges control-plane bits (reservation flits, the
// DBA token) modulated onto an always-tuned control or reservation
// waveguide: laser launch and modulation, but no per-bit thermal tuning —
// the control rings hold a fixed resonance.
func (l *Ledger) AddControlTransmit(bits int64) {
	l.Add(EnergyLaunch, bits)
	l.Add(EnergyModulation, bits)
}

// Counts returns the counts charged so far.
func (l *Ledger) Counts() Counts { return l.counts }

// Energy returns the counts priced at the ledger's parameters.
func (l *Ledger) Energy() Energy { return l.params.Price(l.counts) }
