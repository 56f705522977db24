package xbar

// RXSnapshot is a checkpoint of a receive engine. The engine owns no
// pointers — only its build-time wiring and two counters — so a struct
// copy is the whole checkpoint.
type RXSnapshot struct {
	state RX
}

// Snapshot copies the receiver's state.
func (rx *RX) Snapshot() RXSnapshot { return RXSnapshot{state: *rx} }

// Restore rewinds the receiver to a snapshot.
func (rx *RX) Restore(s RXSnapshot) { *rx = s.state }

// TXSnapshot is a checkpoint of a transmit engine: the streaming transfer
// and the in-flight reservation with their receive windows, and the
// counters. Everything the engine points at is shared, never owned: the
// build-time wiring, wavelength lists (allocation ID caches are replaced,
// never mutated in place) and packets (slots of the fabric's pool, whose
// snapshot restores their contents). A struct copy is therefore the
// whole checkpoint.
type TXSnapshot struct {
	state TX
}

// Snapshot copies the engine's state.
func (tx *TX) Snapshot() TXSnapshot { return TXSnapshot{state: *tx} }

// Restore rewinds the engine to a snapshot, leaving the snapshot intact
// for repeated restores.
func (tx *TX) Restore(s TXSnapshot) { *tx = s.state }
