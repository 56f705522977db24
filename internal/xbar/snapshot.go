package xbar

// RXSnapshot is a checkpoint of a receive engine: a copy of its state.
type RXSnapshot = rxState

// Snapshot copies the receiver's state into dst.
func (rx *RX) Snapshot(dst *RXSnapshot) { *dst = rx.rxState }

// Restore rewinds the receiver to a snapshot.
func (rx *RX) Restore(s *RXSnapshot) { rx.rxState = *s }

// TXSnapshot is a checkpoint of a transmit engine: a copy of its state.
type TXSnapshot = txState

// Snapshot copies the engine's state into dst.
func (tx *TX) Snapshot(dst *TXSnapshot) { *dst = tx.txState }

// Restore rewinds the engine to a snapshot, leaving the snapshot intact
// for repeated restores.
func (tx *TX) Restore(s *TXSnapshot) { tx.txState = *s }
