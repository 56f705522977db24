// Package packet defines the units of data movement in the NoC: packets,
// wormhole flits, and the reservation flits of the reservation-assisted
// SWMR photonic crossbar (§2.2.1, §3.3.1 of the thesis).
//
// A packet is divided into fixed-size flits (Table 3-3: 64x32 b, 16x128 b
// or 8x256 b depending on the bandwidth set). The header flit carries the
// routing information and reserves a path; body flits follow it; the tail
// flit releases the path.
package packet

import (
	"fmt"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// ID uniquely identifies a packet within one simulation run. Retransmitted
// copies of a dropped packet share the logical MessageID but get fresh
// packet IDs.
type ID int64

// MessageID identifies the logical message a packet carries, stable across
// retransmissions.
type MessageID int64

// FlitType distinguishes the wormhole flit roles.
type FlitType int

// Flit roles. A single-flit packet is a HeaderTail.
const (
	Header FlitType = iota + 1
	Body
	Tail
	HeaderTail
)

// String returns the flit role name.
func (t FlitType) String() string {
	switch t {
	case Header:
		return "header"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeaderTail:
		return "header+tail"
	default:
		return "unknown"
	}
}

// IsHeader reports whether the flit opens a packet.
func (t FlitType) IsHeader() bool { return t == Header || t == HeaderTail }

// IsTail reports whether the flit closes a packet.
func (t FlitType) IsTail() bool { return t == Tail || t == HeaderTail }

// Packet is a logical unit of transfer between two cores.
type Packet struct {
	ID      ID
	Message MessageID

	Src topology.CoreID
	Dst topology.CoreID

	SrcCluster topology.ClusterID
	DstCluster topology.ClusterID

	// Flits is the packet length in flits; FlitBits is the flit width.
	Flits    int
	FlitBits int

	// Created is the cycle the packet (this attempt) was injected at the
	// source core. Born is the cycle the logical message was first
	// generated, surviving retransmission.
	Created sim.Cycle
	Born    sim.Cycle

	// Attempt counts transmissions of the message: 1 for the first send.
	Attempt int
}

// Bits returns the packet payload size in bits.
func (p *Packet) Bits() int { return p.Flits * p.FlitBits }

// String summarises the packet for logs and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d (msg %d try %d) core %d->%d, %d x %d b",
		p.ID, p.Message, p.Attempt, p.Src, p.Dst, p.Flits, p.FlitBits)
}

// Flit is one flow-control unit of a packet.
type Flit struct {
	Packet *Packet
	Type   FlitType
	// Seq is the flit index within the packet, 0-based.
	Seq int
}

// Bits returns the flit size in bits.
func (f Flit) Bits() int { return f.Packet.FlitBits }

// String summarises the flit.
func (f Flit) String() string {
	return fmt.Sprintf("flit %d/%d (%s) of pkt %d", f.Seq, f.Packet.Flits, f.Type, f.Packet.ID)
}

// FlitsOf explodes a packet into its flit sequence.
func FlitsOf(p *Packet) []Flit {
	flits := make([]Flit, p.Flits)
	for i := range flits {
		flits[i] = Flit{Packet: p, Type: flitTypeAt(i, p.Flits), Seq: i}
	}
	return flits
}

// FlitAt returns the i-th flit of p without materializing the whole
// sequence.
func FlitAt(p *Packet, i int) Flit {
	return Flit{Packet: p, Type: flitTypeAt(i, p.Flits), Seq: i}
}

func flitTypeAt(i, n int) FlitType {
	switch {
	case n == 1:
		return HeaderTail
	case i == 0:
		return Header
	case i == n-1:
		return Tail
	default:
		return Body
	}
}

// Format describes the packet framing of one bandwidth set (Table 3-3).
type Format struct {
	Flits    int
	FlitBits int
}

// Bits returns the packet size in bits for this format.
func (f Format) Bits() int { return f.Flits * f.FlitBits }

// Validate reports an error for non-positive dimensions, or a packet
// above 2^30 bits, the most a credit count (units.BitCredit) can pace.
func (f Format) Validate() error {
	if f.Flits <= 0 || f.FlitBits <= 0 || f.FlitBits > 1<<30/f.Flits {
		return fmt.Errorf("packet: format %dx%d must have positive dimensions and at most 2^30 bits", f.Flits, f.FlitBits)
	}
	return nil
}
