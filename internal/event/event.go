// Package event provides a bounded protocol event log for the simulator.
// When enabled, the crossbar engines, the DBA allocator and the fabric
// append events (reservations, transfers, drops, token allocation changes,
// task remaps) that tests, examples and debugging sessions can inspect
// without parsing printed output.
package event

import (
	"fmt"

	"hetpnoc/internal/sim"
)

// Kind classifies a protocol event.
type Kind int

// Event kinds.
const (
	// ReservationSent: a source broadcast a reservation flit.
	ReservationSent Kind = iota + 1
	// StreamStarted: a packet began streaming on a write channel.
	StreamStarted
	// PacketArrived: a packet fully crossed the photonic channel.
	PacketArrived
	// PacketDropped: the receiver had no free VC; the packet was
	// discarded (§1.4).
	PacketDropped
	// Retransmit: a dropped packet was scheduled for retransmission.
	Retransmit
	// AllocationChanged: a token visit changed a cluster's wavelength
	// allocation (§3.2.1).
	AllocationChanged
	// TaskRemap: the workload mapping changed (§3.2).
	TaskRemap
	// PacketDelivered: a packet's tail was consumed by its destination
	// core.
	PacketDelivered
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case ReservationSent:
		return "reservation"
	case StreamStarted:
		return "stream-start"
	case PacketArrived:
		return "packet-arrived"
	case PacketDropped:
		return "packet-dropped"
	case Retransmit:
		return "retransmit"
	case AllocationChanged:
		return "allocation-changed"
	case TaskRemap:
		return "task-remap"
	case PacketDelivered:
		return "packet-delivered"
	default:
		return "unknown"
	}
}

// Event is one protocol occurrence.
type Event struct {
	Cycle sim.Cycle
	Kind  Kind
	// Cluster is the acting cluster (source for transmit events,
	// destination for receive events), -1 when not applicable.
	Cluster int
	// Packet is the acting packet's ID, 0 when not applicable.
	Packet int64
	// Detail carries kind-specific context ("4 wavelengths", "alloc
	// 1->8").
	Detail string

	// Deferred detail: AppendInts stores the verb string and integer
	// arguments instead of formatting eagerly, so events that are evicted
	// before anyone reads the log never pay the fmt cost. format is empty
	// once Detail has been materialized.
	format string
	iargs  [4]int64
	nargs  int
}

// materialize renders a deferred detail string in place.
func (e *Event) materialize() {
	if e.format == "" {
		return
	}
	switch e.nargs {
	case 0:
		e.Detail = e.format
	case 1:
		e.Detail = fmt.Sprintf(e.format, e.iargs[0])
	case 2:
		e.Detail = fmt.Sprintf(e.format, e.iargs[0], e.iargs[1])
	case 3:
		e.Detail = fmt.Sprintf(e.format, e.iargs[0], e.iargs[1], e.iargs[2])
	default:
		e.Detail = fmt.Sprintf(e.format, e.iargs[0], e.iargs[1], e.iargs[2], e.iargs[3])
	}
	e.format = ""
}

// String formats the event for logs.
func (e Event) String() string {
	e.materialize()
	return fmt.Sprintf("[%6d] %-18s cluster=%d pkt=%d %s",
		e.Cycle, e.Kind, e.Cluster, e.Packet, e.Detail)
}

// Log is a bounded event ring. A nil *Log is valid and discards
// everything, so instrumented components need no enablement checks.
type Log struct {
	state
}

// state is the log's checkpointed part: the retained events, the ring
// cursor and the counters. The ring's capacity is the retention bound,
// so a restore refills the live ring rather than adopting the saved one.
type state struct {
	ring    []Event
	next    int
	total   int64
	dropped int64
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.ring = append(keep.ring[:0], src.ring...)
}

// NewLog returns a log retaining the most recent capacity events.
func NewLog(capacity int) (*Log, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("event: capacity must be positive, got %d", capacity)
	}
	return &Log{state{ring: make([]Event, 0, capacity)}}, nil
}

// Append records an event; the oldest event is evicted when full.
func (l *Log) Append(e Event) {
	if l == nil {
		return
	}
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		return
	}
	next := l.next
	if uint(next) >= uint(len(l.ring)) {
		return // unreachable: next always wraps below cap; the guard anchors BCE
	}
	l.ring[next] = e
	l.next = (next + 1) % cap(l.ring)
	l.dropped++
}

// AppendInts records an event whose detail formats only integers (%d
// verbs, at most four; a format without arguments is the detail itself).
// It defers the fmt work to read time: a disabled log or an event
// evicted before Events is called costs no formatting and no allocation.
func (l *Log) AppendInts(cycle sim.Cycle, kind Kind, cluster int, pkt int64, format string, args ...int64) {
	if l == nil {
		return
	}
	e := Event{
		Cycle:   cycle,
		Kind:    kind,
		Cluster: cluster,
		Packet:  pkt,
		format:  format,
		nargs:   len(args),
	}
	copy(e.iargs[:], args)
	l.Append(e)
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	for i := range out {
		out[i].materialize()
	}
	return out
}

// Total returns how many events were ever appended.
func (l *Log) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Evicted returns how many events were evicted by the ring bound.
func (l *Log) Evicted() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// LogSnapshot is a checkpoint of the log: a copy of its state.
type LogSnapshot = state

// Snapshot copies the log's state into dst, reusing its ring; a nil
// log leaves dst alone.
func (l *Log) Snapshot(dst *LogSnapshot) {
	if l != nil {
		dst.copyFrom(&l.state)
	}
}

// Restore rewinds the log to a snapshot, preserving the ring capacity.
func (l *Log) Restore(s *LogSnapshot) {
	if l == nil {
		return
	}
	l.state.copyFrom(s)
}

// OfKind filters the retained events.
func (l *Log) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
