package event

import (
	"strings"
	"testing"

	"hetpnoc/internal/sim"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Append(Event{Kind: ReservationSent})
	l.AppendInts(1, PacketDropped, 0, 1, "x %d", 5)
	if l.Events() != nil {
		t.Fatal("nil log returned events")
	}
	if l.Total() != 0 || l.Evicted() != 0 {
		t.Fatal("nil log has counts")
	}
}

func TestLogOrdering(t *testing.T) {
	l, err := NewLog(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.AppendInts(sim.Cycle(i), ReservationSent, i, int64(i), "e%d", int64(i))
	}
	events := l.Events()
	if len(events) != 5 {
		t.Fatalf("got %d events", len(events))
	}
	for i, e := range events {
		if int(e.Cycle) != i {
			t.Fatalf("events out of order: %v", events)
		}
	}
}

func TestLogEviction(t *testing.T) {
	l, err := NewLog(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		l.AppendInts(0, PacketArrived, i, 0, "")
	}
	events := l.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	// The most recent three survive, in order.
	for i, e := range events {
		if e.Cluster != 4+i {
			t.Fatalf("wrong retained window: %v", events)
		}
	}
	if l.Total() != 7 {
		t.Fatalf("Total = %d, want 7", l.Total())
	}
	if l.Evicted() != 4 {
		t.Fatalf("Evicted = %d, want 4", l.Evicted())
	}
}

func TestOfKind(t *testing.T) {
	l, err := NewLog(10)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendInts(1, ReservationSent, 0, 1, "")
	l.AppendInts(2, PacketDropped, 1, 2, "")
	l.AppendInts(3, ReservationSent, 2, 3, "")
	if got := len(l.OfKind(ReservationSent)); got != 2 {
		t.Fatalf("OfKind found %d reservations, want 2", got)
	}
	if got := len(l.OfKind(TaskRemap)); got != 0 {
		t.Fatalf("OfKind found %d remaps, want 0", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 42, Kind: PacketDropped, Cluster: 3, Packet: 99, Detail: "attempt 2"}
	s := e.String()
	for _, want := range []string{"42", "packet-dropped", "cluster=3", "pkt=99", "attempt 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindNames(t *testing.T) {
	kinds := []Kind{ReservationSent, StreamStarted, PacketArrived, PacketDropped,
		Retransmit, AllocationChanged, TaskRemap, PacketDelivered}
	seen := make(map[string]bool)
	for _, k := range kinds {
		name := k.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("bad kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(0).String() != "unknown" {
		t.Fatal("zero kind should be unknown")
	}
}

func TestNewLogValidation(t *testing.T) {
	if _, err := NewLog(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
