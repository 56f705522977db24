package torus

import (
	"slices"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
)

// arrival is one flit leaving a destination's photonic input port.
type arrival struct {
	at   sim.Cycle
	node int
	pkt  packet.ID
	seq  int
}

// runDraining ticks the network over [from, to) and empties every
// destination port after each tick, returning the flits in arrival order.
func (r *rig) runDraining(t *testing.T, from, to sim.Cycle) []arrival {
	t.Helper()
	var out []arrival
	for now := from; now < to; now++ {
		if err := r.net.Tick(now); err != nil {
			t.Fatal(err)
		}
		for node, port := range r.rxPort {
			for vc := 0; vc < port.VCCount(); vc++ {
				for port.Len(vc) > 0 {
					f, err := port.Pop(vc)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, arrival{at: now, node: node, pkt: f.Packet.ID, seq: f.Seq})
				}
			}
		}
	}
	return out
}

// TestNetworkSnapshotMidCircuit: a snapshot taken with one circuit
// streaming, one still in setup and one source waiting out a blocked
// setup's back-off restores all three, however far the network has run on
// since, and survives being restored from twice.
func TestNetworkSnapshotMidCircuit(t *testing.T) {
	const snapAt, idle = 12, 300
	load := func() *rig {
		r := newRig(t)
		r.send(t, 1, 4, 5, 64, 0)  // 1 hop: streams from cycle 9
		r.send(t, 2, 0, 10, 64, 0) // 4 hops over east(0), east(1): in setup until cycle 33
		r.send(t, 3, 1, 2, 8, 0)   // needs east(1): blocked, retries after the back-off
		return r
	}

	straight := load()
	want := straight.runDraining(t, 0, idle)
	if len(want) != 64+64+8 {
		t.Fatalf("straight run delivered %d flits in %d cycles, want all 3 packets' %d", len(want), idle, 64+64+8)
	}

	r := load()
	head := r.runDraining(t, 0, snapAt)
	if len(head) == 0 || len(head) >= 64 {
		t.Fatalf("%d flits of packet 1 arrived before cycle %d; its circuit is not mid-stream", len(head), snapAt)
	}
	if r.net.PathsSetUp() != 2 || r.net.SetupsBlocked() == 0 {
		t.Fatalf("at cycle %d: %d paths set up, %d setups blocked; want two circuits up and one setup blocked",
			snapAt, r.net.PathsSetUp(), r.net.SetupsBlocked())
	}
	var (
		netSnap    NetworkSnapshot
		arenaSnap  router.ArenaSnapshot
		ledgerSnap photonic.LedgerSnapshot
	)
	r.net.Snapshot(&netSnap)
	r.arena.Snapshot(&arenaSnap)
	r.ledger.Snapshot(&ledgerSnap)
	occ := r.occ

	check := func(what string, tail []arrival) {
		t.Helper()
		if got := slices.Concat(head, tail); !slices.Equal(got, want) {
			t.Fatalf("%s: delivered flits diverge from the straight run:\ngot  %v\nwant %v", what, got, want)
		}
		if got, want := ledgerState(r.ledger), ledgerState(straight.ledger); got != want {
			t.Fatalf("%s: ledger %v, straight run %v", what, got, want)
		}
		if r.net.PathsSetUp() != straight.net.PathsSetUp() || r.net.SetupsBlocked() != straight.net.SetupsBlocked() {
			t.Fatalf("%s: %d paths set up, %d setups blocked; straight run %d, %d", what,
				r.net.PathsSetUp(), r.net.SetupsBlocked(), straight.net.PathsSetUp(), straight.net.SetupsBlocked())
		}
	}
	check("taking the snapshot", r.runDraining(t, snapAt, idle))

	for _, what := range []string{"first restore", "second restore"} {
		r.ledger.Restore(&ledgerSnap)
		if err := r.arena.Restore(&arenaSnap); err != nil {
			t.Fatal(err)
		}
		r.occ = occ
		if err := r.net.Restore(&netSnap); err != nil {
			t.Fatal(err)
		}
		if err := r.net.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := len(r.net.linkOwner); got != 5 {
			t.Fatalf("%s: %d links held, want 5 (1 + 4 hops)", what, got)
		}
		check(what, r.runDraining(t, snapAt, idle))
	}
}

// ledgerState is l's checkpoint, for comparing ledgers.
func ledgerState(l *photonic.Ledger) (s photonic.LedgerSnapshot) {
	l.Snapshot(&s)
	return s
}
