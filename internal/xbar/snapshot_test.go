package xbar

import (
	"slices"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
)

// arrival is one flit leaving the destination's photonic input port.
type arrival struct {
	at  sim.Cycle
	pkt packet.ID
	seq int
}

// runDraining ticks the engine over [from, to) and empties the destination
// port after every tick, returning the flits in arrival order.
func (rig *txRig) runDraining(t *testing.T, from, to sim.Cycle) []arrival {
	t.Helper()
	var out []arrival
	for now := from; now < to; now++ {
		if err := rig.tx.Tick(now); err != nil {
			t.Fatal(err)
		}
		for vc := 0; vc < rig.rxPort.VCCount(); vc++ {
			for rig.rxPort.Len(vc) > 0 {
				f, err := rig.rxPort.Pop(vc)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, arrival{at: now, pkt: f.Packet.ID, seq: f.Seq})
			}
		}
	}
	return out
}

// countTails returns how many packets of flits flits each arrived whole.
func countTails(arrivals []arrival, flits int) int {
	n := 0
	for _, a := range arrivals {
		if a.seq == flits-1 {
			n++
		}
	}
	return n
}

// TestTXSnapshotMidStream: a snapshot taken while one packet streams and
// the next packet's receive window is already open restores both, however
// far the engine has run on since (its live windows closed and reused),
// and survives being restored from twice.
func TestTXSnapshotMidStream(t *testing.T) {
	const snapAt, idle = 15, 200
	load := func() *txRig {
		rig := newTXRig(t, GateSelected, 16)
		for id := packet.ID(1); id <= 3; id++ {
			rig.enqueuePacket(t, id, 16, 0)
		}
		return rig
	}

	straight := load()
	want := straight.runDraining(t, 0, idle)
	if tails := countTails(want, 16); straight.tx.Busy() || tails != 3 {
		t.Fatalf("straight run not idle after %d cycles: %d packets delivered", idle, tails)
	}

	rig := load()
	head := rig.runDraining(t, 0, snapAt-1)
	before := rig.ledger.Counts()[photonic.EnergyIdleDetector]
	head = append(head, rig.runDraining(t, snapAt-1, snapAt)...)
	if rows := poweredRows(rig.ledger, before); rows != 8 {
		t.Fatalf("cycle %d holds %d demodulator rows powered, want 8: the streaming window's 4 plus the reserved packet's 4", snapAt-1, rows)
	}
	var (
		txSnap     TXSnapshot
		rxSnap     RXSnapshot
		arenaSnap  router.ArenaSnapshot
		ledgerSnap photonic.LedgerSnapshot
	)
	rig.tx.Snapshot(&txSnap)
	rig.rx.Snapshot(&rxSnap)
	rig.arena.Snapshot(&arenaSnap)
	rig.ledger.Snapshot(&ledgerSnap)
	occ := rig.occ

	check := func(what string, tail []arrival) {
		t.Helper()
		if got := slices.Concat(head, tail); !slices.Equal(got, want) {
			t.Fatalf("%s: delivered flits diverge from the straight run:\ngot  %v\nwant %v", what, got, want)
		}
		if got, want := ledgerState(rig.ledger), ledgerState(straight.ledger); got != want {
			t.Fatalf("%s: ledger %v, straight run %v", what, got, want)
		}
		if got, want := rig.tx.BusyCycles(), straight.tx.BusyCycles(); got != want {
			t.Fatalf("%s: %d busy cycles, straight run %d", what, got, want)
		}
		if got, want := rig.rxPort.FreeVCs(), rig.rxPort.VCCount(); got != want {
			t.Fatalf("%s: %d of %d destination VCs free once drained; a receive window was opened twice", what, got, want)
		}
		if rig.tx.Busy() {
			t.Fatalf("%s: not idle once the straight run's 3 packets were delivered", what)
		}
	}
	check("taking the snapshot", rig.runDraining(t, snapAt, idle))

	for _, what := range []string{"first restore", "second restore"} {
		rig.ledger.Restore(&ledgerSnap)
		if err := rig.arena.Restore(&arenaSnap); err != nil {
			t.Fatal(err)
		}
		rig.occ = occ
		rig.rx.Restore(&rxSnap)
		rig.tx.Restore(&txSnap)
		check(what, rig.runDraining(t, snapAt, idle))
	}
}

// ledgerState is l's checkpoint, for comparing ledgers.
func ledgerState(l *photonic.Ledger) (s photonic.LedgerSnapshot) {
	l.Snapshot(&s)
	return s
}
