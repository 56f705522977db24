package packet

import "testing"

func TestPoolRecycles(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.ID = 7
	p.Flits = 8
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not reuse the recycled packet")
	}
	if q.ID != 0 || q.Flits != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
}

func TestPoolNilSafe(t *testing.T) {
	var pl *Pool
	if p := pl.Get(); p == nil {
		t.Fatal("nil pool Get returned nil")
	}
	pl.Put(&Packet{}) // must not panic
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Len() != 0 || q.Head() != nil || q.Pop() != nil {
		t.Fatal("empty queue misbehaves")
	}
	pkts := make([]*Packet, 20)
	for i := range pkts {
		pkts[i] = &Packet{ID: ID(i + 1)}
		q.Push(pkts[i])
	}
	if q.Len() != 20 {
		t.Fatalf("Len = %d, want 20", q.Len())
	}
	for i := range pkts {
		if q.Head() != pkts[i] {
			t.Fatalf("Head mismatch at %d", i)
		}
		if q.Pop() != pkts[i] {
			t.Fatalf("Pop mismatch at %d", i)
		}
	}
	// Interleave pushes and pops across the wrap point.
	for round := 0; round < 50; round++ {
		q.Push(pkts[round%20])
		q.Push(pkts[(round+1)%20])
		if got := q.Pop(); got != pkts[round%20] {
			t.Fatalf("round %d: wrong packet", round)
		}
		if got := q.Pop(); got != pkts[(round+1)%20] {
			t.Fatalf("round %d: wrong second packet", round)
		}
	}
}

// TestPoolSnapshotRestore: a restore rewinds the free list and the
// conservation counters, so the Gets that follow hand out the same
// packets as the run the snapshot was taken from; restoring twice proves
// the snapshot does not alias the pool's own free list.
func TestPoolSnapshotRestore(t *testing.T) {
	var pl Pool
	pkts := make([]*Packet, 100)
	for i := range pkts {
		pkts[i] = pl.Get()
		pkts[i].ID = ID(i + 1)
	}
	freed := 0
	for i := 0; i < len(pkts); i += 3 {
		pl.Put(pkts[i])
		freed++
	}
	snap := pl.Snapshot()
	live := pl.Live()

	// The straight run: drain the free list, then free other packets.
	straight := make([]*Packet, freed)
	for i := range straight {
		straight[i] = pl.Get()
	}
	for round := 0; round < 2; round++ {
		for i := 1; i < len(pkts); i += 3 {
			pl.Put(pkts[i])
		}
		pl.Restore(snap)
		if got := pl.Live(); got != live {
			t.Fatalf("round %d: Live() = %d after restore, want %d", round, got, live)
		}
		for i, want := range straight {
			if got := pl.Get(); got != want {
				t.Fatalf("round %d: Get %d returned a different packet than the straight run", round, i)
			}
		}
	}
}
