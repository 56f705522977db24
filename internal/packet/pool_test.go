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

// TestPoolSnapshotRestore: a restore rewinds the contents of every slot
// in use, the free list and the conservation counters, and un-uses the
// slots first drawn after the snapshot, so the Gets that follow hand out
// the same slots as the run the snapshot was taken from. Restoring twice
// proves the snapshot does not alias the pool's own storage.
func TestPoolSnapshotRestore(t *testing.T) {
	var pl Pool
	pkts := make([]*Packet, poolChunk+poolChunk/2) // ends mid-chunk
	for i := range pkts {
		pkts[i] = pl.Get()
		pkts[i].ID = ID(i + 1)
	}
	for i := 0; i < len(pkts); i += 3 {
		pl.Put(pkts[i])
	}
	var snap PoolSnapshot
	slots := pl.Snapshot(&snap, nil)
	live := pl.Live()
	saved := make([]Packet, len(pkts))
	for i, p := range pkts {
		saved[i] = *p
	}

	// The straight run: drain the free list, run through the rest of the
	// open chunk and well into a chunk the snapshot never saw.
	straight := make([]*Packet, 2*poolChunk)
	for i := range straight {
		straight[i] = pl.Get()
	}
	if len(pl.chunks) != 3 {
		t.Fatalf("straight run ended with %d chunks, want 3", len(pl.chunks))
	}
	for round := 0; round < 2; round++ {
		for i, p := range pkts {
			p.ID = -1
			p.Flits = round
			if i%3 == 1 {
				pl.Put(p)
			}
		}
		pl.Restore(&snap, slots)
		if got := pl.Live(); got != live {
			t.Fatalf("round %d: Live() = %d after restore, want %d", round, got, live)
		}
		for i, p := range pkts {
			if *p != saved[i] {
				t.Fatalf("round %d: slot %d reads %+v after restore, want %+v", round, i, *p, saved[i])
			}
		}
		for i, want := range straight {
			got := pl.Get()
			if got != want {
				t.Fatalf("round %d: Get %d returned a different slot than the straight run", round, i)
			}
			if *got != (Packet{}) {
				t.Fatalf("round %d: Get %d returned a slot that is not zeroed: %+v", round, i, *got)
			}
		}
	}
}
