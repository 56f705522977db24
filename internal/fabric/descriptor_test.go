package fabric

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/traffic"
)

// vcsNaming walks every VC descriptor of the fabric's arena and fails on
// one that breaks the naming rule: a VC owned by a packet and holding
// flits names the packet with that ID, an owned VC whose flits have all
// moved on names it or nothing, and a free VC names nothing. It returns
// how many descriptors name a packet.
func vcsNaming(t *testing.T, f *Fabric, when string) (named int) {
	t.Helper()
	f.arena.EachVC(func(port, vc int, owner packet.ID, flits int, pkt *packet.Packet) {
		switch {
		case pkt != nil && pkt.ID != owner:
			t.Errorf("%s: port %d VC %d is owned by packet %d (%d flits) but names packet %d", when, port, vc, owner, flits, pkt.ID)
		case pkt == nil && flits > 0:
			t.Errorf("%s: port %d VC %d holds %d flits of packet %d and names no packet", when, port, vc, flits, owner)
		}
		if pkt != nil {
			named++
		}
	})
	return named
}

// TestFreedVCNamesNoPacket: the tail pop that frees a VC also drops its
// packet reference, so a checkpoint never carries a pointer to a packet
// the pool has recycled — what a checkpoint that encodes packets by pool
// index needs. Checked in the middle of a run, after restoring a mid-run
// checkpoint onto a fabric that has since moved on, and once the fabric
// has drained: with no packet alive, no descriptor names one.
func TestFreedVCNamesNoPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"drop-storm", dropStormConfig(DHetPNoC)},
		{"drop-storm-firefly", dropStormConfig(Firefly)},
		{"saturated", Config{Arch: DHetPNoC, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 3}, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := warmed(t, tc.cfg, 1500)
			if vcsNaming(t, f, "cycle 1500") == 0 {
				t.Fatal("no VC names a packet at cycle 1500: the run is not loaded")
			}
			cp := f.Checkpoint()
			for i := 0; i < 1500; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			vcsNaming(t, f, "cycle 3000")
			if err := f.Restore(cp); err != nil {
				t.Fatal(err)
			}
			vcsNaming(t, f, "restored to cycle 1500")

			// Stop injecting and drain.
			if err := f.SetLoadScale(0); err != nil {
				t.Fatal(err)
			}
			if err := f.Reseed(2); err != nil {
				t.Fatal(err)
			}
			for i := 0; f.LivePackets() > 0; i++ {
				if i == 400000 {
					t.Fatalf("%d packets still live 400,000 cycles after injection stopped", f.LivePackets())
				}
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if named := vcsNaming(t, f, "drained"); named != 0 {
				t.Fatalf("%d VC descriptors still name a packet with no packet alive", named)
			}
		})
	}
}
