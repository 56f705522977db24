package packet

import (
	"testing"
)

func TestFlitTypesOfPacket(t *testing.T) {
	p := &Packet{ID: 1, Flits: 4, FlitBits: 32}
	flits := FlitsOf(p)
	if len(flits) != 4 {
		t.Fatalf("FlitsOf produced %d flits, want 4", len(flits))
	}
	wantTypes := []FlitType{Header, Body, Body, Tail}
	for i, f := range flits {
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type = %v, want %v", i, f.Type, wantTypes[i])
		}
		if f.Seq != i {
			t.Errorf("flit %d seq = %d", i, f.Seq)
		}
		if f.Bits() != 32 {
			t.Errorf("flit %d bits = %d, want 32", i, f.Bits())
		}
	}
}

func TestSingleFlitPacketIsHeaderTail(t *testing.T) {
	p := &Packet{ID: 2, Flits: 1, FlitBits: 256}
	f := FlitAt(p, 0)
	if f.Type != HeaderTail {
		t.Fatalf("single-flit packet type = %v, want HeaderTail", f.Type)
	}
	if !f.Type.IsHeader() || !f.Type.IsTail() {
		t.Fatal("HeaderTail must be both header and tail")
	}
}

func TestTwoFlitPacket(t *testing.T) {
	p := &Packet{ID: 3, Flits: 2, FlitBits: 128}
	if got := FlitAt(p, 0).Type; got != Header {
		t.Fatalf("first flit = %v, want Header", got)
	}
	if got := FlitAt(p, 1).Type; got != Tail {
		t.Fatalf("second flit = %v, want Tail", got)
	}
}

func TestFlitAtMatchesFlitsOf(t *testing.T) {
	p := &Packet{ID: 4, Flits: 64, FlitBits: 32}
	all := FlitsOf(p)
	for i := range all {
		got := FlitAt(p, i)
		if got != all[i] {
			t.Fatalf("FlitAt(%d) = %+v, FlitsOf[%d] = %+v", i, got, i, all[i])
		}
	}
}

func TestPacketBits(t *testing.T) {
	// The three Table 3-3 packet formats all carry 2048 bits.
	formats := []Format{
		{Flits: 64, FlitBits: 32},
		{Flits: 16, FlitBits: 128},
		{Flits: 8, FlitBits: 256},
	}
	for _, f := range formats {
		if f.Bits() != 2048 {
			t.Errorf("format %dx%d bits = %d, want 2048", f.Flits, f.FlitBits, f.Bits())
		}
		if err := f.Validate(); err != nil {
			t.Errorf("format %dx%d failed validation: %v", f.Flits, f.FlitBits, err)
		}
	}
}

func TestFormatValidation(t *testing.T) {
	for _, f := range []Format{{0, 32}, {64, 0}, {-1, 32}, {64, -1}, {1 << 20, 1 << 11}} {
		if err := f.Validate(); err == nil {
			t.Errorf("format %+v passed validation", f)
		}
	}
}

func TestFlitTypeStrings(t *testing.T) {
	tests := map[FlitType]string{
		Header:      "header",
		Body:        "body",
		Tail:        "tail",
		HeaderTail:  "header+tail",
		FlitType(0): "unknown",
	}
	for ft, want := range tests {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}
