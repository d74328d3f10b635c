package micropacket

import (
	"testing"
	"testing/quick"
)

// Wire-format round trips, framing and CRC behavior are tested in
// internal/wire (per format version, against checked-in golden
// vectors); this file covers the in-memory packet model.

// TestSlide4Table verifies the type table matches slide 4 exactly.
func TestSlide4Table(t *testing.T) {
	want := []struct {
		name      string
		variable  bool
		mandatory bool
	}{
		{"Rostering", false, true},
		{"Data", false, true},
		{"DMA", true, true},
		{"Interrupt", false, true},
		{"Diagnostic", false, true},
		{"D64 Atomic", false, false},
	}
	got := Types()
	if len(got) != len(want) {
		t.Fatalf("have %d types, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.name || g.Variable != w.variable || g.Mandatory != w.mandatory {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestTypeValidity(t *testing.T) {
	for ty := Type(0); ty < numTypes; ty++ {
		if !ty.Valid() {
			t.Errorf("type %v should be valid", ty)
		}
	}
	if Type(6).Valid() || Type(255).Valid() {
		t.Error("out-of-range types should be invalid")
	}
}

func TestBroadcast(t *testing.T) {
	p := NewData(1, Broadcast, 0, nil)
	if !p.IsBroadcast() {
		t.Fatal("broadcast not detected")
	}
	if NewData(1, 0xFF, 0, nil).IsBroadcast() {
		t.Fatal("0xFF is an ordinary wide address, not broadcast")
	}
}

func TestWideAddresses(t *testing.T) {
	// The in-memory address space is uint16: ids past the old one-byte
	// ceiling must survive construction unaliased.
	p := NewData(300, 700, 1, nil)
	if p.Src != 300 || p.Dst != 700 {
		t.Fatalf("wide addresses aliased: src=%d dst=%d", p.Src, p.Dst)
	}
	if p.IsBroadcast() {
		t.Fatal("wide unicast misread as broadcast")
	}
}

func TestAtomicPacket(t *testing.T) {
	p := NewAtomic(4, 9, 17, OpFetchAdd, 0x1122334455667788)
	if p.Op() != OpFetchAdd {
		t.Fatalf("op = %v", p.Op())
	}
	if p.Word64() != 0x1122334455667788 {
		t.Fatalf("word = %x", p.Word64())
	}
}

func TestWord64RoundTripQuick(t *testing.T) {
	if err := quick.Check(func(v uint64) bool {
		var p Packet
		p.SetWord64(v)
		return p.Word64() == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Packet
		err  error
	}{
		{"bad type", Packet{Type: Type(9)}, ErrBadType},
		{"fixed with data", Packet{Type: TypeData, Data: []byte{1}}, ErrLengthMism},
		{"dma too long", Packet{Type: TypeDMA, DMA: DMAHeader{Length: 65}, Data: make([]byte, 65)}, ErrTooLong},
		{"dma len mismatch", Packet{Type: TypeDMA, DMA: DMAHeader{Length: 3}, Data: []byte{1}}, ErrLengthMism},
		{"dma bad channel", Packet{Type: TypeDMA, DMA: DMAHeader{Channel: 16}}, ErrBadChannel},
		{"bad op", Packet{Type: TypeD64Atomic, Flags: Flags(numOps)}, ErrBadOp},
		{"ok data", Packet{Type: TypeData}, nil},
		{"ok dma", Packet{Type: TypeDMA, DMA: DMAHeader{Channel: 15}}, nil},
	}
	for _, c := range cases {
		if got := c.p.Validate(); got != c.err {
			t.Errorf("%s: Validate() = %v, want %v", c.name, got, c.err)
		}
	}
}

func TestClone(t *testing.T) {
	p := NewDMA(1, 2, DMAHeader{Channel: 3}, []byte{1, 2, 3})
	q := p.Clone()
	q.Data[0] = 99
	if p.Data[0] != 1 {
		t.Fatal("Clone aliases Data")
	}
	q.Payload[0] = 42
	if p.Payload[0] == 42 {
		t.Fatal("Clone aliases Payload")
	}
}

func TestStringForms(t *testing.T) {
	if s := NewData(1, Broadcast, 9, nil).String(); s == "" {
		t.Fatal("empty String()")
	}
	if s := NewAtomic(1, 2, 3, OpFetchAdd, 77).String(); s == "" {
		t.Fatal("empty String()")
	}
	if s := NewDMA(1, 2, DMAHeader{}, nil).String(); s == "" {
		t.Fatal("empty String()")
	}
	if TypeData.String() != "Data" || Type(99).String() == "" {
		t.Fatal("Type.String broken")
	}
	if OpRead.String() != "Read" || AtomicOp(99).String() == "" {
		t.Fatal("AtomicOp.String broken")
	}
}

// TestAnnouncementCodec pins the announcement's byte layout: origin
// (both bytes), mask, epoch, sequence; decoding gives the fields back.
func TestAnnouncementCodec(t *testing.T) {
	ann := Announcement{Origin: 0x1234, Mask: 0b1010, Epoch: 0xDEADBEEF, Seq: 250}
	want := [FixedPayload]byte{0x34, 0x12, 0x0A, 0xEF, 0xBE, 0xAD, 0xDE, 0xFA}
	if got := ann.Payload(); got != want {
		t.Fatalf("Payload = % x, want % x", got, want)
	}
	p := NewRostering(ann.Origin, 0, ann.Payload())
	if p.Type != TypeRostering || !p.IsBroadcast() {
		t.Fatalf("announcement packet %v", p)
	}
	if got := p.Announcement(); got != ann {
		t.Fatalf("Announcement = %+v, want %+v", got, ann)
	}
}
