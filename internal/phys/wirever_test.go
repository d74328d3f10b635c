package phys

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/micropacket"
	"repro/internal/wire"
)

// Per-version topology validation: the address-space ceiling is a
// property of the wire-format version the fabric runs, and the error
// must name the version so the fix (wire v2) is obvious.
func TestTopologyWireVersionValidation(t *testing.T) {
	big := Uniform(300, 2, 50)

	// Auto resolves to the smallest version that fits.
	if v := big.WireVersion(); v != wire.V2 {
		t.Fatalf("auto version for 300 nodes = %v, want v2", v)
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("auto-version 300-node topology rejected: %v", err)
	}
	small := Uniform(6, 4, 50)
	if v := small.WireVersion(); v != wire.V1 {
		t.Fatalf("auto version for 6 nodes = %v, want v1 (byte-exact compatibility)", v)
	}

	// An explicit v1 still rejects >255 nodes, naming the version.
	v1big := big
	v1big.Wire = wire.V1
	err := v1big.Validate()
	if err == nil {
		t.Fatal("v1 topology with 300 nodes validated")
	}
	if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "255") {
		t.Fatalf("v1 overflow error does not name the version and its ceiling: %v", err)
	}

	// v1 accepts exactly its ceiling; one more is the error above.
	atCeiling := Uniform(255, 1, 50)
	atCeiling.Wire = wire.V1
	if err := atCeiling.Validate(); err != nil {
		t.Fatalf("v1 at 255 nodes rejected: %v", err)
	}

	// v2 accepts up to 65535 nodes and rejects beyond.
	huge := Uniform(65535, 1, 50)
	huge.Wire = wire.V2
	if err := huge.Validate(); err != nil {
		t.Fatalf("v2 at 65535 nodes rejected: %v", err)
	}
	past := Uniform(65536, 1, 50)
	past.Wire = wire.V2
	if err := past.Validate(); err == nil {
		t.Fatal("65536 nodes validated")
	}

	// Unknown versions are rejected up front.
	bogus := small
	bogus.Wire = wire.Version(7)
	if err := bogus.Validate(); err == nil {
		t.Fatal("unknown wire version validated")
	}
}

// The builders stamp the resolved version onto every shard's Net, so
// frame sizing and the DeepPHY codec agree fabric-wide.
func TestBuildersStampWireVersion(t *testing.T) {
	k, net := testNet()
	_ = k
	topo := Uniform(4, 2, 50)
	topo.Wire = wire.V2
	if _, err := BuildFabric(net, topo); err != nil {
		t.Fatal(err)
	}
	if net.Wire != wire.V2 {
		t.Fatalf("builder left Net on %v, want v2", net.Wire)
	}
	// And v2 frames really are one word bigger on the wire.
	f := net.NewFrame(dataFrame(1, 2).Pkt)
	if f.Wire != 28 {
		t.Fatalf("v2 fixed frame sized %d, want 28", f.Wire)
	}
}

// TestFrameIs16Bytes: a Frame is a packet pointer and 8 bytes of
// counts (the wire size is a uint16), so every FIFO slot, MAC queue
// slot and pooled hop record carrying one stays small. Wire was an int
// and the Frame 24 bytes.
func TestFrameIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got > 16 {
		t.Fatalf("a Frame is %d bytes, want at most 16", got)
	}
}

// TestLargestFrameFitsWire: the largest frame of every wire version, a
// DMA packet with a full variable payload, keeps its encoded size in
// Frame.Wire, and that size is the encoder's.
func TestLargestFrameFitsWire(t *testing.T) {
	_, net := testNet()
	pkt := micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3}, make([]byte, micropacket.MaxPayload))
	for _, v := range wire.Versions() {
		net.Wire = v
		raw, err := wire.Encode(v, pkt)
		if err != nil {
			t.Fatal(err)
		}
		f := net.NewFrame(pkt)
		if int(f.Wire) != len(raw) || int(f.Wire) != wire.Size(v, pkt.Type, len(pkt.Data)) {
			t.Fatalf("%v: the largest frame is %d bytes on the wire, Frame.Wire says %d", v, len(raw), f.Wire)
		}
	}
}
