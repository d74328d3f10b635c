package phys

import (
	"bytes"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/enc8b10b"
	"repro/internal/micropacket"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestDeepPHYCleanDelivery: with the full hardware datapath enabled,
// every frame survives encode→8b/10b→decode bit-exactly.
func TestDeepPHYCleanDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	n.DeepPHY = true
	var got []*micropacket.Packet
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { got = append(got, f.Pkt) })
	n.Connect(a, b, 100)

	sent := []*micropacket.Packet{
		micropacket.NewData(1, 2, 7, []byte{0xDE, 0xAD, 0xBE, 0xEF}),
		micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 5, Region: 3, Offset: 4096}, bytes.Repeat([]byte{0x5A}, 64)),
		micropacket.NewAtomic(1, 2, 9, micropacket.OpFetchAdd, 0x123456789ABCDEF0),
		micropacket.NewRostering(1, 0, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}),
	}
	for _, p := range sent {
		if !a.Send(newFrameV1(p)) {
			t.Fatal("send refused")
		}
	}
	k.Run()
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d", len(got), len(sent))
	}
	for i, p := range sent {
		q := got[i]
		if q.Type != p.Type || q.Src != p.Src || q.Dst != p.Dst || q.Tag != p.Tag ||
			q.Payload != p.Payload || !bytes.Equal(q.Data, p.Data) || q.DMA != p.DMA {
			t.Fatalf("frame %d mutated through deep PHY:\n  sent %v\n  got  %v", i, p, q)
		}
	}
	if n.Acct.CRCDrops() != 0 {
		t.Fatalf("CRC drops on clean link: %d", n.Acct.CRCDrops())
	}
}

// TestDeepPHYCorruptionDiscarded: single bit flips anywhere in the
// symbol stream must never deliver a corrupted frame — the hardware
// discards on code violation or CRC mismatch.
func TestDeepPHYCorruptionDiscarded(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ref := micropacket.NewData(1, 2, 7, payload)
	syms, _ := wire.EncodeSymbols(wire.V1, ref, enc8b10b.NewEncoder())
	nSyms := len(syms)

	delivered, dropped := 0, 0
	for symIdx := 0; symIdx < nSyms; symIdx++ {
		for bit := 0; bit < 10; bit++ {
			k := sim.NewKernel(1)
			n := NewNet(k)
			n.DeepPHY = true
			si, bi := symIdx, bit
			n.Corrupt = func(_ *Port, s []enc8b10b.Symbol) {
				s[si] ^= 1 << bi
			}
			ok := true
			a := n.NewPort("a", nil)
			b := n.NewPort("b", func(_ *Port, f Frame) {
				delivered++
				// If it got through despite the flip, it must be
				// bit-identical (the flip hit redundancy, e.g. got
				// corrected... 8b/10b does not correct, so this
				// should not happen for payload bits).
				if f.Pkt.Payload != ref.Payload || f.Pkt.Tag != ref.Tag ||
					f.Pkt.Src != ref.Src || f.Pkt.Dst != ref.Dst {
					ok = false
				}
			})
			n.Connect(a, b, 10)
			a.Send(newFrameV1(micropacket.NewData(1, 2, 7, payload)))
			k.Run()
			if !ok {
				t.Fatalf("corrupted frame DELIVERED with wrong contents (sym %d bit %d)", si, bi)
			}
			dropped += int(n.Acct.CRCDrops())
		}
	}
	if delivered != 0 {
		// Strictly, a flip could in principle cancel out; with this
		// codec and CRC it must not for single-bit flips.
		t.Fatalf("%d corrupted frames delivered (want 0), %d dropped", delivered, dropped)
	}
	if dropped != nSyms*10 {
		t.Fatalf("dropped %d of %d corrupted frames", dropped, nSyms*10)
	}
}

// TestDeepPHYBurstErrors: multi-bit bursts are likewise discarded.
func TestDeepPHYBurstErrors(t *testing.T) {
	k := sim.NewKernel(7)
	n := NewNet(k)
	n.DeepPHY = true
	rng := sim.NewRNG(3)
	frames := 0
	n.Corrupt = func(_ *Port, s []enc8b10b.Symbol) {
		frames++
		if frames%3 != 0 {
			return // corrupt every third frame
		}
		start := rng.Intn(len(s))
		for j := 0; j < 3 && start+j < len(s); j++ {
			s[start+j] ^= enc8b10b.Symbol(rng.Intn(1024))
		}
	}
	delivered := 0
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { delivered++ })
	n.Connect(a, b, 10)
	const total = 300
	sendNext := func() {}
	i := 0
	sendNext = func() {
		if i < total {
			a.Send(newFrameV1(micropacket.NewData(1, 2, uint8(i), []byte{byte(i)})))
			i++
			k.After(SerTime(40), sendNext)
		}
	}
	k.After(0, sendNext)
	k.Run()
	// XORing with a random value can leave a symbol unchanged (1/1024),
	// so allow a tiny tolerance above the exact 2/3.
	if delivered < 200 || delivered > 205 {
		t.Fatalf("delivered %d of %d; expected ≈200 (every third corrupted)", delivered, total)
	}
	if n.Acct.CRCDrops() < 95 {
		t.Fatalf("CRC drops = %d, want ≈100", n.Acct.CRCDrops())
	}
}

// TestDeepPHYHopPreserved: only the packet goes through the deep
// datapath; the frame's hop count, trunk VC tag, priority mark and wire
// size arrive as they were sent (trunk ingress routes by VC), and so
// does the packet, which decodes to what was sent.
func TestDeepPHYHopPreserved(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	n.DeepPHY = true
	deep := 0
	n.Corrupt = func(*Port, []enc8b10b.Symbol) { deep++ }
	var got Frame
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { got = f })
	n.Connect(a, b, 10)
	f := newFrameV1(micropacket.NewData(1, 2, 0, nil))
	f.Hops, f.VC = 9, 5
	a.SendPriority(f)
	k.Run()
	if deep != 1 {
		t.Fatalf("%d frames went through the deep datapath, want 1", deep)
	}
	want := f
	want.Prio = true
	if got != want {
		t.Fatalf("frame tags changed through deep PHY: got %+v, want %+v", got, want)
	}
}

// TestDeepPHYHopAllocations: the bytes and symbols of a frame on the
// fiber and the packet they decode to live in the Net's scratch, and a
// hop that decodes the packet it carried keeps that packet, so a DeepPHY
// hop allocates nothing. It was six — frame, body, symbols, received
// bytes, packet, payload — and then one, the received packet.
func TestDeepPHYHopAllocations(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	n.DeepPHY = true
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(*Port, Frame) {})
	n.Connect(a, b, 100)
	for _, p := range []*micropacket.Packet{
		micropacket.NewData(1, 2, 7, []byte{0xDE, 0xAD}),
		micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 5, Offset: 64}, bytes.Repeat([]byte{0x5A}, 64)),
	} {
		f := newFrameV1(p)
		hop := func() {
			a.Send(f)
			k.Run()
		}
		hop()
		if got := alloctest.Count(100, hop); got != 0 {
			t.Errorf("100 DeepPHY hops of a %v frame allocate %d times, want 0", p.Type, got)
		}
	}
	if n.Acct.WireDelivered != 2*102 {
		t.Fatalf("%d frames delivered", n.Acct.WireDelivered)
	}
}
