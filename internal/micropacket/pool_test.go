package micropacket

import (
	"bytes"
	"testing"
)

// TestPacketPool: a pool hands back what it took, by size class, and
// takes back only what it built — a packet freed on another pool waits
// there until SendHome returns it; a freed packet reads as poisoned, and
// freeing it twice panics.
func TestPacketPool(t *testing.T) {
	var a, b Pool
	small, full := bytes.Repeat([]byte{1}, smallPayload), bytes.Repeat([]byte{2}, MaxPayload)

	t.Run("recycled by class", func(t *testing.T) {
		p := a.DMA(1, 2, DMAHeader{Channel: 3, Offset: 9}, small)
		a.Free(p)
		if q := a.DMA(4, 5, DMAHeader{}, full); q == p {
			t.Fatal("a small-class packet was handed out for a 64-byte payload")
		}
		q := a.DMA(4, Broadcast, DMAHeader{Channel: 7}, []byte{0xAB})
		if q != p {
			t.Fatal("a freed packet was not reused")
		}
		want := NewDMA(4, Broadcast, DMAHeader{Channel: 7}, []byte{0xAB})
		if !q.Equal(want) || q.Validate() != nil {
			t.Fatalf("recycled packet %v, want %v", q, want)
		}
		d := a.Data(1, 2, 0x42, []byte{7, 8})
		a.Free(d)
		e := a.Data(3, 4, 0x43, nil)
		if e != d || !e.Equal(NewData(3, 4, 0x43, nil)) {
			t.Fatalf("recycled Data packet %v", e)
		}
		g := a.Diagnostic(1, 2, 0xC0)
		g.Payload[0] = 9
		a.Free(g)
		if h := a.Diagnostic(3, 4, 0xC1); h != g || !h.Equal(NewDiagnostic(3, 4, 0xC1)) {
			t.Fatalf("recycled Diagnostic packet %v", h)
		}
	})

	t.Run("a foreign packet re-sent twice survives", func(t *testing.T) {
		// A rostering agent's keepalive is built once and sent again.
		ka := NewDiagnostic(1, 2, 0xA5)
		want := *ka
		a.Free(ka)
		a.Free(ka)
		if !ka.Equal(&want) {
			t.Fatalf("Free touched a packet no pool built: %v", ka)
		}
	})

	t.Run("freed on another pool goes home at SendHome", func(t *testing.T) {
		p := a.DMA(1, 2, DMAHeader{}, full)
		b.Free(p)
		if p.Type.Valid() || p.Validate() == nil || p.Src != poisonAddr {
			t.Fatalf("a stray %+v is not poisoned", p)
		}
		if q := b.DMA(1, 2, DMAHeader{}, full); q == p {
			t.Fatal("a pool took back a packet another pool built")
		}
		if q := a.DMA(1, 2, DMAHeader{}, full); q == p {
			t.Fatal("a stray came back to its builder before SendHome")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("freeing a stray twice did not panic")
				}
			}()
			b.Free(p)
		}()
		b.SendHome()
		if len(b.strays) != 0 {
			t.Fatalf("%d strays left after SendHome", len(b.strays))
		}
		if q := b.DMA(1, 2, DMAHeader{}, full); q == p {
			t.Fatal("SendHome handed a stray to the pool it died on")
		}
		q := a.DMA(3, 4, DMAHeader{Channel: 5}, full)
		if q != p {
			t.Fatal("SendHome did not return the stray to its builder")
		}
		if want := NewDMA(3, 4, DMAHeader{Channel: 5}, full); !q.Equal(want) || q.Validate() != nil {
			t.Fatalf("packet back from SendHome %v, want %v", q, want)
		}
		ka := NewDiagnostic(1, 2, 0xA5)
		b.Free(ka)
		if len(b.strays) != 0 {
			t.Fatal("a packet no pool built became a stray")
		}
	})

	t.Run("freed reads as poisoned", func(t *testing.T) {
		p := a.DMA(1, 2, DMAHeader{Channel: 1}, small[:4])
		a.Free(p)
		if p.Type.Valid() || p.Validate() == nil || p.Src != poisonAddr || p.Dst != poisonAddr {
			t.Fatalf("freed packet %+v is not poisoned", p)
		}
		if len(p.Data) == 0 || bytes.Count(p.Data, []byte{poisonByte}) != len(p.Data) {
			t.Fatalf("freed packet's payload % x is not poisoned", p.Data)
		}
	})

	t.Run("double free panics", func(t *testing.T) {
		p := a.Data(1, 2, 0, nil)
		a.Free(p)
		defer func() {
			if recover() == nil {
				t.Fatal("freeing a packet twice did not panic")
			}
		}()
		a.Free(p)
	})
}

// TestRosteringBlock: Rostering cuts rosteringBlock packets from one
// allocation, each equal to what NewRostering builds, and Free, on this
// pool or another, leaves them alone: no copy of a flood knows it is
// the last.
func TestRosteringBlock(t *testing.T) {
	var a, b Pool
	pl := [FixedPayload]byte{1, 2, 3, 4, 5, 6, 7, 8}
	var ps []*Packet
	allocs := testing.AllocsPerRun(1, func() {
		ps = ps[:0]
		for i := range rosteringBlock {
			ps = append(ps, a.Rostering(NodeID(i), 0, pl))
		}
	})
	if allocs != 1 {
		t.Fatalf("%d Rostering packets: %.0f allocations, want 1", rosteringBlock, allocs)
	}
	for i, p := range ps {
		if want := NewRostering(NodeID(i), 0, pl); !p.Equal(want) || p.Validate() != nil {
			t.Fatalf("packet %d is %v, want %v", i, p, want)
		}
		a.Free(p)
		b.Free(p)
		if !p.Equal(NewRostering(NodeID(i), 0, pl)) || len(a.free[classFixed]) != 0 || len(b.strays) != 0 {
			t.Fatalf("Free took packet %d (%v)", i, p)
		}
	}
}
