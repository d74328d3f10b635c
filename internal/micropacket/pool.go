package micropacket

// Pool recycles the DMA, Data and Diagnostic packets a node builds for
// its sends. A packet's life ends at one place — its destination, or
// its origin after a broadcast tour — and whoever ends it hands it to
// Free. A packet Free takes on the pool that built it goes straight
// back to that pool's free list. One that dies on another pool (a
// sharded unicast ending on another shard) is a stray: the dying pool
// keeps it until SendHome returns it to its builder at the next window
// barrier. A stray is not adopted by the pool it died on: flows such as
// a re-join refresh are one-way, so the receiving pool would hoard
// packets it never sends while the sender kept allocating.
//
// A freed packet is poisoned — an invalid Type, 0xDEAD addresses, 0xDD
// in every payload byte — so a reader that kept it past its life fails
// Validate or moves Report bytes instead of reading a recycled packet
// silently, and freeing it twice panics.
//
// Rostering packets are not recycled: every copy of a flood shares its
// one packet, and no site sees the last copy die. Rostering cuts them
// from a block of rosteringBlock instead and leaves each block to the
// GC once none of its packets is reachable. Free leaves them alone, as
// it does any packet the pool did not build, so a copy that dies on
// another shard touches no pool there.
//
// A Pool is not safe for concurrent use: like the rest of a phys.Net it
// is touched only from its own kernel's event context, and SendHome,
// which writes other pools, only while every kernel is parked.
type Pool struct {
	free [numClasses][]*Packet
	// strays are packets other pools built that died here, waiting
	// for SendHome.
	strays []*Packet
	// rostering is what is left of the block Rostering cuts from.
	rostering []Packet
}

// rosteringBlock is how many Rostering packets a pool cuts at once.
const rosteringBlock = 32

// Size classes of pooled packets (Packet.class); classFreed marks a
// packet that is free.
const (
	classNone  uint8 = iota // no pool built the packet
	classSmall              // DMA, payload <= smallPayload
	classFull               // DMA, payload <= MaxPayload
	classFixed              // fixed format
	numClasses

	classFreed uint8 = 0x80
)

// Poison values Free writes into a packet.
const (
	poisonType Type   = 0xEE
	poisonAddr NodeID = 0xDEAD
	poisonByte byte   = 0xDD
)

// poison is a full payload of poisonByte, copied over a freed packet's.
var poison = func() (b [MaxPayload]byte) {
	for i := range b {
		b[i] = poisonByte
	}
	return b
}()

// DMA is NewDMA drawing the packet from the pool.
func (pl *Pool) DMA(src, dst NodeID, hdr DMAHeader, data []byte) *Packet {
	c := dmaClass(data)
	p := pl.take(c)
	if p == nil {
		p = dmaBox(c)
		p.class, p.home = c, pl
	}
	p.setDMA(src, dst, hdr, p.Data[:len(data)], data)
	return p
}

// Data is NewData drawing the packet from the pool.
func (pl *Pool) Data(src, dst NodeID, tag uint8, payload []byte) *Packet {
	p := pl.take(classFixed)
	if p == nil {
		p = new(Packet)
	}
	*p = Packet{Type: TypeData, Src: src, Dst: dst, Tag: tag, class: classFixed, home: pl}
	copy(p.Payload[:], payload)
	return p
}

// Diagnostic is NewDiagnostic drawing the packet from the pool.
func (pl *Pool) Diagnostic(src, dst NodeID, code uint8) *Packet {
	p := pl.take(classFixed)
	if p == nil {
		p = new(Packet)
	}
	*p = Packet{Type: TypeDiagnostic, Src: src, Dst: dst, Tag: code, class: classFixed, home: pl}
	return p
}

// Rostering is NewRostering cutting the packet from the pool's block.
func (pl *Pool) Rostering(src NodeID, tag uint8, payload [FixedPayload]byte) *Packet {
	if len(pl.rostering) == 0 {
		pl.rostering = make([]Packet, rosteringBlock)
	}
	p := &pl.rostering[0]
	pl.rostering = pl.rostering[1:]
	*p = Packet{Type: TypeRostering, Src: src, Dst: Broadcast, Tag: tag, Payload: payload}
	return p
}

// take pops a free packet of class c, or returns nil.
func (pl *Pool) take(c uint8) *Packet {
	l := pl.free[c]
	if len(l) == 0 {
		return nil
	}
	p := l[len(l)-1]
	pl.free[c] = l[:len(l)-1]
	p.class = c
	return p
}

// Free ends p's life. A packet no pool built is left alone (it may be
// sent again, like a rostering agent's keepalive); any other is
// poisoned, and taken back if pl built it or kept as a stray for
// SendHome if another pool did.
func (pl *Pool) Free(p *Packet) {
	if p.home == nil {
		return
	}
	if p.class&classFreed != 0 {
		panic("micropacket: packet freed twice")
	}
	p.Type, p.Src, p.Dst = poisonType, poisonAddr, poisonAddr
	p.Data = p.Data[:cap(p.Data)]
	copy(p.Data, poison[:])
	p.Payload = [FixedPayload]byte(poison[:])
	c := p.class
	p.class |= classFreed
	if p.home == pl {
		pl.free[c] = append(pl.free[c], p)
	} else {
		pl.strays = append(pl.strays, p)
	}
}

// SendHome returns every stray to the free list of the pool that built
// it. It writes other pools, so it may run only while every pool's
// kernel is parked: parsim's barrier calls it.
func (pl *Pool) SendHome() {
	for i, p := range pl.strays {
		c := p.class &^ classFreed
		p.home.free[c] = append(p.home.free[c], p)
		pl.strays[i] = nil
	}
	pl.strays = pl.strays[:0]
}
