// Package dma implements AmpNet's DMA channel engine (paper, slides 3,
// 7, 11): sixteen fine-grain multiplexed DMA channels per node that
// move bytes between registered memory regions across the network using
// variable-format DMA MicroPackets.
//
// "Fine grain multiplexed" means the engine interleaves the sixteen
// channels packet-by-packet (round robin) rather than letting one large
// transfer monopolize the ring — that is how slide 7's node inserts a
// file stream and a message stream onto the segment simultaneously.
//
// Each channel is an ordered byte stream: packets carry a per-channel
// sequence number, and receivers track expected sequence per (source,
// channel) so that losses (ring transitions) are detected as gaps and
// surfaced to the recovery machinery (cache refresh, slide 18).
package dma

import (
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// NumChannels is fixed by the hardware (slide 11).
const NumChannels = micropacket.MaxChannels

// WriteHandler receives the payload of an arriving DMA packet.
type WriteHandler func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool)

// request is one queued segment send.
type request struct {
	dst  micropacket.NodeID
	hdr  micropacket.DMAHeader
	data []byte
	last bool
	// borrowed: data is a window onto the slice a Write still on the
	// stack was handed, not yet onto the engine's own copy.
	borrowed bool
	done     func()
}

// Engine is one node's DMA controller.
type Engine struct {
	ID micropacket.NodeID
	K  *sim.Kernel
	St *insertion.Station

	// OnWrite is invoked for every arriving DMA payload.
	OnWrite WriteHandler

	// queues[c] holds pending segments for channel c.
	queues [NumChannels]phys.Queue[request]
	// slabs[c] holds the bytes of channel c's kept segments, appended in
	// queue order (keep); it is rewound when the queue empties (rewind).
	slabs [NumChannels][]byte
	// rrNext is the round-robin cursor over channels.
	rrNext int
	// retry is the one backpressure retry timer, made unarmed by
	// NewEngine and re-armed with Reset; active means a retry is pending.
	retry *sim.Timer
	// Window bounds how many segments the engine keeps in the MAC's
	// insertion queue at once. Keeping it shallow is what makes the
	// multiplexing fine-grained: segments wait in their per-channel
	// queues, where round-robin applies, instead of lining up FIFO in
	// the MAC.
	Window int

	// txSeq[c] is the next sequence number for channel c.
	txSeq [NumChannels]uint8
	// rxSeq[src][c] tracks the expected next sequence from src on c:
	// indexed by source id, grown on demand, nil until src is first
	// heard (every arriving packet looks its source up here).
	rxSeq []*[NumChannels]uint8

	// Sent and Recv count DMA packets; Gaps counts sequence gaps
	// observed on receive (losses to be repaired by refresh).
	Sent uint64
	Recv uint64
	Gaps uint64
	// QueueHighWater tracks the deepest any channel queue has been.
	QueueHighWater int
}

// NewEngine creates a DMA engine bound to a station. The caller (the
// node kernel) routes arriving TypeDMA packets to HandleDMA.
// DefaultWindow is the default in-flight segment window.
const DefaultWindow = 4

func NewEngine(k *sim.Kernel, st *insertion.Station) *Engine {
	e := &Engine{ID: st.ID, K: k, St: st, Window: DefaultWindow}
	e.retry = k.NewTimer(e.pump)
	return e
}

// MaxSegment is the largest payload per DMA MicroPacket.
const MaxSegment = micropacket.MaxPayload

// pumpInterval is the retry pace when the station applies backpressure.
const pumpInterval = 2 * sim.Microsecond

// Write queues a transfer of data to (region, offset) at dst (or
// Broadcast) on the given channel, segmenting into ≤64-byte
// MicroPackets. done, if non-nil, runs after the final segment has been
// accepted by the MAC. Returns the number of segments queued.
func (e *Engine) Write(ch int, dst micropacket.NodeID, region uint8, off uint32, data []byte, done func()) int {
	if ch < 0 || ch >= NumChannels {
		panic("dma: channel out of range")
	}
	// The caller may reuse data once Write returns, so what outlives the
	// call must be copied — and only that. The segments are queued as
	// windows onto the caller's slice; a segment the pump below sends is
	// copied once, into its packet, and whatever is still queued
	// afterwards moves into the channel's slab.
	q := &e.queues[ch]
	n := 0
	for i := 0; ; i += MaxSegment {
		endI := i + MaxSegment
		if endI > len(data) {
			endI = len(data)
		}
		last := endI == len(data)
		req := request{
			dst: dst,
			hdr: micropacket.DMAHeader{
				Channel: uint8(ch), Region: region, Offset: off + uint32(i),
			},
			data:     data[i:endI:endI],
			last:     last,
			borrowed: true,
		}
		if last {
			req.done = done
		}
		q.Push(req)
		n++
		if q.Len() > e.QueueHighWater {
			e.QueueHighWater = q.Len()
		}
		if last {
			break
		}
	}
	e.pump()
	e.keep(ch)
	return n
}

// slabFloor is the least a channel's slab holds: sixteen segments, so a
// channel that rarely drains does not start a slab per short message.
const slabFloor = 16 * MaxSegment

// keep moves the segments still borrowed at the tail of channel ch's
// queue into its slab. Borrowed segments are always a suffix of their
// queue: they belong to Writes still on the stack (this one, and any
// whose pump ran the done callback this one was called from), every
// Write leaves its channel with none, and pushes go to the tail. Which
// of them a pump has sent meanwhile — this call's or another's — does
// not matter: the mark is per request.
func (e *Engine) keep(ch int) {
	q := &e.queues[ch]
	first, size := q.Len(), 0
	for first > 0 && q.At(first-1).borrowed {
		first--
		size += len(q.At(first).data)
	}
	if first == q.Len() {
		return
	}
	// Kept bytes are appended behind those still queued, which nothing
	// overwrites before the queue empties (pump rewinds it there). A
	// suffix that does not fit starts a new slab; the old one stays
	// reachable until its last segment pops. (Packets carry their own
	// payload, so nothing pins a slab beyond the queue.)
	slab := e.slabs[ch]
	if cap(slab)-len(slab) < size {
		slab = make([]byte, 0, max(size, slabFloor))
	}
	for i := first; i < q.Len(); i++ {
		req := q.At(i)
		slab = append(slab, req.data...)
		req.data = slab[len(slab)-len(req.data) : len(slab) : len(slab)]
		req.borrowed = false
	}
	e.slabs[ch] = slab
}

// rewind empties channel ch's slab once no queued segment refers to its
// bytes: the next keep writes over them. A slab grown past the floor
// for one long Write is dropped instead, so a file transfer does not
// pin its size for the engine's life.
func (e *Engine) rewind(ch int) {
	if cap(e.slabs[ch]) > slabFloor {
		e.slabs[ch] = nil
	} else {
		e.slabs[ch] = e.slabs[ch][:0]
	}
}

// Pending returns the total queued segments across channels.
func (e *Engine) Pending() int {
	n := 0
	for c := range e.queues {
		n += e.queues[c].Len()
	}
	return n
}

// Abort forgets every queued segment and the pending retry: the NIC
// died with them (Node.Crash). No done callback runs — what they would
// have reported never happened — and a later Write starts on empty
// queues and rewound slabs, so nothing of an aborted transfer is sent
// after a reboot.
func (e *Engine) Abort() {
	for c := range e.queues {
		e.queues[c].Clear()
		e.rewind(c)
	}
	e.retry.Cancel()
}

// pump drains channel queues round-robin into the station until the
// MAC pushes back, then re-arms itself.
func (e *Engine) pump() {
	for {
		ch := e.nextNonEmpty()
		if ch < 0 {
			return // all drained
		}
		q := &e.queues[ch]
		req := *q.At(0)
		// The window test comes first: a back-pressured attempt builds
		// no packet.
		if e.St.QueueLen() >= e.Window || !e.send(ch, req) {
			// Backpressure: retry shortly. The segment stays queued, so
			// nothing is lost and per-channel order is preserved.
			if !e.retry.Active() {
				e.retry.Reset(pumpInterval)
			}
			return
		}
		e.txSeq[ch]++
		e.Sent++
		q.Pop()
		if q.Len() == 0 {
			e.rewind(ch)
		}
		e.rrNext = (ch + 1) % NumChannels
		if req.done != nil {
			req.done()
		}
	}
}

// send offers the station the MicroPacket of channel ch's head
// segment, drawn from its Net's packet pool; a refused packet goes back.
func (e *Engine) send(ch int, req request) bool {
	pkt := e.St.Net().Packets.DMA(e.ID, req.dst, req.hdr, req.data)
	pkt.DMA.Seq = e.txSeq[ch]
	if req.last {
		pkt.Flags |= micropacket.FlagLast
	}
	if e.St.Send(pkt) {
		return true
	}
	e.St.Net().Packets.Free(pkt)
	return false
}

// nextNonEmpty returns the next channel with queued work, starting the
// round-robin scan at rrNext; -1 if all empty.
func (e *Engine) nextNonEmpty() int {
	for i := 0; i < NumChannels; i++ {
		c := (e.rrNext + i) % NumChannels
		if e.queues[c].Len() > 0 {
			return c
		}
	}
	return -1
}

// CacheTransport adapts one DMA channel into a netcache.Transport:
// cache updates broadcast to every replica in channel order. The
// engine's queue absorbs bursts, so Broadcast never refuses.
type CacheTransport struct {
	E  *Engine
	Ch int
}

// Broadcast implements netcache.Transport.
func (t CacheTransport) Broadcast(region uint8, off uint32, data []byte) bool {
	t.E.Write(t.Ch, micropacket.Broadcast, region, off, data, nil)
	return true
}

// HandleDMA processes an arriving DMA MicroPacket (called by the node's
// delivery demux).
func (e *Engine) HandleDMA(p *micropacket.Packet) {
	e.Recv++
	if int(p.Src) >= len(e.rxSeq) {
		e.rxSeq = append(e.rxSeq, make([]*[NumChannels]uint8, int(p.Src)+1-len(e.rxSeq))...)
	}
	seqs := e.rxSeq[p.Src]
	if seqs == nil {
		seqs = new([NumChannels]uint8)
		// Adopt the stream at whatever sequence it is on: a node that
		// just assimilated starts mid-stream by design (the refresh
		// fills in what it missed).
		seqs[p.DMA.Channel] = p.DMA.Seq
		e.rxSeq[p.Src] = seqs
	}
	if seqs[p.DMA.Channel] != p.DMA.Seq {
		e.Gaps++
		seqs[p.DMA.Channel] = p.DMA.Seq // resynchronize
	}
	seqs[p.DMA.Channel]++
	if e.OnWrite != nil {
		e.OnWrite(p.Src, p.DMA, p.Data, p.Flags&micropacket.FlagLast != 0)
	}
}

// Assembly is the receiving end of one stream of Writes: it puts a
// message's segments back together by the byte position Write stamped
// into each. The zero Assembly is ready to use.
type Assembly struct {
	// buf holds the message in progress; its length is the number of
	// bytes assembled, 0 between messages.
	buf []byte
}

// Partial reports whether a message is half assembled.
func (a *Assembly) Partial() bool { return len(a.buf) > 0 }

// Add takes the segment at byte position pos of its message and, when
// it completes one, returns the message. A segment that is not the next
// byte of the message in progress — the sender crashed mid-message, or
// a segment died in a ring transition — drops the partial, and only a
// position-0 segment starts the next one. The message returned is
// borrowed: a single segment's is data itself, a longer one's is the
// assembly buffer, which the next Add truncates and reuses.
func (a *Assembly) Add(pos int, data []byte, last bool) (msg []byte, ok bool) {
	if pos != len(a.buf) {
		a.buf = a.buf[:0]
		if pos != 0 {
			return nil, false
		}
	}
	if last && pos == 0 {
		return data, true
	}
	a.buf = append(a.buf, data...)
	if !last {
		return nil, false
	}
	msg, a.buf = a.buf, a.buf[:0]
	return msg, true
}
