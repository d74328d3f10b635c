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

// request is one queued Write. The pump cuts its segments from data at
// send time, the next one starting at the cursor sent, at byte position
// hdr.Offset+sent.
type request struct {
	dst  micropacket.NodeID
	hdr  micropacket.DMAHeader
	data []byte
	// sent counts the bytes of data already sent.
	sent int
	// last puts FlagLast on the entry's final segment. Write's entries
	// always carry it; it is a field so that the tests' reference Write
	// can queue each segment as an entry of its own.
	last bool
	// borrowed: data is a window onto the slice a Write still on the
	// stack was handed, not yet onto the engine's own copy.
	borrowed bool
	done     func()
}

// segments returns how many segments req has yet to send: an empty
// transfer is one.
func (req *request) segments() int {
	return max(1, (len(req.data)-req.sent+MaxSegment-1)/MaxSegment)
}

// Engine is one node's DMA controller.
type Engine struct {
	ID micropacket.NodeID
	K  *sim.Kernel
	St *insertion.Station

	// OnWrite is invoked for every arriving DMA payload.
	OnWrite WriteHandler

	// queues[c] holds channel c's pending Writes, one entry each.
	queues [NumChannels]phys.Queue[request]
	// slabs[c] holds the unsent bytes of channel c's kept Writes,
	// appended in queue order (keep); it is rewound when the queue
	// empties (rewind).
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
	// rxSeq[src] tracks the expected next sequence from src on each
	// channel: indexed by source id and grown on demand (every arriving
	// packet looks its source up here).
	rxSeq []rxStreams

	// Sent and Recv count DMA packets; Gaps counts sequence gaps
	// observed on receive (losses to be repaired by refresh).
	Sent uint64
	Recv uint64
	Gaps uint64
	// QueueHighWater tracks the most segments any channel has queued.
	QueueHighWater int
}

// rxStreams is what a receiver expects of one source's channels: bit c
// of heard is set once channel c has been heard, and next[c] is the
// sequence it expects there. The zero value has heard nothing.
type rxStreams struct {
	heard uint16
	next  [NumChannels]uint8
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
	// call must be copied — and only that. The transfer is queued as a
	// window onto the caller's slice; a segment the pump below sends is
	// copied once, into its packet, and whatever is still unsent
	// afterwards moves into the channel's slab.
	req := request{
		dst:      dst,
		hdr:      micropacket.DMAHeader{Channel: uint8(ch), Region: region, Offset: off},
		data:     data[:len(data):len(data)],
		last:     true,
		borrowed: true,
		done:     done,
	}
	n := req.segments()
	e.queues[ch].Push(req)
	e.QueueHighWater = max(e.QueueHighWater, e.depth(ch))
	e.pump()
	e.keep(ch)
	return n
}

// slabFloor is the least a channel's slab holds: sixteen segments, so a
// channel that rarely drains does not start a slab per short message.
const slabFloor = 16 * MaxSegment

// keep moves the unsent bytes of the Writes still borrowed at the tail
// of channel ch's queue into its slab. Borrowed entries are always a
// suffix of their queue: they belong to Writes still on the stack (this
// one, and any whose pump ran the done callback this one was called
// from), every Write leaves its channel with none, and pushes go to the
// tail. How far a pump has sent them meanwhile — this call's or
// another's — does not matter: the mark and the cursor are per entry.
func (e *Engine) keep(ch int) {
	q := &e.queues[ch]
	first, size := q.Len(), 0
	for first > 0 && q.At(first-1).borrowed {
		first--
		req := q.At(first)
		size += len(req.data) - req.sent
	}
	if first == q.Len() {
		return
	}
	// Kept bytes are appended behind those still queued, which nothing
	// overwrites before the queue empties (pump rewinds it there). A
	// suffix that does not fit starts a new slab; the old one stays
	// reachable until its last entry pops. (Packets carry their own
	// payload, so nothing pins a slab beyond the queue.) A kept entry
	// starts at its first unsent byte.
	slab := e.slabs[ch]
	if cap(slab)-len(slab) < size {
		slab = make([]byte, 0, max(size, slabFloor))
	}
	for i := first; i < q.Len(); i++ {
		req := q.At(i)
		slab = append(slab, req.data[req.sent:]...)
		req.data = slab[len(slab)-(len(req.data)-req.sent) : len(slab) : len(slab)]
		req.hdr.Offset += uint32(req.sent)
		req.sent = 0
		req.borrowed = false
	}
	e.slabs[ch] = slab
}

// rewind empties channel ch's slab once no queued entry refers to its
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
		n += e.depth(c)
	}
	return n
}

// depth returns the segments channel ch has queued.
func (e *Engine) depth(ch int) int {
	q := &e.queues[ch]
	n := 0
	for i := range q.Len() {
		n += q.At(i).segments()
	}
	return n
}

// Abort forgets every queued Write and the pending retry: the NIC
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

// ForgetSources drops what the receiver expects of every source, in
// place: a rebooted node has heard nothing of the streams since its
// crash, so the first frame of each is adopted, not counted as a gap
// against the sequence heard before it.
func (e *Engine) ForgetSources() { clear(e.rxSeq) }

// pump drains channel queues round-robin into the station, one segment
// per turn, until the MAC pushes back, then re-arms itself. A Write
// leaves its queue, and its done runs, after its final segment.
func (e *Engine) pump() {
	for {
		ch := e.nextNonEmpty()
		if ch < 0 {
			return // all drained
		}
		q := &e.queues[ch]
		req := q.At(0)
		end := min(req.sent+MaxSegment, len(req.data))
		final := end == len(req.data)
		// The window test comes first: a back-pressured attempt builds
		// no packet.
		if e.St.QueueLen() >= e.Window || !e.send(ch, req, end, final) {
			// Backpressure: retry shortly. The segment stays queued, so
			// nothing is lost and per-channel order is preserved.
			if !e.retry.Active() {
				e.retry.Reset(pumpInterval)
			}
			return
		}
		e.txSeq[ch]++
		e.Sent++
		e.rrNext = (ch + 1) % NumChannels
		if !final {
			req.sent = end
			continue
		}
		done := req.done
		q.Pop()
		if q.Len() == 0 {
			e.rewind(ch)
		}
		if done != nil {
			done()
		}
	}
}

// send offers the station the MicroPacket of the segment req[sent:end]
// on channel ch, drawn from its Net's packet pool; a refused packet
// goes back.
func (e *Engine) send(ch int, req *request, end int, final bool) bool {
	hdr := req.hdr
	hdr.Offset += uint32(req.sent)
	pkt := e.St.Net().Packets.DMA(e.ID, req.dst, hdr, req.data[req.sent:end])
	pkt.DMA.Seq = e.txSeq[ch]
	if final && req.last {
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
		e.rxSeq = append(e.rxSeq, make([]rxStreams, int(p.Src)+1-len(e.rxSeq))...)
	}
	rx, bit := &e.rxSeq[p.Src], uint16(1)<<p.DMA.Channel
	if rx.heard&bit == 0 {
		// Adopt the stream at whatever sequence it is on: a node that
		// just assimilated or rebooted starts mid-stream by design (the
		// refresh fills in what it missed).
		rx.heard |= bit
		rx.next[p.DMA.Channel] = p.DMA.Seq
	}
	if rx.next[p.DMA.Channel] != p.DMA.Seq {
		e.Gaps++
		rx.next[p.DMA.Channel] = p.DMA.Seq // resynchronize
	}
	rx.next[p.DMA.Channel]++
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
