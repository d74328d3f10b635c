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
// Each channel is an ordered byte stream. A channel's broadcasts carry
// its sequence number, and receivers track the sequence they expect per
// (source, channel) on broadcast frames alone, so that a gap is a lost
// broadcast (ring transitions, bit errors), surfaced to the recovery
// machinery (cache refresh, slide 18). A unicast frame carries Seq 0
// and is never checked: its consumer notices a lost segment by byte
// position (Assembly, the refresh's byte count).
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

// request is one queued transfer, or one of the two parts of a
// WriteFramed. The pump cuts its segments from data at send time, the
// next one starting at the cursor sent, at byte position
// hdr.Offset+sent.
type request struct {
	dst  micropacket.NodeID
	hdr  micropacket.DMAHeader
	data []byte
	// sent counts the bytes of data already sent.
	sent int
	// last puts FlagLast on the entry's final segment. Every entry but
	// the first part of a WriteFramed carries it (and the tests'
	// reference Write queues each segment as an entry of its own).
	last bool
	// borrowed: data is a window onto the slice a Write still on the
	// stack was handed, not yet onto the engine's own copy or onto
	// bytes WriteShared or WriteFramed was lent.
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
	retry sim.Timer

	// txSeq[c] is the sequence number of channel c's next broadcast.
	txSeq [NumChannels]uint8
	// rx holds a table for each channel a broadcast has been heard on,
	// in the order first heard; rxBuf holds the first few inline (two
	// channels broadcast: the cache's and AmpSubscribe's). A list, not
	// an array indexed by channel: sixteen slice headers are 296 bytes
	// more an engine, measured as 0.033 MB more an iteration on
	// scale-idle-128 (1.2 %).
	rx    []rxChannel
	rxBuf [2]rxChannel

	// Sent and Recv count DMA packets; Gaps counts the sequence gaps
	// observed in arriving broadcasts, each at least one broadcast lost
	// (to be repaired by refresh), on every channel (ChannelGaps counts
	// one).
	Sent uint64
	Recv uint64
	Gaps uint64
	// QueueHighWater tracks the most segments any channel has queued.
	QueueHighWater int
}

// rxChannel is what a receiver expects of the broadcasts on channel
// ch: from[src] for each source, indexed by source id and grown on
// demand; gaps counts the gaps seen on the channel (it fits beside ch
// in the word ch takes).
type rxChannel struct {
	ch   uint8
	gaps uint32
	from []rxSeq
}

// rxSeq is what a receiver expects of one source's broadcasts on one
// channel: next is the sequence of the next one, once heard is set.
// The zero value has heard nothing.
type rxSeq struct {
	heard bool
	next  uint8
}

// Window bounds how many segments an engine keeps in the MAC's
// insertion queue at once. Keeping it shallow is what makes the
// multiplexing fine-grained: segments wait in their per-channel queues,
// where round-robin applies, instead of lining up FIFO in the MAC.
const Window = 4

// NewEngine creates a DMA engine bound to a station. The caller (the
// node kernel) routes arriving TypeDMA packets to HandleDMA.
func NewEngine(k *sim.Kernel, st *insertion.Station) *Engine {
	e := &Engine{ID: st.ID, K: k, St: st}
	e.rx = e.rxBuf[:0]
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
	// The caller may reuse data once Write returns, so what outlives the
	// call must be copied — and only that. The transfer is queued as a
	// window onto the caller's slice; a segment the pump below sends is
	// copied once, into its packet, and whatever is still unsent
	// afterwards moves into the channel's slab.
	checkChannel(ch)
	req := transfer(ch, dst, region, off, data, done)
	req.borrowed = true
	n := e.push(ch, req)
	e.pump()
	e.keep(ch)
	return n
}

// WriteShared is Write for bytes that never change again, such as a
// netcache snapshot: the engine queues data itself and copies none of
// it, however long the transfer waits, so one snapshot can stream to
// any number of joiners at once.
func (e *Engine) WriteShared(ch int, dst micropacket.NodeID, region uint8, off uint32, data []byte, done func()) int {
	// Issued from a done callback, this transfer would queue behind the
	// borrowed entries of a Write still on the stack; keep them first,
	// so that borrowed entries stay the tail of their queue.
	checkChannel(ch)
	e.keep(ch)
	n := e.push(ch, transfer(ch, dst, region, off, data, done))
	e.pump()
	return n
}

// WriteFramed is WriteShared for a transfer of head followed by data,
// such as a file behind the frame header its sender built: the segments
// are cut where they would be cut from the two joined in one slice.
// head, and the bytes of data that share its last segment, are copied
// into the channel's slab, so the caller may reuse head at once; the
// rest of data is queued uncopied and must not change until done runs,
// or until Abort forgets the transfer.
func (e *Engine) WriteFramed(ch int, dst micropacket.NodeID, region uint8, off uint32, head, data []byte, done func()) int {
	if len(head) == 0 {
		return e.WriteShared(ch, dst, region, off, data, done)
	}
	checkChannel(ch)
	e.keep(ch) // as in WriteShared
	// The seam runs to the first segment boundary at or past the end of
	// head, or to the end of the transfer; data queues from there.
	cut := min(len(data), (MaxSegment-len(head)%MaxSegment)%MaxSegment)
	slab := append(append(e.room(ch, len(head)+cut), head...), data[:cut]...)
	e.slabs[ch] = slab
	seam, rest := transfer(ch, dst, region, off, slab[len(slab)-len(head)-cut:], done), data[cut:]
	if len(rest) > 0 {
		seam.last, seam.done = false, nil
	}
	n := e.push(ch, seam)
	if len(rest) > 0 {
		n += e.push(ch, transfer(ch, dst, region, off+uint32(len(head)+cut), rest, done))
	}
	e.pump()
	return n
}

// checkChannel refuses a channel the hardware does not have.
func checkChannel(ch int) {
	if ch < 0 || ch >= NumChannels {
		panic("dma: channel out of range")
	}
}

// transfer is the queue entry of one whole transfer of data to
// (region, off) at dst on channel ch.
func transfer(ch int, dst micropacket.NodeID, region uint8, off uint32, data []byte, done func()) request {
	return request{
		dst:  dst,
		hdr:  micropacket.DMAHeader{Channel: uint8(ch), Region: region, Offset: off},
		data: data[:len(data):len(data)],
		last: true,
		done: done,
	}
}

// push appends req to channel ch's queue and returns its segments.
func (e *Engine) push(ch int, req request) int {
	n := req.segments()
	e.queues[ch].Push(req)
	e.QueueHighWater = max(e.QueueHighWater, e.depth(ch))
	return n
}

// slabFloor is the least a channel's slab holds: sixteen segments, so a
// channel that rarely drains does not start a slab per short message.
const slabFloor = 16 * MaxSegment

// room returns channel ch's slab if it has room for size more bytes,
// or else a new one. Bytes are appended behind those still queued,
// which nothing overwrites before the queue empties (pump rewinds the
// slab there); a replaced slab stays reachable until its last entry
// pops. (Packets carry their own payload, so nothing pins a slab
// beyond the queue.)
func (e *Engine) room(ch, size int) []byte {
	if slab := e.slabs[ch]; cap(slab)-len(slab) >= size {
		return slab
	}
	return make([]byte, 0, max(size, slabFloor))
}

// keep moves the unsent bytes of the Writes still borrowed at the tail
// of channel ch's queue into its slab. Borrowed entries are always a
// suffix of their queue: they belong to Writes still on the stack (this
// one, and any whose pump ran the done callback this one was called
// from), every Write leaves its channel with none, pushes go to the
// tail, and WriteShared and WriteFramed keep them before they push.
// How far a pump has sent them meanwhile — this call's or another's —
// does not matter: the mark and the cursor are per entry.
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
	// A kept entry starts at its first unsent byte.
	slab := e.room(ch, size)
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
// crash, so the first broadcast of each is adopted, not counted as a
// gap against the sequence heard before it.
func (e *Engine) ForgetSources() {
	for i := range e.rx {
		clear(e.rx[i].from)
	}
}

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
		if e.St.QueueLen() >= Window || !e.send(ch, req, end, final) {
			// Backpressure: retry shortly. The segment stays queued, so
			// nothing is lost and per-channel order is preserved.
			if !e.retry.Active() {
				e.retry.Reset(pumpInterval)
			}
			return
		}
		if req.dst == micropacket.Broadcast {
			e.txSeq[ch]++
		}
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
	if req.dst == micropacket.Broadcast {
		pkt.DMA.Seq = e.txSeq[ch]
	}
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
	if p.Dst == micropacket.Broadcast {
		e.checkSeq(p.Src, p.DMA.Channel, p.DMA.Seq)
	}
	if e.OnWrite != nil {
		e.OnWrite(p.Src, p.DMA, p.Data, p.Flags&micropacket.FlagLast != 0)
	}
}

// checkSeq counts a gap when a broadcast from src on channel ch is not
// the one expected next.
func (e *Engine) checkSeq(src micropacket.NodeID, ch, seq uint8) {
	i := 0
	for i < len(e.rx) && e.rx[i].ch != ch {
		i++
	}
	if i == len(e.rx) {
		e.rx = append(e.rx, rxChannel{ch: ch})
	}
	t := &e.rx[i]
	if int(src) >= len(t.from) {
		t.from = append(t.from, make([]rxSeq, int(src)+1-len(t.from))...)
	}
	rx := &t.from[src]
	if !rx.heard {
		// Adopt the stream at whatever sequence it is on: a node that
		// just assimilated or rebooted starts mid-stream by design (the
		// refresh fills in what it missed).
		rx.heard = true
	} else if rx.next != seq {
		e.Gaps++ // and resynchronize
		t.gaps++
	}
	rx.next = seq + 1
}

// ChannelGaps returns the sequence gaps counted in the broadcasts
// arriving on channel ch.
func (e *Engine) ChannelGaps(ch int) uint64 {
	for i := range e.rx {
		if int(e.rx[i].ch) == ch {
			return uint64(e.rx[i].gaps)
		}
	}
	return 0
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
