// Package ampdc implements the AmpDC host services of the paper's
// software stack (slide 12): AmpSubscribe (publish/subscribe),
// AmpFiles (file transfer over DMA channels), and AmpThreads (remote
// procedure placement), all running over the AmpDK kernel and its
// registered-memory DMA channels.
//
// Slide 7's motivating picture — one node inserting a file stream while
// another inserts message streams onto the same segment — is exactly
// AmpFiles and AmpSubscribe running concurrently; experiment E3
// reproduces it with these services.
package ampdc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/ampdk"
	"repro/internal/dma"
	"repro/internal/micropacket"
)

// Service wire constants: DMA channels and pseudo-regions used by the
// services (cache regions are < 0x80; registered app regions above).
const (
	SubChannel   = 13
	FilesChannel = 12
	SubRegion    = 0xE0
	FilesRegion  = 0xF0

	TagThreadReq = ampdk.TagApp + 0x01
	TagThreadRep = ampdk.TagApp + 0x02
)

// Services bundles the AmpDC services on one node and owns the node's
// message/region demultiplexing for them.
type Services struct {
	Node    *ampdk.Node
	Sub     *Subscribe
	Files   *Files
	Threads *Threads

	// OnMessage receives application messages not claimed by AmpDC.
	OnMessage func(src micropacket.NodeID, tag uint8, payload [8]byte)
}

// New attaches the AmpDC services to a node.
func New(n *ampdk.Node) *Services {
	s := &Services{Node: n}
	s.Sub = newSubscribe(s)
	s.Files = newFiles(s)
	s.Threads = newThreads(s)
	n.SetRegionHandler(SubRegion, s.Sub.handleDMA)
	n.SetRegionHandler(FilesRegion, s.Files.handleDMA)
	prev := n.OnMessage
	n.OnMessage = func(src micropacket.NodeID, tag uint8, pl [8]byte) {
		switch tag {
		case TagThreadReq:
			s.Threads.handleReq(src, pl)
		case TagThreadRep:
			s.Threads.handleRep(src, pl)
		default:
			if s.OnMessage != nil {
				s.OnMessage(src, tag, pl)
			} else if prev != nil {
				prev(src, tag, pl)
			}
		}
	}
	return s
}

// --- AmpSubscribe ---

// Subscribe is topic-based publish/subscribe: published payloads are
// broadcast on a dedicated DMA channel and delivered to every
// subscriber on every node (including the publisher's own node).
type Subscribe struct {
	svc *Services
	// subs[topic] lists the topic's callbacks; indexed by topic and
	// grown on demand (every delivery looks its topic up here).
	subs [][]func(src micropacket.NodeID, data []byte)
	// asm reassembles multi-segment payloads per (source, topic), made
	// on its first entry; open counts the entries with a message half
	// assembled.
	asm  map[asmKey]*dma.Assembly
	open int

	// Published and Delivered count messages.
	Published uint64
	Delivered uint64
}

type asmKey struct {
	src   micropacket.NodeID
	topic uint8
}

func newSubscribe(svc *Services) *Subscribe {
	return &Subscribe{svc: svc}
}

// Subscribe registers cb for a topic. The slice cb receives is
// read-only and valid until the callback returns; copy to keep.
func (s *Subscribe) Subscribe(topic uint8, cb func(src micropacket.NodeID, data []byte)) {
	if int(topic) >= len(s.subs) {
		s.subs = append(s.subs, make([][]func(micropacket.NodeID, []byte), int(topic)+1-len(s.subs))...)
	}
	s.subs[topic] = append(s.subs[topic], cb)
}

// Publish broadcasts data on the topic; the caller may reuse data when
// it returns. Payloads of any length are segmented by the DMA engine;
// subscribers receive them reassembled. Local subscribers are delivered
// immediately (host loopback).
func (s *Subscribe) Publish(topic uint8, data []byte) {
	s.Published++
	// The DMA offset carries the topic in its high byte and the running
	// byte position in the low 24 bits, which is what segments
	// reassemble by: offset = topic<<24 | pos.
	s.svc.Node.DMA.Write(SubChannel, micropacket.Broadcast, SubRegion, uint32(topic)<<24, data, nil)
	s.deliver(micropacket.NodeID(s.svc.Node.Cfg.ID), topic, data)
}

func (s *Subscribe) handleDMA(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
	topic, pos := uint8(hdr.Offset>>24), int(hdr.Offset&0xFFFFFF)
	if s.open == 0 && last && pos == 0 {
		// A whole payload in one segment and nothing half-assembled: the
		// packet's bytes are the message, lent to the subscribers.
		s.deliver(src, topic, data)
		return
	}
	k := asmKey{src, topic}
	a := s.asm[k]
	if a == nil {
		if s.asm == nil {
			s.asm = map[asmKey]*dma.Assembly{}
		}
		a = new(dma.Assembly)
		s.asm[k] = a
	}
	was := a.Partial()
	msg, ok := a.Add(pos, data, last)
	if now := a.Partial(); now && !was {
		s.open++
	} else if was && !now {
		s.open--
	}
	if ok {
		s.deliver(src, topic, msg)
	}
}

func (s *Subscribe) deliver(src micropacket.NodeID, topic uint8, data []byte) {
	if int(topic) >= len(s.subs) {
		return
	}
	for _, cb := range s.subs[topic] {
		s.Delivered++
		cb(src, data)
	}
}

// --- AmpFiles ---

// Files transfers named byte blobs over a dedicated DMA channel with a
// trailing CRC-32 integrity check.
type Files struct {
	svc *Services
	// OnFile receives completed transfers. ok is false on a CRC or
	// framing failure (the transfer is delivered for diagnosis).
	OnFile func(src micropacket.NodeID, name string, data []byte, ok bool)

	asm map[micropacket.NodeID]fileAsm // made on the first multi-segment file

	// Sent/Received/Corrupt count transfers.
	Sent     uint64
	Received uint64
	Corrupt  uint64
}

func newFiles(svc *Services) *Files {
	return &Files{svc: svc}
}

const filesMagic = 0xF7

// maxPresize is the largest file whose receive buffer is made at once
// from the size its header claims; a larger claim grows the buffer as
// its segments arrive, so a corrupt header cannot reserve much memory.
const maxPresize = 16 << 20

// Send transfers a named file to dst. data is lent to the DMA engine,
// not copied: it must not change until done, if non-nil, runs, when
// the final segment has been queued to the MAC. (A crash forgets the
// transfer, runs no done and lets go of data.)
func (f *Files) Send(dst micropacket.NodeID, name string, data []byte, done func()) error {
	if len(name) > 255 {
		return fmt.Errorf("ampdc: file name too long")
	}
	// Frame: magic(1) nameLen(1) name size(4) crc(4), then the payload.
	// The engine copies the header, so it is built on the stack.
	var frame [10 + 255]byte
	head := append(frame[:0], filesMagic, byte(len(name)))
	head = append(head, name...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(data)))
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(data))
	f.Sent++
	f.svc.Node.DMA.WriteFramed(FilesChannel, dst, FilesRegion, 0, head, data, done)
	return nil
}

// fileAsm is a file arriving from one source. Its header is parsed once
// whole and kept apart, so the payload buffer is exactly the file's
// size: a 256 KiB file takes 32 whole 8 KiB pages, not 33.
type fileAsm struct {
	head      []byte // the header's bytes, kept only while it spans segments
	parsed    bool   // the header is whole
	valid     bool   // and it opens with the magic
	name      string
	size, crc uint32
	data      []byte
}

// busy reports whether a file is in progress.
func (a *fileAsm) busy() bool { return a.parsed || len(a.head) > 0 }

// headLen is how long the header that head starts will be: 2 bytes
// until the name length is known, then 10 + the name length.
func headLen(head []byte) int {
	if len(head) < 2 {
		return 2
	}
	return 10 + int(head[1])
}

// takeHeader takes the header's bytes from the front of data and returns
// the rest. A header one segment holds whole is parsed where it lies;
// one that spans segments is kept in head until it is whole. A valid
// header sizes the payload buffer once; a file whose header claims more
// than maxPresize grows it segment by segment.
func (a *fileAsm) takeHeader(data []byte) []byte {
	var h []byte
	if len(a.head) == 0 && len(data) >= headLen(data) {
		h, data = data[:headLen(data)], data[headLen(data):]
	} else {
		for len(data) > 0 && len(a.head) < headLen(a.head) {
			n := min(len(data), headLen(a.head)-len(a.head))
			a.head, data = append(a.head, data[:n]...), data[n:]
		}
		if len(a.head) < headLen(a.head) {
			return data
		}
		h, a.head = a.head, nil
	}
	a.parsed = true
	if nameLen, size, ok := fileHeader(h); ok {
		a.valid, a.name, a.size, a.crc = true, string(h[2:2+nameLen]), size, binary.LittleEndian.Uint32(h[6+nameLen:])
		if size <= maxPresize {
			a.data = make([]byte, 0, size)
		}
	}
	return data
}

func (f *Files) handleDMA(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
	a := f.asm[src]
	if hdr.Offset == 0 && a.busy() {
		// A segment at offset 0 starts a new file, so the one in
		// progress lost its last segment: it is delivered as corrupt.
		delete(f.asm, src)
		f.deliver(src, a, false)
		a = fileAsm{}
	}
	if !a.parsed {
		data = a.takeHeader(data)
	}
	a.data = append(a.data, data...)
	if !last {
		if f.asm == nil {
			f.asm = map[micropacket.NodeID]fileAsm{}
		}
		f.asm[src] = a
		return
	}
	delete(f.asm, src)
	f.deliver(src, a, true)
}

// deliver hands a received file to OnFile; whole is false for one
// whose last segment never came. A file without a valid header is
// delivered with no name and no data.
func (f *Files) deliver(src micropacket.NodeID, a fileAsm, whole bool) {
	f.Received++
	ok := whole && a.valid && uint32(len(a.data)) == a.size && crc32.ChecksumIEEE(a.data) == a.crc
	if !ok {
		f.Corrupt++
	}
	if !a.valid {
		a.data = nil
	}
	if f.OnFile != nil {
		f.OnFile(src, a.name, a.data, ok)
	}
}

// fileHeader reads the name length and payload size of a frame header;
// ok is false until head holds the whole header, and for one without
// the magic.
func fileHeader(head []byte) (nameLen int, size uint32, ok bool) {
	if len(head) < 10 || head[0] != filesMagic {
		return 0, 0, false
	}
	nameLen = int(head[1])
	if len(head) < 10+nameLen {
		return 0, 0, false
	}
	return nameLen, binary.LittleEndian.Uint32(head[2+nameLen:]), true
}

// --- AmpThreads ---

// Handler is a remotely invocable function: arg in, result out.
type Handler func(arg uint32) uint32

// Threads places procedure calls on remote nodes ("supports embedded
// multi-threaded application processes", slide 17): the callee runs the
// registered handler and returns the result.
type Threads struct {
	svc *Services
	// handlers and pending are made on their first write.
	handlers map[uint8]Handler
	pending  map[uint8]func(uint32, bool)
	nextReq  uint8

	// Calls and Served count outgoing and incoming invocations.
	Calls  uint64
	Served uint64
}

func newThreads(svc *Services) *Threads {
	return &Threads{svc: svc}
}

// Register installs fn as the handler for function id.
func (t *Threads) Register(fn uint8, h Handler) {
	if t.handlers == nil {
		t.handlers = map[uint8]Handler{}
	}
	t.handlers[fn] = h
}

// Call invokes function fn with arg on node dst. reply receives the
// result; ok=false means the callee had no such handler.
func (t *Threads) Call(dst micropacket.NodeID, fn uint8, arg uint32, reply func(result uint32, ok bool)) {
	t.Calls++
	req := t.nextReq
	t.nextReq++
	if t.pending == nil {
		t.pending = map[uint8]func(uint32, bool){}
	}
	t.pending[req] = reply
	var pl [8]byte
	pl[0] = fn
	pl[1] = req
	binary.LittleEndian.PutUint32(pl[2:6], arg)
	t.svc.Node.SendMessage(dst, TagThreadReq, pl[:])
}

func (t *Threads) handleReq(src micropacket.NodeID, pl [8]byte) {
	fn, req := pl[0], pl[1]
	arg := binary.LittleEndian.Uint32(pl[2:6])
	var out [8]byte
	out[0] = fn
	out[1] = req
	h, ok := t.handlers[fn]
	if ok {
		t.Served++
		binary.LittleEndian.PutUint32(out[2:6], h(arg))
		out[6] = 1
	}
	t.svc.Node.SendMessage(src, TagThreadRep, out[:])
}

func (t *Threads) handleRep(_ micropacket.NodeID, pl [8]byte) {
	req := pl[1]
	cb, ok := t.pending[req]
	if !ok {
		return
	}
	delete(t.pending, req)
	if cb != nil {
		cb(binary.LittleEndian.Uint32(pl[2:6]), pl[6] == 1)
	}
}
