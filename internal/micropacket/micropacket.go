// Package micropacket implements AmpNet's MicroPacket link layer
// (paper, slides 3–6).
//
// The paper defines six MicroPacket types (slide 4):
//
//	Type        Length    Mandatory
//	Rostering   Fixed     Yes
//	Data        Fixed     Yes
//	DMA         Variable  Yes
//	Interrupt   Fixed     Yes
//	Diagnostic  Fixed     Yes
//	D64 Atomic  Fixed     No
//
// and two on-wire formats. The fixed format (slide 5) is three 32-bit
// words — one control word and eight payload bytes — bracketed by
// start/end delimiters. The variable format (slide 6) prepends two DMA
// control words and carries up to 64 payload bytes (words 3..18).
//
// The slides do not give bit-level field assignments inside the control
// words, so this package documents its reconstruction: control word =
// {type|flags, source, destination, tag}; DMA control words = {channel,
// region, length, sequence} and a 32-bit region offset. Delimiters are
// modeled as Fibre-Channel-style four-character ordered sets opened by
// the K28.5 comma (the paper sits MicroPackets directly on FC-0/FC-1),
// and a CRC-32 trails the payload words, standing in for the "A"
// (acknowledge/validity) delimiter field of slide 5.
//
// This package owns the in-memory Packet model and its structural
// rules; the on-wire frame layout is versioned and lives in
// internal/wire (v1 with one-byte addresses — the original format —
// and v2 with uint16 addresses for fabrics past 255 nodes).
package micropacket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Type identifies a MicroPacket type (slide 4).
type Type uint8

// The six MicroPacket types, in the order of the paper's table.
const (
	TypeRostering Type = iota
	TypeData
	TypeDMA
	TypeInterrupt
	TypeDiagnostic
	TypeD64Atomic
	numTypes
)

// String returns the paper's name for the type.
func (t Type) String() string {
	switch t {
	case TypeRostering:
		return "Rostering"
	case TypeData:
		return "Data"
	case TypeDMA:
		return "DMA"
	case TypeInterrupt:
		return "Interrupt"
	case TypeDiagnostic:
		return "Diagnostic"
	case TypeD64Atomic:
		return "D64 Atomic"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the six defined types.
func (t Type) Valid() bool { return t < numTypes }

// Variable reports whether the type uses the variable format. Only DMA
// MicroPackets are variable (slide 4).
func (t Type) Variable() bool { return t == TypeDMA }

// Mandatory reports whether a conforming implementation must support the
// type. Everything except D64 Atomic is mandatory (slide 4).
func (t Type) Mandatory() bool { return t != TypeD64Atomic }

// Info describes one row of the slide-4 type table; see Types.
type Info struct {
	Type      Type
	Name      string
	Variable  bool
	Mandatory bool
}

// Types returns the slide-4 table in order, for conformance reporting.
func Types() []Info {
	out := make([]Info, 0, numTypes)
	for t := Type(0); t < numTypes; t++ {
		out = append(out, Info{Type: t, Name: t.String(), Variable: t.Variable(), Mandatory: t.Mandatory()})
	}
	return out
}

// NodeID addresses a node on the AmpNet network. The broadcast address
// targets every node on the logical ring. In-memory addresses are
// uint16; how many bits travel on the wire — one byte under format v1,
// two under v2 — is the codec's business (internal/wire), which also
// maps Broadcast to the version's all-ones wire address.
type NodeID uint16

// Broadcast is the all-nodes destination.
const Broadcast NodeID = 0xFFFF

// Flags is the four-bit flag nibble of control byte 0.
type Flags uint8

// Flag bits. FlagOp* values overlay the flag nibble for D64 Atomic
// packets, encoding the atomic operation (see OpOf).
const (
	FlagAck  Flags = 1 << 0 // delivery acknowledgement requested/carried
	FlagPrio Flags = 1 << 1 // high priority (Interrupt class service)
	FlagLast Flags = 1 << 2 // final packet of a multi-packet transfer
	FlagErr  Flags = 1 << 3 // diagnostic: error indication
)

// AtomicOp is the D64 Atomic operation, carried in the flag nibble of a
// TypeD64Atomic packet.
type AtomicOp uint8

// D64 atomic operations. TestAndSet returns the previous value and sets
// the word to the operand; FetchAdd returns the previous value and adds
// the operand; Write stores unconditionally; Read fetches.
const (
	OpRead AtomicOp = iota
	OpWrite
	OpTestAndSet
	OpFetchAdd
	OpReply // response carrying the previous/fetched value
	numOps
)

// String names the atomic op.
func (o AtomicOp) String() string {
	switch o {
	case OpRead:
		return "Read"
	case OpWrite:
		return "Write"
	case OpTestAndSet:
		return "TestAndSet"
	case OpFetchAdd:
		return "FetchAdd"
	case OpReply:
		return "Reply"
	default:
		return fmt.Sprintf("AtomicOp(%d)", uint8(o))
	}
}

// Valid reports whether the op is defined.
func (o AtomicOp) Valid() bool { return o < numOps }

// DMAHeader is the pair of DMA control words present in variable-format
// packets (slide 6, words 1–2): which of the sixteen channels, which
// registered memory region, the byte offset within it, the number of
// valid payload bytes, and a per-channel sequence number.
type DMAHeader struct {
	Channel uint8  // 0..15: the multiplexed DMA channel
	Region  uint8  // registered memory region identifier
	Length  uint8  // valid payload bytes, 0..64
	Seq     uint8  // per-channel sequence number
	Offset  uint32 // byte offset within the region
}

// Limits from the slide formats.
const (
	FixedPayload = 8  // payload bytes in the fixed format (words 1–2)
	MaxPayload   = 64 // payload bytes in the variable format (words 3–18)
	MaxChannels  = 16 // DMA channels per node (slide 11)
)

// Packet is one MicroPacket. Fixed-format types carry Payload; the DMA
// type carries DMA + Data.
type Packet struct {
	Type  Type
	Flags Flags
	Src   NodeID
	Dst   NodeID // Broadcast for all-nodes delivery
	Tag   uint8  // protocol-defined: sequence, semaphore id, roster wave…

	Payload [FixedPayload]byte // fixed-format payload (slide 5)

	// class and home are the pool marker (see Pool): the packet's size
	// class and whether it is free, and the pool that built it. Zero for
	// a packet no pool built.
	class uint8

	DMA  DMAHeader // variable format only (slide 6)
	Data []byte    // variable payload, len 0..64

	home *Pool
}

// Errors returned by Validate and Decode.
var (
	ErrBadType    = errors.New("micropacket: invalid type")
	ErrTooLong    = errors.New("micropacket: variable payload exceeds 64 bytes")
	ErrLengthMism = errors.New("micropacket: DMA length does not match data")
	ErrBadChannel = errors.New("micropacket: DMA channel out of range")
	ErrBadOp      = errors.New("micropacket: invalid D64 atomic op")
)

// Validate checks structural invariants prior to encoding.
func (p *Packet) Validate() error {
	if !p.Type.Valid() {
		return ErrBadType
	}
	if p.Type.Variable() {
		if len(p.Data) > MaxPayload {
			return ErrTooLong
		}
		if int(p.DMA.Length) != len(p.Data) {
			return ErrLengthMism
		}
		if p.DMA.Channel >= MaxChannels {
			return ErrBadChannel
		}
	} else if len(p.Data) != 0 {
		return ErrLengthMism
	}
	if p.Type == TypeD64Atomic && !p.Op().Valid() {
		return ErrBadOp
	}
	return nil
}

// IsBroadcast reports whether the packet targets every node.
func (p *Packet) IsBroadcast() bool { return p.Dst == Broadcast }

// Op returns the atomic operation of a D64 Atomic packet (stored in the
// flag nibble).
func (p *Packet) Op() AtomicOp { return AtomicOp(p.Flags) & 0xF }

// SetOp stores the atomic operation in the flag nibble.
func (p *Packet) SetOp(op AtomicOp) { p.Flags = Flags(op) & 0xF }

// Word64 returns the fixed payload as a little-endian 64-bit value, the
// natural view for D64 Atomic packets.
func (p *Packet) Word64() uint64 {
	return binary.LittleEndian.Uint64(p.Payload[:8])
}

// SetWord64 stores v into the fixed payload, little-endian.
func (p *Packet) SetWord64(v uint64) {
	binary.LittleEndian.PutUint64(p.Payload[:8], v)
}

// Equal reports whether p and q carry the same header fields and the
// same payload bytes. The pool marker is not compared.
func (p *Packet) Equal(q *Packet) bool {
	return p.Type == q.Type && p.Flags == q.Flags && p.Src == q.Src && p.Dst == q.Dst &&
		p.Tag == q.Tag && p.Payload == q.Payload && p.DMA == q.DMA && bytes.Equal(p.Data, q.Data)
}

// Clone returns a deep copy (Data is copied, not aliased) that no pool
// owns. netsem clones an atomic it forwards to the semaphore's home.
func (p *Packet) Clone() *Packet {
	q := *p
	q.class, q.home = 0, nil
	if p.Data != nil {
		q.Data = make([]byte, len(p.Data))
		copy(q.Data, p.Data)
	}
	return &q
}

// String renders a compact description for traces.
func (p *Packet) String() string {
	dst := fmt.Sprintf("%d", p.Dst)
	if p.IsBroadcast() {
		dst = "*"
	}
	if p.Type == TypeD64Atomic {
		return fmt.Sprintf("[%s %s src=%d dst=%s tag=%d val=%d]", p.Type, p.Op(), p.Src, dst, p.Tag, p.Word64())
	}
	if p.Type.Variable() {
		return fmt.Sprintf("[%s src=%d dst=%s ch=%d reg=%d off=%d len=%d]",
			p.Type, p.Src, dst, p.DMA.Channel, p.DMA.Region, p.DMA.Offset, p.DMA.Length)
	}
	return fmt.Sprintf("[%s src=%d dst=%s tag=%d]", p.Type, p.Src, dst, p.Tag)
}

// NewData builds a fixed Data packet with up to 8 payload bytes.
func NewData(src, dst NodeID, tag uint8, payload []byte) *Packet {
	p := &Packet{Type: TypeData, Src: src, Dst: dst, Tag: tag}
	copy(p.Payload[:], payload)
	return p
}

// smallPayload is the payload NewDMA's smaller allocation holds.
const smallPayload = 16

// NewDMA builds a variable DMA packet. data longer than MaxPayload
// panics; callers segment at the DMA layer.
func NewDMA(src, dst NodeID, hdr DMAHeader, data []byte) *Packet {
	p := dmaBox(dmaClass(data))
	n := len(data)
	p.setDMA(src, dst, hdr, p.Data[:n:n], data)
	return p
}

// dmaClass is the size class of a DMA packet carrying data.
func dmaClass(data []byte) uint8 {
	switch {
	case len(data) > MaxPayload:
		panic("micropacket: DMA payload over 64 bytes")
	case len(data) <= smallPayload:
		return classSmall
	default:
		return classFull
	}
}

// dmaBox allocates a DMA packet of class c whose Data is its whole
// payload buffer. Packet and payload are one allocation, in one of two
// sizes: a header-only payload (a pub/sub message with no body is 16
// bytes; 97 % of steady-ring-16's DMA packets, 13 % of
// middleware-mix-8's) does not carry the full 64-byte tail — with it,
// steady-ring-16 allocates 12 % more bytes and runs 6 % longer.
func dmaBox(c uint8) *Packet {
	if c == classSmall {
		b := new(struct {
			Packet
			buf [smallPayload]byte
		})
		b.Data = b.buf[:]
		return &b.Packet
	}
	b := new(struct {
		Packet
		buf [MaxPayload]byte
	})
	b.Data = b.buf[:]
	return &b.Packet
}

// setDMA makes p a DMA packet carrying a copy of data in buf, which has
// len(data) bytes; the pool marker is left as it was.
func (p *Packet) setDMA(src, dst NodeID, hdr DMAHeader, buf, data []byte) {
	hdr.Length = uint8(len(data))
	class, home := p.class, p.home
	*p = Packet{Type: TypeDMA, Src: src, Dst: dst, DMA: hdr, Data: buf, class: class, home: home}
	copy(buf, data)
}

// NewAtomic builds a D64 Atomic packet for semaphore sem with the given
// operation and operand.
func NewAtomic(src, dst NodeID, sem uint8, op AtomicOp, operand uint64) *Packet {
	p := &Packet{Type: TypeD64Atomic, Src: src, Dst: dst, Tag: sem}
	p.SetOp(op)
	p.SetWord64(operand)
	return p
}

// NewRostering builds a Rostering packet; the 8 payload bytes carry an
// Announcement.
func NewRostering(src NodeID, tag uint8, payload [FixedPayload]byte) *Packet {
	return &Packet{Type: TypeRostering, Src: src, Dst: Broadcast, Tag: tag, Payload: payload}
}

// NewInterrupt builds an Interrupt packet (cross-node doorbell).
func NewInterrupt(src, dst NodeID, vector uint8) *Packet {
	return &Packet{Type: TypeInterrupt, Src: src, Dst: dst, Tag: vector, Flags: FlagPrio}
}

// NewDiagnostic builds a Diagnostic packet carrying a probe code.
func NewDiagnostic(src, dst NodeID, code uint8) *Packet {
	return &Packet{Type: TypeDiagnostic, Src: src, Dst: dst, Tag: code}
}

// Announcement is a rostering link-state announcement, the fixed
// payload of a Rostering MicroPacket. Agents flood it (internal/
// rostering); switches read its wave key to deduplicate floods
// (internal/phys). Its layout is
//
//	payload[0..1] = origin node id, little endian
//	payload[2]    = the origin's live-switch mask
//	payload[3..6] = rostering epoch, little endian
//	payload[7]    = the origin's announcement sequence
//
// The origin is as wide as a NodeID: the link-state database and the
// switches' flood keys are built on it, so a one-byte origin would alias
// announcements on fabrics past 255 nodes. The frame format's version
// travels in the SOF format byte (internal/wire).
type Announcement struct {
	Origin NodeID
	Mask   uint8
	Epoch  uint32
	Seq    uint8
}

// Payload lays the announcement out as a Rostering packet's payload.
func (a Announcement) Payload() (pl [FixedPayload]byte) {
	binary.LittleEndian.PutUint16(pl[0:2], uint16(a.Origin))
	pl[2] = a.Mask
	binary.LittleEndian.PutUint32(pl[3:7], a.Epoch)
	pl[7] = a.Seq
	return pl
}

// Announcement reads the packet's payload as a rostering announcement.
func (p *Packet) Announcement() Announcement {
	return Announcement{
		Origin: NodeID(binary.LittleEndian.Uint16(p.Payload[0:2])),
		Mask:   p.Payload[2],
		Epoch:  binary.LittleEndian.Uint32(p.Payload[3:7]),
		Seq:    p.Payload[7],
	}
}
