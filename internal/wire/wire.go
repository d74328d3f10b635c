// Package wire is AmpNet's versioned MicroPacket wire-format
// subsystem: it owns the frame layout, and a format version is a value
// that one switch on encode and one on decode key on. Frame layout
// used to live inside internal/micropacket with a single hard-coded
// format; versioning it is what lets the fabric scale past the
// one-byte address ceiling without silently changing a single bit of
// the historical encoding.
//
//	v1 — the seed format: one-byte node addresses (255 nodes max,
//	     0xFF broadcast). Byte-exact with the original encoder; the
//	     checked-in golden vectors pin every frame type.
//	v2 — uint16 little-endian node addresses (65535 nodes max,
//	     0xFFFF broadcast) in a widened 8-byte control block.
//
// The version travels in the SOF ordered set's format byte, next to
// the fixed/variable bit the original format already carried there
// (see the format-byte scheme below), so a receiver can dispatch a
// frame on its version from the first word — exactly how the
// hardware would key its deframer.
//
// Shared framing (both versions; reconstructed from slides 5–6 plus
// the FC-0/FC-1 substrate of slide 3):
//
//	SOF ordered set   4 bytes   K28.5 D21.5 D22.1 <format byte>
//	control block     4 (v1) or 8 (v2) bytes
//	[payload]         8 bytes fixed / DMA header + 0..64 padded
//	CRC-32            4 bytes   over the body (Castagnoli)
//	EOF ordered set   4 bytes   K28.5 D21.4 D21.3 D21.3
package wire

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/micropacket"
)

// Version identifies a wire-format version.
type Version uint8

// The wire-format versions. The zero Version means "auto":
// topology/options layers resolve it to the smallest version whose
// address space fits the fabric (see phys.Topology.WireVersion).
const (
	V1 Version = 1 // one-byte addresses; byte-exact seed format
	V2 Version = 2 // uint16 little-endian addresses
)

// Valid reports whether v names a format version.
func (v Version) Valid() bool { return v.MaxNodes() != 0 }

// String renders "v1" / "v2" ("auto" for the zero value).
func (v Version) String() string {
	if v == 0 {
		return "auto"
	}
	return fmt.Sprintf("v%d", uint8(v))
}

// MaxNodes returns the version's addressable node-count ceiling: node
// ids 0..MaxNodes-1, with the all-ones address reserved for broadcast.
func (v Version) MaxNodes() int {
	switch v {
	case V1:
		return 255
	case V2:
		return 65535
	default:
		return 0
	}
}

// Parse resolves a version name: "v1"/"1", "v2"/"2", or ""/"auto" for
// the unresolved zero Version.
func Parse(s string) (Version, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return 0, nil
	case "v1", "1":
		return V1, nil
	case "v2", "2":
		return V2, nil
	default:
		return 0, fmt.Errorf("wire: unknown wire-format version %q (want v1, v2 or auto)", s)
	}
}

// Versions lists the format versions in ascending order.
func Versions() []Version { return []Version{V1, V2} }

// Size returns the encoded frame size of a packet of type t with
// payloadLen variable bytes under version v (phys computes it per
// transmitted frame).
func Size(v Version, t micropacket.Type, payloadLen int) int {
	if !t.Variable() {
		if v == V2 {
			return v2FixedWire
		}
		return v1FixedWire
	}
	if v == V2 {
		return v2MinVarWire + pad4(payloadLen)
	}
	return v1MinVarWire + pad4(payloadLen)
}

// Encode serializes p under version v.
func Encode(v Version, p *micropacket.Packet) ([]byte, error) { return AppendEncode(nil, v, p) }

// Decode parses a frame of either version, dispatching on the
// SOF format byte. It returns the packet and the version it arrived
// under.
func Decode(buf []byte) (*micropacket.Packet, Version, error) {
	v, err := sniffVersion(buf)
	if err != nil {
		return nil, 0, err
	}
	p, err := decode(v, buf)
	return p, v, err
}

// DecodeInto is Decode writing the packet into p. Its Data keeps its
// storage when it has room, and gets a 64-byte buffer when it has not,
// so decoding into the same packet again allocates nothing. On error p
// holds no packet.
func DecodeInto(buf []byte, p *micropacket.Packet) (Version, error) {
	v, err := sniffVersion(buf)
	if err != nil {
		return 0, err
	}
	return v, decodeInto(v, buf, p)
}

// sniffVersion reads a frame's format version from its SOF format byte.
func sniffVersion(buf []byte) (Version, error) {
	if len(buf) < sofLen {
		return 0, ErrTruncated
	}
	v, _, err := sniffFormat(buf[3])
	if err != nil {
		return 0, err
	}
	if !v.Valid() {
		return 0, ErrBadSOF
	}
	return v, nil
}

// Errors shared by both versions.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrBadSOF    = errors.New("wire: bad SOF ordered set")
	ErrBadEOF    = errors.New("wire: bad EOF ordered set")
	ErrBadCRC    = errors.New("wire: CRC mismatch")
	ErrBadFormat = errors.New("wire: format byte does not match type")
	ErrReserved  = errors.New("wire: reserved control bytes not zero")
	// ErrAddrRange reports a node address too wide for the requested
	// format version (v1 carries one address byte).
	ErrAddrRange = errors.New("wire: node address does not fit format version (use wire v2 for >255 nodes)")
)
