package wire

import "repro/internal/micropacket"

// v1 is the seed wire format, byte-exact with the original
// single-version encoder: a 4-byte control word {type<<4|flags, src,
// dst, tag} with one-byte node addresses and 0xFF broadcast. The
// golden vectors in testdata/golden_v1.txt were generated by that
// encoder and pin this layout forever.

// v1 wire sizes.
const (
	v1CtrlLen    = 4
	v1FixedWire  = sofLen + v1CtrlLen + micropacket.FixedPayload + crcLen + eofLen        // 24 bytes
	v1MinVarWire = sofLen + v1CtrlLen + dmaLen + crcLen + eofLen                          // DMA with 0 payload
	v1MaxVarWire = sofLen + v1CtrlLen + dmaLen + micropacket.MaxPayload + crcLen + eofLen // 88 bytes
)

// v1Broadcast is the one-byte all-nodes address on the v1 wire; it
// maps to the in-memory micropacket.Broadcast (0xFFFF) on decode.
const v1Broadcast = 0xFF

// v1Addr narrows an in-memory address to the v1 wire byte.
func v1Addr(id micropacket.NodeID) (byte, bool) {
	if id == micropacket.Broadcast {
		return v1Broadcast, true
	}
	if id >= v1Broadcast {
		return 0, false
	}
	return byte(id), true
}

// appendV1Control appends p's v1 control block to dst. It fails if a
// node address does not fit one byte.
func appendV1Control(dst []byte, p *micropacket.Packet) ([]byte, error) {
	src, okSrc := v1Addr(p.Src)
	to, okDst := v1Addr(p.Dst)
	if !okSrc || !okDst {
		return nil, ErrAddrRange
	}
	return append(dst, byte(p.Type)<<4|byte(p.Flags&0xF), src, to, p.Tag), nil
}

// decodeV1 parses a v1 frame into p.
func decodeV1(buf []byte, p *micropacket.Packet) error {
	body, variable, err := openFrame(V1, buf, v1FixedWire)
	if err != nil {
		return err
	}
	if len(body) < v1CtrlLen {
		return ErrTruncated
	}
	p.Type = micropacket.Type(body[0] >> 4)
	p.Flags = micropacket.Flags(body[0] & 0xF)
	p.Src, p.Dst, p.Tag = v1Widen(body[1]), v1Widen(body[2]), body[3]
	return decodePayload(p, body[v1CtrlLen:], variable)
}

// v1Widen maps a v1 wire byte to the in-memory address space.
func v1Widen(b byte) micropacket.NodeID {
	if b == v1Broadcast {
		return micropacket.Broadcast
	}
	return micropacket.NodeID(b)
}
