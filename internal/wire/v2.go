package wire

import (
	"encoding/binary"

	"repro/internal/micropacket"
)

// v2 widens node addresses to uint16: the control word grows to a full
// 8-byte block (two 32-bit words, keeping the word-oriented formats of
// slides 5–6) with little-endian src/dst pairs and two reserved zero
// bytes:
//
//	ctrl[0]   type<<4 | flags
//	ctrl[1]   tag
//	ctrl[2:4] src, little endian (0xFFFF broadcast)
//	ctrl[4:6] dst, little endian
//	ctrl[6:8] reserved, must be zero
//
// Everything after the control block — fixed payload, DMA control
// words, variable payload padding, CRC, delimiters — is identical to
// v1, so a v2 deframer is the v1 deframer with a wider first block.

// v2 wire sizes.
const (
	v2CtrlLen    = 8
	v2FixedWire  = sofLen + v2CtrlLen + micropacket.FixedPayload + crcLen + eofLen        // 28 bytes
	v2MinVarWire = sofLen + v2CtrlLen + dmaLen + crcLen + eofLen                          // DMA with 0 payload
	v2MaxVarWire = sofLen + v2CtrlLen + dmaLen + micropacket.MaxPayload + crcLen + eofLen // 92 bytes
)

type v2Codec struct{}

func (v2Codec) Version() Version { return V2 }

func (v2Codec) WireSize(t micropacket.Type, payloadLen int) int {
	return Size(V2, t, payloadLen)
}

func (c v2Codec) Encode(p *micropacket.Packet) ([]byte, error) { return c.AppendEncode(nil, p) }

func (v2Codec) AppendEncode(dst []byte, p *micropacket.Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var ctrl [v2CtrlLen]byte
	ctrl[0] = byte(p.Type)<<4 | byte(p.Flags&0xF)
	ctrl[1] = p.Tag
	binary.LittleEndian.PutUint16(ctrl[2:4], uint16(p.Src))
	binary.LittleEndian.PutUint16(ctrl[4:6], uint16(p.Dst))
	return appendFrame(dst, V2, p, ctrl[:])
}

func (v2Codec) Decode(buf []byte) (*micropacket.Packet, error) { return decode(V2, buf) }

func (v2Codec) decodeInto(buf []byte, p *micropacket.Packet) error {
	body, variable, err := openFrame(V2, buf, v2FixedWire)
	if err != nil {
		return err
	}
	if len(body) < v2CtrlLen {
		return ErrTruncated
	}
	if body[6] != 0 || body[7] != 0 {
		return ErrReserved
	}
	p.Type = micropacket.Type(body[0] >> 4)
	p.Flags = micropacket.Flags(body[0] & 0xF)
	p.Tag = body[1]
	p.Src = micropacket.NodeID(binary.LittleEndian.Uint16(body[2:4]))
	p.Dst = micropacket.NodeID(binary.LittleEndian.Uint16(body[4:6]))
	return decodePayload(p, body[v2CtrlLen:], variable)
}
