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

// appendV2Control appends p's v2 control block to dst.
func appendV2Control(dst []byte, p *micropacket.Packet) []byte {
	dst = append(dst, byte(p.Type)<<4|byte(p.Flags&0xF), p.Tag)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Src))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Dst))
	return append(dst, 0, 0)
}

// decodeV2 parses a v2 frame into p.
func decodeV2(buf []byte, p *micropacket.Packet) error {
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
