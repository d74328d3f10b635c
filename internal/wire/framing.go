package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/enc8b10b"
	"repro/internal/micropacket"
)

// Ordered-set data bytes (after the K28.5 opener). Shared by every
// version: only the format byte varies.
const (
	sofByte1 = 0xB5 // D21.5
	sofByte2 = 0x36 // D22.1
	eofByte1 = 0x95 // D21.4
	eofByte2 = 0x75 // D21.3
	eofByte3 = 0x75 // D21.3
)

// The SOF format byte carries the fixed/variable bit and the format
// version in one octet, generalizing the seed encoding (0x0F fixed,
// 0xF0 variable) without moving a single v1 bit:
//
//	fixed    frames: low nibble 0xF, high nibble = version-1
//	variable frames: high nibble 0xF, low nibble = version-1
//
// v1 → 0x0F / 0xF0 (byte-exact with the seed format); v2 → 0x1F /
// 0xF1. 0xFF would be ambiguous and is rejected.
func formatByte(v Version, variable bool) byte {
	if variable {
		return 0xF0 | (byte(v) - 1)
	}
	return (byte(v)-1)<<4 | 0x0F
}

// sniffFormat inverts formatByte.
func sniffFormat(b byte) (v Version, variable bool, err error) {
	if b == 0xFF {
		return 0, false, ErrBadSOF
	}
	switch {
	case b&0x0F == 0x0F:
		return Version(b>>4) + 1, false, nil
	case b>>4 == 0xF:
		return Version(b&0x0F) + 1, true, nil
	default:
		return 0, false, ErrBadSOF
	}
}

// Shared wire sizes.
const (
	sofLen = 4
	crcLen = 4
	eofLen = 4
	dmaLen = 8 // DMA control words of the variable format
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func pad4(n int) int { return (n + 3) &^ 3 }

// AppendEncode serializes p under version v, appending the frame to
// dst: SOF, v's control block, the payload section both versions
// share, CRC and EOF. The frame is built in place — the CRC is taken
// over the body where it lies — so with room in dst it allocates
// nothing. It fails for an unknown version, an invalid packet, or a
// node address that does not fit v's address space.
func AppendEncode(dst []byte, v Version, p *micropacket.Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	size := Size(v, p.Type, len(p.Data))
	dst = slices.Grow(dst, size)
	start := len(dst)
	dst = append(dst, enc8b10b.K28_5, sofByte1, sofByte2, formatByte(v, p.Type.Variable()))
	var err error
	switch v {
	case V1:
		dst, err = appendV1Control(dst, p)
	case V2:
		dst = appendV2Control(dst, p)
	default:
		err = fmt.Errorf("wire: unknown wire-format version %d", uint8(v))
	}
	if err != nil {
		return nil, err
	}
	if p.Type.Variable() {
		dst = append(dst, p.DMA.Channel, p.DMA.Region, p.DMA.Length, p.DMA.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, p.DMA.Offset)
		dst = append(dst, p.Data...)
		for i := len(p.Data); i < pad4(len(p.Data)); i++ {
			dst = append(dst, 0)
		}
	} else {
		dst = append(dst, p.Payload[:]...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+sofLen:], castagnoli))
	dst = append(dst, enc8b10b.K28_5, eofByte1, eofByte2, eofByte3)
	if len(dst)-start != size {
		return nil, fmt.Errorf("wire: internal size error: %d != %d", len(dst)-start, size)
	}
	return dst, nil
}

// openFrame checks SOF/EOF/CRC for a frame claimed to be version v and
// returns the body (control block + payload section) and the variable
// flag from the format byte.
func openFrame(v Version, buf []byte, minWire int) (body []byte, variable bool, err error) {
	if len(buf) < minWire {
		return nil, false, ErrTruncated
	}
	if buf[0] != enc8b10b.K28_5 || buf[1] != sofByte1 || buf[2] != sofByte2 {
		return nil, false, ErrBadSOF
	}
	fv, variable, err := sniffFormat(buf[3])
	if err != nil {
		return nil, false, err
	}
	if fv != v {
		return nil, false, ErrBadSOF
	}
	end := len(buf)
	if buf[end-4] != enc8b10b.K28_5 || buf[end-3] != eofByte1 || buf[end-2] != eofByte2 || buf[end-1] != eofByte3 {
		return nil, false, ErrBadEOF
	}
	body = buf[sofLen : end-crcLen-eofLen]
	wantCRC := binary.LittleEndian.Uint32(buf[end-crcLen-eofLen : end-eofLen])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, false, ErrBadCRC
	}
	return body, variable, nil
}

// decodePayload parses the shared payload section (everything after
// the control block) into p, whose header fields the version's parser
// has filled in, enforcing the same structural rules for both versions.
func decodePayload(p *micropacket.Packet, rest []byte, variable bool) error {
	if !p.Type.Valid() {
		return micropacket.ErrBadType
	}
	if p.Type.Variable() != variable {
		return ErrBadFormat
	}
	p.Payload, p.DMA, p.Data = [micropacket.FixedPayload]byte{}, micropacket.DMAHeader{}, p.Data[:0]
	if variable {
		if len(rest) < dmaLen {
			return ErrTruncated
		}
		dma := micropacket.DMAHeader{
			Channel: rest[0], Region: rest[1], Length: rest[2], Seq: rest[3],
			Offset: binary.LittleEndian.Uint32(rest[4:8]),
		}
		payload := rest[dmaLen:]
		if int(dma.Length) > len(payload) {
			return micropacket.ErrLengthMism
		}
		if len(payload) != pad4(int(dma.Length)) {
			return micropacket.ErrLengthMism
		}
		// Padding must be zero: there is exactly one encoding per
		// packet per version, so decode-then-encode is the identity on
		// accepted frames.
		for _, b := range payload[dma.Length:] {
			if b != 0 {
				return ErrReserved
			}
		}
		if dma.Length > micropacket.MaxPayload {
			return micropacket.ErrTooLong
		}
		if cap(p.Data) < int(dma.Length) {
			p.Data = make([]byte, 0, micropacket.MaxPayload)
		}
		p.DMA, p.Data = dma, p.Data[:dma.Length]
		copy(p.Data, payload)
	} else {
		if len(rest) != micropacket.FixedPayload {
			return ErrTruncated
		}
		copy(p.Payload[:], rest)
	}
	return p.Validate()
}

// decodeInto parses a frame claimed to be version v into p.
func decodeInto(v Version, buf []byte, p *micropacket.Packet) error {
	switch v {
	case V1:
		return decodeV1(buf, p)
	case V2:
		return decodeV2(buf, p)
	}
	return ErrBadSOF
}

// decode parses a frame claimed to be version v into a packet of its
// own: one allocation, payload included (micropacket.NewDMA's).
func decode(v Version, buf []byte) (*micropacket.Packet, error) {
	var data [micropacket.MaxPayload]byte
	p := micropacket.Packet{Data: data[:0]}
	if err := decodeInto(v, buf, &p); err != nil {
		return nil, err
	}
	if p.Type.Variable() {
		q := micropacket.NewDMA(p.Src, p.Dst, p.DMA, p.Data)
		q.Flags, q.Tag = p.Flags, p.Tag
		return q, nil
	}
	return &micropacket.Packet{Type: p.Type, Flags: p.Flags, Src: p.Src, Dst: p.Dst, Tag: p.Tag, Payload: p.Payload}, nil
}

// EncodeSymbols serializes the packet all the way to FC-1 10-bit
// symbols under version v, using the supplied encoder (which carries
// link running disparity). The SOF and EOF K28.5 openers are emitted
// as control characters.
func EncodeSymbols(v Version, p *micropacket.Packet, enc *enc8b10b.Encoder) ([]enc8b10b.Symbol, error) {
	raw, err := AppendEncode(nil, v, p)
	if err != nil {
		return nil, err
	}
	return AppendSymbols(nil, raw, enc)
}

// AppendSymbols appends the line code of one encoded frame to dst: the
// second half of EncodeSymbols, for a caller that keeps both buffers.
func AppendSymbols(dst []enc8b10b.Symbol, frame []byte, enc *enc8b10b.Encoder) ([]enc8b10b.Symbol, error) {
	dst = slices.Grow(dst, len(frame))
	for i, b := range frame {
		control := b == enc8b10b.K28_5 && (i == 0 || i == len(frame)-eofLen)
		s, err := enc.Encode(b, control)
		if err != nil {
			return nil, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// DecodeSymbols reverses EncodeSymbols using the supplied decoder,
// dispatching the decoded bytes on the SOF format byte like Decode.
// The SOF and EOF ordered sets must open with a control (K) character
// and every other position must be a data character — byte-value
// equality is not enough, since e.g. D28.5 and the K28.5 comma share
// the byte value 0xBC but are distinct transmission characters.
func DecodeSymbols(syms []enc8b10b.Symbol, dec *enc8b10b.Decoder) (*micropacket.Packet, Version, error) {
	raw, err := AppendFrame(nil, syms, dec)
	if err != nil {
		return nil, 0, err
	}
	return Decode(raw)
}

// AppendFrame appends the frame bytes one frame's symbols decode to:
// the first half of DecodeSymbols, class checks included.
func AppendFrame(dst []byte, syms []enc8b10b.Symbol, dec *enc8b10b.Decoder) ([]byte, error) {
	dst = slices.Grow(dst, len(syms))
	for i, s := range syms {
		d, err := dec.Decode(s)
		if err != nil {
			return nil, fmt.Errorf("wire: symbol %d: %w", i, err)
		}
		wantControl := i == 0 || i == len(syms)-eofLen
		if d.Control != wantControl {
			return nil, fmt.Errorf("wire: symbol %d: control/data class violation", i)
		}
		dst = append(dst, d.Byte)
	}
	return dst, nil
}
