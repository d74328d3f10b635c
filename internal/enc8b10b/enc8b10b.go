// Package enc8b10b implements the IBM (Widmer–Franaszek) 8b/10b line code
// used by Fibre Channel FC-1, which AmpNet adopts for its gigabit links
// (paper, slide 3: "FC-1 Encode / Decode").
//
// The codec is complete: both sub-block tables (5b/6b and 3b/4b), running
// disparity tracking, the D.x.A7 alternate encoding that prevents runs of
// five, and the twelve valid control (K) characters. Symbols are 10-bit
// values laid out abcdei_fghj with 'a' in the most significant bit, i.e.
// in transmission order when the symbol is sent MSB-first.
package enc8b10b

import (
	"fmt"
	"math/bits"

	"repro/internal/detmap"
)

// Symbol is one encoded 10-bit code group (only the low 10 bits are used).
type Symbol uint16

// Disparity is the running disparity of the encoded stream: -1 or +1.
type Disparity int8

// Valid disparity values. A link always starts at DispNeg, per the
// 8b/10b convention.
const (
	DispNeg Disparity = -1
	DispPos Disparity = +1
)

// Control characters (K codes) by conventional name. The byte value of
// K.x.y is y<<5 | x, the same packing as data bytes.
const (
	K28_0 byte = 0x1C // 000_11100
	K28_1 byte = 0x3C
	K28_2 byte = 0x5C
	K28_3 byte = 0x7C
	K28_4 byte = 0x9C
	K28_5 byte = 0xBC // the comma character used for alignment
	K28_6 byte = 0xDC
	K28_7 byte = 0xFC
	K23_7 byte = 0xF7
	K27_7 byte = 0xFB
	K29_7 byte = 0xFD
	K30_7 byte = 0xFE
)

// enc6 holds the 5b/6b encodings: column neg used when the running
// disparity entering the block is -1, pos when +1. Bits are abcdei with
// a as bit 5.
type enc6 struct{ neg, pos uint8 }

// dataTable6 indexes by the low five input bits (EDCBA).
var dataTable6 = [32]enc6{
	{0b100111, 0b011000}, // D0
	{0b011101, 0b100010}, // D1
	{0b101101, 0b010010}, // D2
	{0b110001, 0b110001}, // D3
	{0b110101, 0b001010}, // D4
	{0b101001, 0b101001}, // D5
	{0b011001, 0b011001}, // D6
	{0b111000, 0b000111}, // D7
	{0b111001, 0b000110}, // D8
	{0b100101, 0b100101}, // D9
	{0b010101, 0b010101}, // D10
	{0b110100, 0b110100}, // D11
	{0b001101, 0b001101}, // D12
	{0b101100, 0b101100}, // D13
	{0b011100, 0b011100}, // D14
	{0b010111, 0b101000}, // D15
	{0b011011, 0b100100}, // D16
	{0b100011, 0b100011}, // D17
	{0b010011, 0b010011}, // D18
	{0b110010, 0b110010}, // D19
	{0b001011, 0b001011}, // D20
	{0b101010, 0b101010}, // D21
	{0b011010, 0b011010}, // D22
	{0b111010, 0b000101}, // D23
	{0b110011, 0b001100}, // D24
	{0b100110, 0b100110}, // D25
	{0b010110, 0b010110}, // D26
	{0b110110, 0b001001}, // D27
	{0b001110, 0b001110}, // D28
	{0b101110, 0b010001}, // D29
	{0b011110, 0b100001}, // D30
	{0b101011, 0b010100}, // D31
}

// enc4 holds a 3b/4b encoding pair; bits are fghj with f as bit 3.
type enc4 struct{ neg, pos uint8 }

// dataTable4 indexes by the high three input bits (HGF). Entry 7 is the
// primary encoding; the A7 alternate is handled separately.
var dataTable4 = [8]enc4{
	{0b1011, 0b0100}, // D.x.0
	{0b1001, 0b1001}, // D.x.1
	{0b0101, 0b0101}, // D.x.2
	{0b1100, 0b0011}, // D.x.3
	{0b1101, 0b0010}, // D.x.4
	{0b1010, 0b1010}, // D.x.5
	{0b0110, 0b0110}, // D.x.6
	{0b1110, 0b0001}, // D.x.P7 (primary)
}

// alt7 is the D.x.A7 alternate, used to avoid five consecutive identical
// bits at the sub-block boundary.
var alt7 = enc4{0b0111, 0b1000}

// k6 maps the five K-capable 5b values to their 6b encodings.
var k6 = map[uint8]enc6{
	23: {0b111010, 0b000101},
	27: {0b110110, 0b001001},
	28: {0b001111, 0b110000},
	29: {0b101110, 0b010001},
	30: {0b011110, 0b100001},
}

// kTable4 indexes by y for K.x.y control characters.
var kTable4 = [8]enc4{
	{0b1011, 0b0100}, // K.x.0
	{0b0110, 0b1001}, // K.x.1
	{0b1010, 0b0101}, // K.x.2
	{0b1100, 0b0011}, // K.x.3
	{0b1101, 0b0010}, // K.x.4
	{0b0101, 0b1010}, // K.x.5
	{0b1001, 0b0110}, // K.x.6
	{0b0111, 0b1000}, // K.x.7
}

// validK reports whether byte b names one of the twelve legal control
// characters.
func validK(b byte) bool {
	x, y := b&0x1F, b>>5
	if x == 28 {
		return true
	}
	if y == 7 {
		switch x {
		case 23, 27, 29, 30:
			return true
		}
	}
	return false
}

// blockDisp returns the disparity update for a sub-block with the given
// number of ones out of width bits: -1 means more zeros, +1 more ones,
// 0 balanced.
func blockDisp(onesN, width int) int {
	return onesN*2 - width
}

// useAlt7 reports whether the A7 alternate must replace the primary
// D.x.7 encoding: when the disparity at the 6b/4b boundary is negative
// and x ∈ {17,18,20}, or positive and x ∈ {11,13,14}. (These are the
// cases where the primary would create a run of five.)
func useAlt7(x uint8, boundary Disparity) bool {
	if boundary == DispNeg {
		return x == 17 || x == 18 || x == 20
	}
	return x == 11 || x == 13 || x == 14
}

// Encoder converts bytes (data or control) to 10-bit symbols, tracking
// running disparity across calls as a real serializer does.
type Encoder struct {
	rd Disparity
}

// NewEncoder returns an encoder with initial running disparity -1.
func NewEncoder() *Encoder { return &Encoder{rd: DispNeg} }

// Disparity returns the current running disparity.
func (e *Encoder) Disparity() Disparity { return e.rd }

// Reset restores the initial (negative) running disparity.
func (e *Encoder) Reset() { e.rd = DispNeg }

// Encode encodes one byte. If control is true, b must be one of the
// twelve valid K characters; otherwise an error is returned and the
// encoder state is unchanged.
func (e *Encoder) Encode(b byte, control bool) (Symbol, error) {
	sym, rd, err := encodeAt(b, control, e.rd)
	if err != nil {
		return 0, err
	}
	e.rd = rd
	return sym, nil
}

// EncodeData encodes a data byte (never fails).
func (e *Encoder) EncodeData(b byte) Symbol {
	s, _ := e.Encode(b, false)
	return s
}

// encodeAt is the pure encoding function: byte + entry disparity →
// symbol + exit disparity.
func encodeAt(b byte, control bool, rd Disparity) (Symbol, Disparity, error) {
	x, y := b&0x1F, b>>5
	var s6, s4 uint8
	if control {
		if !validK(b) {
			return 0, rd, fmt.Errorf("enc8b10b: 0x%02X is not a valid control character", b)
		}
		e6 := k6[x]
		if rd == DispNeg {
			s6 = e6.neg
		} else {
			s6 = e6.pos
		}
		boundary := updateDisp(rd, blockDisp(bits.OnesCount16(uint16(s6)), 6))
		e4 := kTable4[y]
		if boundary == DispNeg {
			s4 = e4.neg
		} else {
			s4 = e4.pos
		}
		exit := updateDisp(boundary, blockDisp(bits.OnesCount16(uint16(s4)), 4))
		return Symbol(uint16(s6)<<4 | uint16(s4)), exit, nil
	}
	e6 := dataTable6[x]
	if rd == DispNeg {
		s6 = e6.neg
	} else {
		s6 = e6.pos
	}
	boundary := updateDisp(rd, blockDisp(bits.OnesCount16(uint16(s6)), 6))
	e4 := dataTable4[y]
	if y == 7 && useAlt7(x, boundary) {
		e4 = alt7
	}
	if boundary == DispNeg {
		s4 = e4.neg
	} else {
		s4 = e4.pos
	}
	exit := updateDisp(boundary, blockDisp(bits.OnesCount16(uint16(s4)), 4))
	return Symbol(uint16(s6)<<4 | uint16(s4)), exit, nil
}

// updateDisp applies a sub-block disparity to the running disparity.
// Legal 8b/10b sub-blocks have disparity -2, 0, or +2.
func updateDisp(rd Disparity, d int) Disparity {
	switch d {
	case 0:
		return rd
	case 2:
		return DispPos
	case -2:
		return DispNeg
	default:
		// Unreachable for table-driven encodings; decode uses
		// checked paths instead.
		panic("enc8b10b: illegal sub-block disparity")
	}
}

// Decoded is the result of decoding one symbol.
type Decoded struct {
	Byte    byte
	Control bool // true if the symbol is a K character
}

// Decoder converts 10-bit symbols back to bytes, tracking running
// disparity and detecting code violations.
type Decoder struct {
	rd Disparity
	// Violations counts disparity or invalid-symbol errors observed.
	Violations uint64
}

// NewDecoder returns a decoder with initial running disparity -1.
func NewDecoder() *Decoder { return &Decoder{rd: DispNeg} }

// Disparity returns the decoder's current running disparity.
func (d *Decoder) Disparity() Disparity { return d.rd }

// Reset restores the initial disparity and clears the violation count.
func (d *Decoder) Reset() { d.rd = DispNeg; d.Violations = 0 }

// reverse maps, built once at init from the encode tables.
var (
	rev6data = map[uint8]uint8{} // 6b pattern → x (data)
	rev6k    = map[uint8]uint8{} // 6b pattern → x (control-capable)
	rev4data = map[uint8]uint8{} // 4b pattern → y, primaries only
	rev4alt  = map[uint8]bool{}  // 4b pattern is an A7 alternate
	rev4kNeg = map[uint8]uint8{} // K 4b pattern (neg column) → y
	rev4kPos = map[uint8]uint8{} // K 4b pattern (pos column) → y
)

func init() {
	for x, e := range dataTable6 {
		rev6data[e.neg] = uint8(x)
		rev6data[e.pos] = uint8(x)
	}
	for _, x := range detmap.SortedKeys(k6) {
		rev6k[k6[x].neg] = x
		rev6k[k6[x].pos] = x
	}
	for y, e := range dataTable4 {
		rev4data[e.neg] = uint8(y)
		rev4data[e.pos] = uint8(y)
	}
	rev4alt[alt7.neg] = true
	rev4alt[alt7.pos] = true
	for y, e := range kTable4 {
		rev4kNeg[e.neg] = uint8(y)
		rev4kPos[e.pos] = uint8(y)
	}
	for i, rd := range [2]Disparity{DispNeg, DispPos} {
		for s := range decodeTable[i] {
			d := Decoder{rd: rd}
			if dec, err := d.decodeRules(Symbol(s)); err == nil {
				decodeTable[i][s] = decodeEntry{b: dec.Byte, ctl: dec.Control, exit: d.rd, viol: uint8(d.Violations)}
			}
		}
	}
}

// decodeEntry is decodeRules' outcome for one symbol from one entry
// disparity: the decoded byte and control bit, the exit disparity and
// the violations the symbol adds (up to 4). The zero entry (exit 0)
// marks a symbol the rules reject.
type decodeEntry struct {
	b    byte
	ctl  bool
	exit Disparity
	viol uint8
}

// decodeTable[i][s] is the entry for the 10-bit symbol s from entry
// disparity DispNeg (i = 0) or DispPos (i = 1), built once at init.
var decodeTable [2][1024]decodeEntry

// Decode decodes one 10-bit symbol. Decoding is disparity-aware: K28.1
// and K28.6 (among others) share bit patterns across disparity columns
// and are separated by the tracked running disparity. Invalid symbols
// return an error and count as violations; the disparity is then
// resynchronized from the symbol's own bit count so the decoder can
// continue with subsequent symbols.
//
// A symbol the rules accept is one lookup in decodeTable; a rejected one
// re-runs the rules, so its error, violations and resync are theirs. So
// does a zero Decoder, whose disparity 0 has no table column.
func (d *Decoder) Decode(sym Symbol) (Decoded, error) {
	if d.rd == DispNeg || d.rd == DispPos {
		if e := decodeTable[(d.rd+1)/2][sym&0x3FF]; e.exit != 0 {
			d.rd = e.exit
			d.Violations += uint64(e.viol)
			return Decoded{Byte: e.b, Control: e.ctl}, nil
		}
	}
	return d.decodeRules(sym)
}

// decodeRules is Decode worked out from the sub-block tables; init runs
// it once per (disparity, symbol) pair to fill decodeTable.
func (d *Decoder) decodeRules(sym Symbol) (Decoded, error) {
	s6 := uint8(sym>>4) & 0x3F
	s4 := uint8(sym) & 0x0F

	n6 := bits.OnesCount16(uint16(s6))
	bd6 := blockDisp(n6, 6)
	if bd6 != 0 && bd6 != 2 && bd6 != -2 {
		d.Violations++
		d.resync(sym)
		return Decoded{}, fmt.Errorf("enc8b10b: invalid 6b sub-block %06b", s6)
	}
	// A non-neutral sub-block must absorb the current disparity: a
	// +2 block is only legal when RD is -1, and vice versa.
	if (bd6 == 2 && d.rd != DispNeg) || (bd6 == -2 && d.rd != DispPos) {
		d.Violations++
	}
	boundary := updateDisp(d.rd, bd6)

	n4 := bits.OnesCount16(uint16(s4))
	bd4 := blockDisp(n4, 4)
	if bd4 != 0 && bd4 != 2 && bd4 != -2 {
		d.Violations++
		d.resync(sym)
		return Decoded{}, fmt.Errorf("enc8b10b: invalid 4b sub-block %04b", s4)
	}
	if (bd4 == 2 && boundary != DispNeg) || (bd4 == -2 && boundary != DispPos) {
		d.Violations++
	}
	exit := updateDisp(boundary, bd4)

	// Control characters: K28.y via the unique K28 6b pattern; the
	// other four Ks only exist as K.x.7 with the 0111/1000 4b codes
	// and 6b patterns whose D.x counterparts never use A7.
	if x, ok := rev6k[s6]; ok {
		if x == 28 {
			var y uint8
			var found bool
			if boundary == DispNeg {
				y, found = rev4kNeg[s4]
			} else {
				y, found = rev4kPos[s4]
			}
			if !found {
				// Tolerate the off-column code (disparity error
				// already counted above in most cases).
				if yy, ok2 := rev4kNeg[s4]; ok2 {
					y, found = yy, true
				} else if yy, ok2 := rev4kPos[s4]; ok2 {
					y, found = yy, true
				}
				d.Violations++
			}
			if found {
				d.rd = exit
				return Decoded{Byte: y<<5 | 28, Control: true}, nil
			}
		} else if rev4alt[s4] {
			d.rd = exit
			return Decoded{Byte: 7<<5 | x, Control: true}, nil
		}
	}

	x, okx := rev6data[s6]
	if !okx {
		d.Violations++
		d.resync(sym)
		return Decoded{}, fmt.Errorf("enc8b10b: unassigned 6b sub-block %06b", s6)
	}
	var y uint8
	if yy, ok := rev4data[s4]; ok {
		y = yy
	} else if rev4alt[s4] {
		y = 7
	} else {
		d.Violations++
		d.resync(sym)
		return Decoded{}, fmt.Errorf("enc8b10b: unassigned 4b sub-block %04b", s4)
	}
	d.rd = exit
	return Decoded{Byte: y<<5 | x, Control: false}, nil
}

// resync re-anchors the running disparity after a code violation using
// the symbol's overall bit balance, the conventional recovery rule.
func (d *Decoder) resync(sym Symbol) {
	if bits.OnesCount16(uint16(sym)&0x3FF) >= 5 {
		d.rd = DispPos
	} else {
		d.rd = DispNeg
	}
}
