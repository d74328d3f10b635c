package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/enc8b10b"
	mp "repro/internal/micropacket"
)

// putCRC re-seals a hand-mutated frame body so a test can aim past the
// CRC check at a specific structural rule.
func putCRC(dst, body []byte) {
	binary.LittleEndian.PutUint32(dst, crc32.Checksum(body, castagnoli))
}

func TestVersionParse(t *testing.T) {
	cases := []struct {
		in   string
		want Version
		err  bool
	}{
		{"v1", V1, false}, {"1", V1, false}, {"V2", V2, false}, {"2", V2, false},
		{"", 0, false}, {"auto", 0, false}, {"v3", 0, true}, {"x", 0, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("Parse(%q) = %v, %v; want %v (err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if V1.MaxNodes() != 255 || V2.MaxNodes() != 65535 {
		t.Fatalf("MaxNodes: v1=%d v2=%d", V1.MaxNodes(), V2.MaxNodes())
	}
	if V1.String() != "v1" || V2.String() != "v2" || Version(0).String() != "auto" {
		t.Fatal("Version.String broken")
	}
	if len(Versions()) != 2 {
		t.Fatalf("Versions() = %v", Versions())
	}
	if _, err := Encode(0, mp.NewData(1, 2, 0, nil)); err == nil {
		t.Fatal("Encode(auto) must fail")
	}
}

func TestFormatByteScheme(t *testing.T) {
	// v1 must keep the seed values bit for bit; v2 must carry its
	// version next to the fixed/variable marker nibble.
	cases := []struct {
		v        Version
		variable bool
		want     byte
	}{
		{V1, false, 0x0F}, {V1, true, 0xF0},
		{V2, false, 0x1F}, {V2, true, 0xF1},
	}
	for _, c := range cases {
		if got := formatByte(c.v, c.variable); got != c.want {
			t.Errorf("formatByte(%v, %v) = %#02x, want %#02x", c.v, c.variable, got, c.want)
		}
		v, variable, err := sniffFormat(c.want)
		if err != nil || v != c.v || variable != c.variable {
			t.Errorf("sniffFormat(%#02x) = %v, %v, %v", c.want, v, variable, err)
		}
	}
	for _, bad := range []byte{0x00, 0xFF, 0x12, 0x0E, 0xE0} {
		if _, _, err := sniffFormat(bad); err == nil {
			t.Errorf("sniffFormat(%#02x) accepted", bad)
		}
	}
}

func TestWireSizes(t *testing.T) {
	// v1 is the slide-5/6 framing: 24-byte fixed, 88-byte max variable.
	if v1FixedWire != 24 || v1MaxVarWire != 88 {
		t.Fatalf("v1 sizes: fixed=%d maxvar=%d", v1FixedWire, v1MaxVarWire)
	}
	// v2's control block grows by one 32-bit word.
	if v2FixedWire != 28 || v2MaxVarWire != 92 {
		t.Fatalf("v2 sizes: fixed=%d maxvar=%d", v2FixedWire, v2MaxVarWire)
	}
	for _, v := range Versions() {
		// Padding to word boundary.
		if a, b := Size(v, mp.TypeDMA, 1), Size(v, mp.TypeDMA, 4); a != b {
			t.Errorf("%v: Size(DMA,1)=%d != Size(DMA,4)=%d", v, a, b)
		}
		if a, b := Size(v, mp.TypeDMA, 0), Size(v, mp.TypeData, 0); a != b {
			t.Errorf("%v: empty DMA (%d) != fixed (%d)", v, a, b)
		}
	}
}

func TestEncodeDecodeFixedBothVersions(t *testing.T) {
	for _, v := range Versions() {
		p := mp.NewData(3, 7, 42, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		p.Flags = mp.FlagAck | mp.FlagLast
		raw, err := Encode(v, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != Size(v, mp.TypeData, 0) {
			t.Fatalf("%v: encoded %d bytes", v, len(raw))
		}
		q, err := decode(v, raw)
		if err != nil {
			t.Fatal(err)
		}
		if q.Type != mp.TypeData || q.Src != 3 || q.Dst != 7 || q.Tag != 42 || q.Flags != (mp.FlagAck|mp.FlagLast) || q.Payload != p.Payload {
			t.Fatalf("%v: round trip mismatch: %+v", v, q)
		}
		// The sniffing decode must agree and report the version.
		r, got, err := Decode(raw)
		if err != nil || got != v || r.Src != 3 {
			t.Fatalf("sniffing decode: %v %v %v", r, got, err)
		}
	}
}

func TestEncodeDecodeVariableAllLengths(t *testing.T) {
	for _, v := range Versions() {
		for n := 0; n <= mp.MaxPayload; n++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 7)
			}
			p := mp.NewDMA(1, 2, mp.DMAHeader{Channel: 5, Region: 9, Seq: 33, Offset: 0xDEADBEEF}, data)
			raw, err := Encode(v, p)
			if err != nil {
				t.Fatalf("%v n=%d: %v", v, n, err)
			}
			if len(raw) != Size(v, mp.TypeDMA, n) {
				t.Fatalf("%v n=%d: size %d, want %d", v, n, len(raw), Size(v, mp.TypeDMA, n))
			}
			q, err := decode(v, raw)
			if err != nil {
				t.Fatalf("%v n=%d decode: %v", v, n, err)
			}
			if q.DMA != p.DMA || !bytes.Equal(q.Data, data) {
				t.Fatalf("%v n=%d payload mismatch", v, n)
			}
		}
	}
}

func TestBroadcastMapping(t *testing.T) {
	// In-memory Broadcast is 0xFFFF; it must map to each version's
	// all-ones wire address and back.
	for _, v := range Versions() {
		p := mp.NewData(1, mp.Broadcast, 0, nil)
		raw, err := Encode(v, p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := decode(v, raw)
		if err != nil {
			t.Fatal(err)
		}
		if !q.IsBroadcast() {
			t.Fatalf("%v: broadcast lost in round trip (dst=%d)", v, q.Dst)
		}
	}
}

func TestV1RejectsWideAddresses(t *testing.T) {
	for _, p := range []*mp.Packet{
		mp.NewData(300, 1, 0, nil),
		mp.NewData(1, 300, 0, nil),
		mp.NewData(0xFF, 1, 0, nil), // 0xFF aliases the v1 broadcast byte
	} {
		if _, err := Encode(V1, p); err != ErrAddrRange {
			t.Fatalf("v1 Encode(src=%d dst=%d) err = %v, want ErrAddrRange", p.Src, p.Dst, err)
		}
		if _, err := Encode(V2, p); err != nil {
			t.Fatalf("v2 must carry wide addresses: %v", err)
		}
	}
}

func TestV2WideAddressRoundTrip(t *testing.T) {
	p := mp.NewData(1023, 65534, 7, []byte{1})
	raw, err := Encode(V2, p)
	if err != nil {
		t.Fatal(err)
	}
	q, v, err := Decode(raw)
	if err != nil || v != V2 {
		t.Fatal(err)
	}
	if q.Src != 1023 || q.Dst != 65534 {
		t.Fatalf("wide addresses aliased: %+v", q)
	}
}

func TestVersionsDoNotCrossDecode(t *testing.T) {
	p := mp.NewData(1, 2, 3, nil)
	for _, v := range Versions() {
		raw, err := Encode(v, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range Versions() {
			if other == v {
				continue
			}
			if _, err := decode(other, raw); err == nil {
				t.Fatalf("%v decode accepted a %v frame", other, v)
			}
		}
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	for _, v := range Versions() {
		p := mp.NewDMA(1, 2, mp.DMAHeader{Channel: 1, Offset: 128}, []byte{10, 20, 30, 40, 50})
		raw, _ := Encode(v, p)
		// Flip every body byte one at a time; all must be caught.
		for i := 4; i < len(raw)-8; i++ {
			mut := make([]byte, len(raw))
			copy(mut, raw)
			mut[i] ^= 0x40
			if _, err := decode(v, mut); err == nil {
				t.Fatalf("%v: corruption at byte %d undetected", v, i)
			}
		}
	}
}

func TestDecodeRejectsBadFraming(t *testing.T) {
	for _, v := range Versions() {
		p := mp.NewData(1, 2, 0, []byte{1})
		raw, _ := Encode(v, p)

		short := raw[:10]
		if _, err := decode(v, short); err != ErrTruncated {
			t.Fatalf("%v short frame: %v", v, err)
		}

		badSOF := append([]byte{}, raw...)
		badSOF[0] = 0x00
		if _, err := decode(v, badSOF); err != ErrBadSOF {
			t.Fatalf("%v bad SOF: %v", v, err)
		}

		badEOF := append([]byte{}, raw...)
		badEOF[len(badEOF)-1] ^= 0xFF
		if _, err := decode(v, badEOF); err != ErrBadEOF {
			t.Fatalf("%v bad EOF: %v", v, err)
		}

		badFmt := append([]byte{}, raw...)
		badFmt[3] = formatByte(v, true) // claims variable, carries fixed body
		if _, err := decode(v, badFmt); err == nil {
			t.Fatalf("%v: format mismatch accepted", v)
		}
	}
}

func TestV2RejectsNonzeroReserved(t *testing.T) {
	p := mp.NewData(1, 2, 0, nil)
	raw, _ := Encode(V2, p)
	// Patch a reserved control byte and re-seal the CRC so only the
	// reserved-byte rule can reject it.
	raw[sofLen+6] = 1
	body := raw[sofLen : len(raw)-crcLen-eofLen]
	var crc [4]byte
	putCRC(crc[:], body)
	copy(raw[len(raw)-crcLen-eofLen:len(raw)-eofLen], crc[:])
	if _, _, err := Decode(raw); err != ErrReserved {
		t.Fatalf("nonzero reserved bytes accepted: %v", err)
	}
}

// TestRoundTripQuickProperty is the version-agnostic round-trip
// property, run for every version.
func TestRoundTripQuickProperty(t *testing.T) {
	for _, v := range Versions() {
		f := func(src, dst uint16, tag uint8, flags uint8, payload [8]byte, varData []byte, ch uint8, region uint8, off uint32) bool {
			s, d := mp.NodeID(src), mp.NodeID(dst)
			if v == V1 {
				// Confine addresses to the version's space; the
				// out-of-range rejection has its own test.
				s, d = s%255, d%255
			}
			fp := mp.Packet{Type: mp.TypeData, Flags: mp.Flags(flags & 0xF), Src: s, Dst: d, Tag: tag, Payload: payload}
			raw, err := Encode(v, &fp)
			if err != nil {
				return false
			}
			got, err := decode(v, raw)
			if err != nil || got.Type != fp.Type || got.Flags != fp.Flags ||
				got.Src != fp.Src || got.Dst != fp.Dst || got.Tag != fp.Tag ||
				got.Payload != fp.Payload || len(got.Data) != 0 {
				return false
			}
			// Variable packet.
			if len(varData) > mp.MaxPayload {
				varData = varData[:mp.MaxPayload]
			}
			vp := mp.NewDMA(s, d, mp.DMAHeader{Channel: ch % 16, Region: region, Offset: off}, varData)
			raw, err = Encode(v, vp)
			if err != nil {
				return false
			}
			gv, err := decode(v, raw)
			if err != nil {
				return false
			}
			return gv.DMA == vp.DMA && bytes.Equal(gv.Data, vp.Data) && gv.Src == s && gv.Dst == d
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestSymbolRoundTripBothVersions(t *testing.T) {
	for _, v := range Versions() {
		enc := enc8b10b.NewEncoder()
		dec := enc8b10b.NewDecoder()
		wideDst := mp.NodeID(2)
		if v == V2 {
			wideDst = 999
		}
		pkts := []*mp.Packet{
			mp.NewData(1, wideDst, 3, []byte{0xFF, 0x00, 0xAA}),
			mp.NewDMA(2, mp.Broadcast, mp.DMAHeader{Channel: 7, Region: 1, Offset: 4096}, bytes.Repeat([]byte{0x5A}, 64)),
			mp.NewAtomic(3, 4, 200, mp.OpTestAndSet, 1),
			mp.NewInterrupt(5, 6, 13),
			mp.NewDiagnostic(7, 8, 0xEE),
			mp.NewRostering(9, 1, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		}
		for _, p := range pkts {
			syms, err := EncodeSymbols(v, p, enc)
			if err != nil {
				t.Fatalf("%v %v: %v", v, p, err)
			}
			q, got, err := DecodeSymbols(syms, dec)
			if err != nil || got != v {
				t.Fatalf("%v %v: decode: %v (v=%v)", v, p, err, got)
			}
			if q.Type != p.Type || q.Src != p.Src || q.Dst != p.Dst || q.Tag != p.Tag {
				t.Fatalf("%v: symbol round trip header mismatch: %v → %v", v, p, q)
			}
			if !bytes.Equal(q.Data, p.Data) || q.Payload != p.Payload {
				t.Fatalf("%v: symbol round trip payload mismatch for %v", v, p)
			}
		}
		if dec.Violations != 0 {
			t.Fatalf("%v: %d 8b/10b violations on clean stream", v, dec.Violations)
		}
	}
}

// isComma reports whether a symbol's first seven bits are an 8b/10b
// comma (0011111 or 1100000), the pattern receivers align on.
func isComma(sym enc8b10b.Symbol) bool {
	first7 := (uint16(sym) >> 3) & 0x7F
	return first7 == 0b0011111 || first7 == 0b1100000
}

func TestSymbolStreamStartsWithComma(t *testing.T) {
	for _, v := range Versions() {
		syms, err := EncodeSymbols(v, mp.NewData(1, 2, 0, nil), enc8b10b.NewEncoder())
		if err != nil {
			t.Fatal(err)
		}
		if !isComma(syms[0]) {
			t.Fatalf("%v: frame does not open with a comma symbol (alignment would fail)", v)
		}
	}
}
