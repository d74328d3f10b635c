package wire

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/enc8b10b"
	mp "repro/internal/micropacket"
)

// FuzzDecode: whatever the wire carries — either format version or
// garbage — Decode either returns a valid packet or an error, never a
// panic and never an invalid packet. A frame that decodes must
// re-encode byte-identically under its reported version (the codec is
// canonical: there is exactly one encoding per packet per version), and
// DecodeInto over a packet still holding another frame agrees with
// Decode.
func FuzzDecode(f *testing.F) {
	for _, g := range goldenPackets() {
		for _, v := range Versions() {
			if raw, err := Encode(v, g.pkt); err == nil {
				f.Add(raw)
			}
		}
	}
	f.Add([]byte{enc8b10b.K28_5, sofByte1, sofByte2, 0x1F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, v, err := Decode(raw)
		into := mp.NewDMA(7, 9, mp.DMAHeader{Channel: 3, Seq: 5}, bytes.Repeat([]byte{0xEE}, mp.MaxPayload))
		into.Flags, into.Tag, into.Payload = 0xF, 0x77, [mp.FixedPayload]byte{1, 2, 3, 4, 5, 6, 7, 8}
		if iv, ierr := DecodeInto(raw, into); iv != v || (ierr == nil) != (err == nil) || err == nil && !into.Equal(p) {
			t.Fatalf("DecodeInto = %v %v %v, Decode = %v %v %v", into, iv, ierr, p, v, err)
		}
		if err != nil {
			if p != nil {
				t.Fatal("error with non-nil packet")
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded invalid packet: %v", err)
		}
		re, err := encodeBothWays(t, v, p)
		if err != nil {
			t.Fatalf("decoded packet does not re-encode under %v: %v", v, err)
		}
		if string(re) != string(raw) {
			t.Fatalf("non-canonical frame accepted under %v:\n in  %x\n out %x", v, raw, re)
		}
		// The line code both ways as well: symbols appended behind a
		// dirty prefix equal EncodeSymbols', and decode to the frame.
		syms, err := EncodeSymbols(v, p, enc8b10b.NewEncoder())
		if err != nil {
			t.Fatalf("accepted frame does not line-code: %v", err)
		}
		dirty := slices.Repeat([]enc8b10b.Symbol{0x2AA}, 300)[:2]
		appended, err := AppendSymbols(dirty, raw, enc8b10b.NewEncoder())
		if err != nil || !slices.Equal(appended[2:], syms) || appended[0] != 0x2AA || appended[1] != 0x2AA {
			t.Fatalf("AppendSymbols into a dirty buffer differs from EncodeSymbols (err %v)", err)
		}
		back, err := AppendFrame(bytes.Repeat([]byte{0x5A}, 400)[:1], syms, enc8b10b.NewDecoder())
		if err != nil || back[0] != 0x5A || string(back[1:]) != string(raw) {
			t.Fatalf("AppendFrame into a dirty buffer does not return the frame (err %v)", err)
		}
		if q, qv, err := DecodeSymbols(syms, enc8b10b.NewDecoder()); err != nil || qv != v || q.String() != p.String() {
			t.Fatalf("DecodeSymbols of an accepted frame: %v %v %v", q, qv, err)
		}
	})
}

// TestDecodeArbitraryBytesNeverPanics is the quick-check form of the
// fuzz property, so the guarantee is exercised on every plain `go
// test` run, not only under -fuzz.
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		p, _, err := Decode(raw)
		if err != nil {
			return p == nil
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMutatedFramesNeverInvalid: start from valid frames of both
// versions and mutate bytes; any accepted decode must still validate.
// (Mutations of the SOF/EOF/padding bytes are outside the CRC, so
// acceptance is possible — but the packet contents are CRC-protected.)
func TestDecodeMutatedFramesNeverInvalid(t *testing.T) {
	base := []*mp.Packet{
		mp.NewData(1, 2, 3, []byte{1, 2, 3}),
		mp.NewDMA(4, 5, mp.DMAHeader{Channel: 6, Region: 7, Offset: 8}, []byte{9, 10, 11, 12, 13}),
		mp.NewAtomic(1, 2, 3, mp.OpTestAndSet, 99),
	}
	rnd := uint64(12345)
	next := func() uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for _, v := range Versions() {
		for _, p := range base {
			raw, err := Encode(v, p)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5000; trial++ {
				mut := append([]byte{}, raw...)
				nMuts := int(next()%3) + 1
				for m := 0; m < nMuts; m++ {
					mut[next()%uint64(len(mut))] ^= byte(next())
				}
				q, _, err := Decode(mut)
				if err != nil {
					continue
				}
				if q.Validate() != nil {
					t.Fatalf("%v: accepted invalid packet from mutation: %v", v, q)
				}
				// If the body survived (CRC matched), contents must be
				// byte-identical to the original.
				if q.Type == p.Type && q.Src == p.Src && q.Dst == p.Dst {
					continue
				}
				t.Fatalf("%v: CRC accepted altered contents: %v vs %v", v, q, p)
			}
		}
	}
}

// TestSymbolDecodeArbitrarySymbolsNeverPanics covers the FC-1 path.
func TestSymbolDecodeArbitrarySymbolsNeverPanics(t *testing.T) {
	f := func(words []uint16) bool {
		syms := make([]enc8b10b.Symbol, len(words))
		for i, w := range words {
			syms[i] = enc8b10b.Symbol(w & 0x3FF)
		}
		p, _, err := DecodeSymbols(syms, enc8b10b.NewDecoder())
		if err != nil {
			return p == nil
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
