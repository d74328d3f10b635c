package enc8b10b

import (
	"bytes"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
)

// decodeGolden holds one line per (entry disparity, 10-bit symbol): what
// Decode returns for it and what it leaves behind; encodeGolden one line
// per (entry disparity, data byte): the symbol Encode returns and the
// exit disparity. Regenerate after an intentional change to the decoder
// or the encoder with
//
//	go test ./internal/enc8b10b -run 'TestDecodeTable|TestEncodeTable' -update
var (
	decodeGolden = filepath.Join("testdata", "decode.golden")
	encodeGolden = filepath.Join("testdata", "encode.golden")
	updateGolden = flag.Bool("update", false, "rewrite "+decodeGolden+" and "+encodeGolden)
)

// checkGolden compares got with the golden file path line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, test string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/enc8b10b -run %s -update` to create it)", err, test)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines coded, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i, bad := 0, 0; i < len(gotLines) && bad < 10; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s:%d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
			bad++
		}
	}
}

// decodeLine decodes sym from entry disparity rd on a fresh decoder and
// prints the outcome as one golden line under the label lbl: decoded
// byte, control bit, exit disparity, violations added and error text.
func decodeLine(rd Disparity, lbl, sym Symbol) string {
	d := &Decoder{rd: rd}
	dec, err := d.Decode(sym)
	msg := "ok"
	if err != nil {
		msg = err.Error()
	}
	ctl := 0
	if dec.Control {
		ctl = 1
	}
	return fmt.Sprintf("%+d %03x %02x %d %+d %d %s", rd, lbl, dec.Byte, ctl, d.rd, d.Violations, msg)
}

// TestDecodeTable checks Decode on every (disparity, symbol) pair
// against the committed golden, checks that bits above bit 9 are
// ignored, and that decoding a valid symbol allocates nothing.
func TestDecodeTable(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# rd sym byte ctl exit violations error\n")
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for s := Symbol(0); s < 1024; s++ {
			line := decodeLine(rd, s, s)
			for _, hi := range []Symbol{0x0400, 0x8000, 0xFC00} {
				if high := decodeLine(rd, s, s|hi); high != line {
					t.Fatalf("high bits %#04x change the decode:\n got  %s\n want %s", hi, high, line)
				}
			}
			got.WriteString(line + "\n")
		}
	}
	checkGolden(t, decodeGolden, "TestDecodeTable", got.Bytes())

	d := NewDecoder()
	for _, sym := range []Symbol{0b0011111010, 0b1001110100, 0b1110100001} { // K28.5, D0.0, D23.7
		if got := alloctest.Count(100, func() {
			d.Reset()
			if _, err := d.Decode(sym); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("100 Decode(%010b) calls allocate %d times, want 0", sym, got)
		}
	}
}

// TestDecodeTableMatchesRules: the table path and the rules it was built
// from agree on every uint16 input from both disparities, and from a zero
// Decoder's — byte, class, error text, exit disparity and violations.
func TestDecodeTableMatchesRules(t *testing.T) {
	for _, rd := range []Disparity{DispNeg, DispPos, 0} {
		for s := 0; s <= 0xFFFF; s++ {
			fast, slow := &Decoder{rd: rd}, &Decoder{rd: rd}
			got, gerr := fast.Decode(Symbol(s))
			want, werr := slow.decodeRules(Symbol(s))
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) || *fast != *slow {
				t.Fatalf("rd=%+d sym=%#04x: table %+v %v %+v, rules %+v %v %+v", rd, s, got, gerr, *fast, want, werr, *slow)
			}
		}
	}
}

// TestEncodeTable checks Encode on every (disparity, data byte) pair
// against the committed golden, the oracle a table encoder must match,
// and that encoding a byte allocates nothing.
func TestEncodeTable(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# rd byte sym exit\n")
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for b := 0; b < 256; b++ {
			e := &Encoder{rd: rd}
			sym, err := e.Encode(byte(b), false)
			if err != nil {
				t.Fatalf("rd=%+d byte %#02x: %v", rd, b, err)
			}
			fmt.Fprintf(&got, "%+d %02x %03x %+d\n", rd, b, sym, e.rd)
		}
	}
	checkGolden(t, encodeGolden, "TestEncodeTable", got.Bytes())

	e := NewEncoder()
	for _, b := range []byte{0x00, 0xB5, 0xF1} { // D0.0, D21.5, D17.7
		if got := alloctest.Count(100, func() { e.EncodeData(b) }); got != 0 {
			t.Errorf("100 EncodeData(%#02x) calls allocate %d times, want 0", b, got)
		}
	}
}

// TestRoundTripAllBytesBothDisparities encodes and decodes every data
// byte from both starting disparities.
func TestRoundTripAllBytesBothDisparities(t *testing.T) {
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for b := 0; b < 256; b++ {
			sym, exit, err := encodeAt(byte(b), false, rd)
			if err != nil {
				t.Fatalf("encode D 0x%02X rd=%d: %v", b, rd, err)
			}
			d := &Decoder{rd: rd}
			dec, err := d.Decode(sym)
			if err != nil {
				t.Fatalf("decode D 0x%02X rd=%d sym=%010b: %v", b, rd, sym, err)
			}
			if dec.Control {
				t.Fatalf("data byte 0x%02X decoded as control", b)
			}
			if dec.Byte != byte(b) {
				t.Fatalf("round trip 0x%02X rd=%d → 0x%02X", b, rd, dec.Byte)
			}
			if d.rd != exit {
				t.Fatalf("decoder disparity %d != encoder exit %d for 0x%02X", d.rd, exit, b)
			}
			if d.Violations != 0 {
				t.Fatalf("false violation on legal symbol for 0x%02X rd=%d", b, rd)
			}
		}
	}
}

// TestRoundTripControls covers all twelve K characters from both
// disparities.
func TestRoundTripControls(t *testing.T) {
	ks := []byte{K28_0, K28_1, K28_2, K28_3, K28_4, K28_5, K28_6, K28_7, K23_7, K27_7, K29_7, K30_7}
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for _, k := range ks {
			sym, _, err := encodeAt(k, true, rd)
			if err != nil {
				t.Fatalf("encode K 0x%02X: %v", k, err)
			}
			d := &Decoder{rd: rd}
			dec, err := d.Decode(sym)
			if err != nil {
				t.Fatalf("decode K 0x%02X rd=%d: %v", k, rd, err)
			}
			if !dec.Control {
				t.Fatalf("K 0x%02X decoded as data 0x%02X", k, dec.Byte)
			}
			if dec.Byte != k {
				t.Fatalf("K round trip 0x%02X → 0x%02X", k, dec.Byte)
			}
			if d.Violations != 0 {
				t.Fatalf("false violation for K 0x%02X rd=%d", k, rd)
			}
		}
	}
}

// TestInvalidControlRejected verifies Encode(control=true) rejects bytes
// that are not K characters.
func TestInvalidControlRejected(t *testing.T) {
	e := NewEncoder()
	for b := 0; b < 256; b++ {
		_, err := e.Encode(byte(b), true)
		if validK(byte(b)) && err != nil {
			t.Fatalf("valid K 0x%02X rejected: %v", b, err)
		}
		if !validK(byte(b)) && err == nil {
			t.Fatalf("invalid K 0x%02X accepted", b)
		}
	}
}

// TestKnownVectors checks famous encodings against published tables.
func TestKnownVectors(t *testing.T) {
	cases := []struct {
		b       byte
		control bool
		rd      Disparity
		want    Symbol
	}{
		// K28.5 is THE canonical vector.
		{K28_5, true, DispNeg, 0b0011111010},
		{K28_5, true, DispPos, 0b1100000101},
		// D0.0
		{0x00, false, DispNeg, 0b1001110100},
		{0x00, false, DispPos, 0b0110001011},
		// D21.5 (part of the FC idle primitive), neutral both ways.
		{0xB5, false, DispNeg, 0b1010101010},
		{0xB5, false, DispPos, 0b1010101010},
		// D23.7: 6b flips disparity, so the pos-column P7 follows.
		{0xF7, false, DispNeg, 0b1110100001},
		// K23.7 distinct from D23.7.
		{K23_7, true, DispNeg, 0b1110101000},
		// D17.7 uses A7 at negative boundary disparity.
		{0xF1, false, DispNeg, 0b1000110111},
		// D11.7 uses A7 at positive boundary disparity.
		{0xEB, false, DispPos, 0b1101001000},
	}
	for _, c := range cases {
		got, _, err := encodeAt(c.b, c.control, c.rd)
		if err != nil {
			t.Fatalf("encode 0x%02X: %v", c.b, err)
		}
		if got != c.want {
			t.Errorf("encode 0x%02X (control=%v, rd=%d) = %010b, want %010b",
				c.b, c.control, c.rd, got, c.want)
		}
	}
}

// TestRunningDisparityBounded: after every encoded symbol the running
// disparity must be exactly ±1 and the cumulative ones/zeros balance of
// the stream must stay within the 8b/10b bound.
func TestRunningDisparityBounded(t *testing.T) {
	e := NewEncoder()
	balance := 0
	r := newTestRand(1)
	for i := 0; i < 20000; i++ {
		sym := e.EncodeData(byte(r.next()))
		balance += bits.OnesCount16(uint16(sym))*2 - 10
		if balance < -2 || balance > 2 {
			t.Fatalf("stream DC balance %d out of bounds at symbol %d", balance, i)
		}
		if e.Disparity() != DispNeg && e.Disparity() != DispPos {
			t.Fatalf("running disparity %d invalid", e.Disparity())
		}
	}
}

// TestNoRunOfFive: 8b/10b guarantees at most five consecutive identical
// bits on the wire, including across symbol boundaries.
func TestNoRunOfFive(t *testing.T) {
	e := NewEncoder()
	prev := -1
	run := 0
	check := func(sym Symbol) {
		for i := 9; i >= 0; i-- {
			bit := int(sym>>i) & 1
			if bit == prev {
				run++
			} else {
				run = 1
				prev = bit
			}
			if run > 5 {
				t.Fatalf("run of %d identical bits on the wire", run)
			}
		}
	}
	// All bytes in sequence, twice, to cross many boundary cases.
	for pass := 0; pass < 2; pass++ {
		for b := 0; b < 256; b++ {
			check(e.EncodeData(byte(b)))
		}
	}
	// Random stream.
	r := newTestRand(7)
	for i := 0; i < 50000; i++ {
		check(e.EncodeData(byte(r.next())))
	}
}

// TestBlockRoundTripQuick is the property-based round-trip over random
// byte slices, each through a fresh encoder and decoder.
func TestBlockRoundTripQuick(t *testing.T) {
	f := func(data []byte) bool {
		e, d := NewEncoder(), NewDecoder()
		for _, b := range data {
			dec, err := d.Decode(e.EncodeData(b))
			if err != nil || dec.Control || dec.Byte != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSymbolUniqueness: within one disparity column, no two distinct
// (byte, control) inputs may produce the same symbol.
func TestSymbolUniqueness(t *testing.T) {
	for _, rd := range []Disparity{DispNeg, DispPos} {
		seen := map[Symbol]string{}
		add := func(sym Symbol, name string) {
			if prev, dup := seen[sym]; dup {
				t.Fatalf("rd=%d: symbol %010b produced by both %s and %s", rd, sym, prev, name)
			}
			seen[sym] = name
		}
		for b := 0; b < 256; b++ {
			sym, _, _ := encodeAt(byte(b), false, rd)
			add(sym, "D"+string(rune('0'+b%10)))
		}
		for _, k := range []byte{K28_0, K28_1, K28_2, K28_3, K28_4, K28_5, K28_6, K28_7, K23_7, K27_7, K29_7, K30_7} {
			sym, _, _ := encodeAt(k, true, rd)
			add(sym, "K")
		}
	}
}

// TestDecodeInvalidSymbol: symbols with illegal sub-block weight are
// rejected and counted.
func TestDecodeInvalidSymbol(t *testing.T) {
	d := NewDecoder()
	if _, err := d.Decode(0b1111110000); err == nil {
		t.Fatal("6-ones sub-block accepted")
	}
	if d.Violations == 0 {
		t.Fatal("violation not counted")
	}
	d.Reset()
	if _, err := d.Decode(0b1001111111); err == nil {
		t.Fatal("4-ones 4b sub-block accepted")
	}
	d.Reset()
	if _, err := d.Decode(0b0000001011); err == nil {
		t.Fatal("all-zero 6b sub-block accepted")
	}
}

// TestDecoderRecoversAfterViolation: a corrupted symbol mid-stream must
// not poison subsequent decoding.
func TestDecoderRecoversAfterViolation(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	for i := 0; i < 10; i++ {
		sym := e.EncodeData(byte(i))
		if _, err := d.Decode(sym); err != nil {
			t.Fatalf("clean symbol %d failed: %v", i, err)
		}
	}
	d.Decode(0b1111110000) // garbage
	// Re-align decoder disparity to encoder for the continuation.
	d.rd = e.Disparity()
	for i := 10; i < 20; i++ {
		sym := e.EncodeData(byte(i))
		dec, err := d.Decode(sym)
		if err != nil {
			t.Fatalf("post-violation symbol %d failed: %v", i, err)
		}
		if dec.Byte != byte(i) {
			t.Fatalf("post-violation decode got 0x%02X want 0x%02X", dec.Byte, i)
		}
	}
}

// The comma patterns receivers align on: 0011111 or 1100000.
const (
	commaPos = 0b0011111
	commaNeg = 0b1100000
)

// isComma reports whether the symbol's first seven bits are a comma.
func isComma(sym Symbol) bool {
	first7 := (uint16(sym) >> 3) & 0x7F
	return first7 == commaPos || first7 == commaNeg
}

// TestCommaDetection: only K28.1/5/7 encodings contain commas.
func TestCommaDetection(t *testing.T) {
	commas := map[byte]bool{K28_1: true, K28_5: true, K28_7: true}
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for _, k := range []byte{K28_0, K28_1, K28_2, K28_3, K28_4, K28_5, K28_6, K28_7, K23_7, K27_7, K29_7, K30_7} {
			sym, _, _ := encodeAt(k, true, rd)
			if got := isComma(sym); got != commas[k] {
				t.Errorf("isComma(K 0x%02X, rd=%d) = %v, want %v", k, rd, got, commas[k])
			}
		}
		// No data symbol may contain a comma (singular comma property).
		for b := 0; b < 256; b++ {
			sym, _, _ := encodeAt(byte(b), false, rd)
			if isComma(sym) {
				t.Errorf("data byte 0x%02X rd=%d encodes with comma", b, rd)
			}
		}
	}
}

// TestSingularComma: the comma pattern never appears across the
// boundary of two adjacent data symbols, so a receiver can find symbol
// boundaries from a comma. Exhaustive over all byte pairs and both
// disparities.
func TestSingularComma(t *testing.T) {
	check := func(s1, s2 Symbol) bool {
		// 20-bit window; scan positions 1..9 (0 and 10 are true
		// boundaries).
		window := uint32(s1)<<10 | uint32(s2)
		for pos := 1; pos < 10; pos++ {
			seg := (window >> (20 - 7 - pos)) & 0x7F
			if seg == commaPos || seg == commaNeg {
				return false
			}
		}
		return true
	}
	for _, rd := range []Disparity{DispNeg, DispPos} {
		for b1 := 0; b1 < 256; b1++ {
			s1, mid, _ := encodeAt(byte(b1), false, rd)
			for b2 := 0; b2 < 256; b2++ {
				s2, _, _ := encodeAt(byte(b2), false, mid)
				if !check(s1, s2) {
					t.Fatalf("comma across D%d/D%d boundary (rd=%d)", b1, b2, rd)
				}
			}
		}
	}
}

// TestDisparityAwareK28Decode: K28.1 and K28.6 share 4b patterns across
// columns; the decoder must separate them by tracked disparity.
func TestDisparityAwareK28Decode(t *testing.T) {
	for _, k := range []byte{K28_1, K28_6} {
		for _, rd := range []Disparity{DispNeg, DispPos} {
			sym, _, _ := encodeAt(k, true, rd)
			d := &Decoder{rd: rd}
			dec, err := d.Decode(sym)
			if err != nil {
				t.Fatalf("decode K28.x 0x%02X rd=%d: %v", k, rd, err)
			}
			if dec.Byte != k {
				t.Fatalf("disparity-aware decode 0x%02X rd=%d → 0x%02X", k, rd, dec.Byte)
			}
		}
	}
}

// TestEncoderDecoderLongStreamWithControls interleaves data and idle
// (K28.5) like a real link and round-trips the lot.
func TestEncoderDecoderLongStreamWithControls(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	r := newTestRand(99)
	for i := 0; i < 30000; i++ {
		if i%7 == 0 {
			sym, err := e.Encode(K28_5, true)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := d.Decode(sym)
			if err != nil || !dec.Control || dec.Byte != K28_5 {
				t.Fatalf("idle round trip failed at %d: %v %+v", i, err, dec)
			}
			continue
		}
		b := byte(r.next())
		sym := e.EncodeData(b)
		dec, err := d.Decode(sym)
		if err != nil || dec.Control || dec.Byte != b {
			t.Fatalf("data round trip failed at %d: %v %+v", i, err, dec)
		}
	}
	if d.Violations != 0 {
		t.Fatalf("%d violations on clean stream", d.Violations)
	}
}

// testRand is a tiny local PRNG so the package has no test deps.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed} }
func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
