package experiments

import (
	"fmt"

	"repro/internal/enc8b10b"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/wire"
)

// E1TypeTable reproduces the slide-4 MicroPacket type table and
// verifies each type round-trips through the wire encoder and decoder —
// under every wire-format version.
func E1TypeTable() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "MicroPacket types (paper slide 4)",
		Header: []string{"MicroPacket", "Length", "Mandatory", "codec round-trip"},
	}
	for _, info := range micropacket.Types() {
		length := "Fixed"
		if info.Variable {
			length = "Variable"
		}
		mand := "Yes"
		if !info.Mandatory {
			mand = "No"
		}
		ok := true
		for _, v := range wire.Versions() {
			ok = ok && roundTrip(v, info.Type)
		}
		t.Add(info.Name, length, mand, map[bool]string{true: "ok", false: "FAIL"}[ok])
	}
	t.Note("matches slide 4 row-for-row; D64 Atomic is the only optional type")
	t.Note("round-trip verified under every wire-format version (v1 byte addresses, v2 uint16)")
	return t
}

func roundTrip(v wire.Version, ty micropacket.Type) bool {
	var p *micropacket.Packet
	switch ty {
	case micropacket.TypeRostering:
		p = micropacket.NewRostering(1, 0, [8]byte{1, 2, 3})
	case micropacket.TypeData:
		p = micropacket.NewData(1, 2, 3, []byte{4, 5})
	case micropacket.TypeDMA:
		p = micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3, Offset: 64}, []byte{7, 8, 9})
	case micropacket.TypeInterrupt:
		p = micropacket.NewInterrupt(1, 2, 3)
	case micropacket.TypeDiagnostic:
		p = micropacket.NewDiagnostic(1, 2, 3)
	case micropacket.TypeD64Atomic:
		p = micropacket.NewAtomic(1, 2, 3, micropacket.OpFetchAdd, 42)
	}
	raw, err := wire.Encode(v, p)
	if err != nil {
		return false
	}
	q, gotV, err := wire.Decode(raw)
	return err == nil && q.Type == ty && gotV == v
}

// E2WireFormats reproduces the slide-5/6 format figures as a size
// table: fixed = 3 payload-bearing words, variable = up to 19 words,
// and shows serialization times at the FC gigabit rate — for both
// wire-format versions (v2 adds one control word for the uint16
// addresses).
func E2WireFormats() *Table {
	t := &Table{
		ID:     "E2",
		Title:  "MicroPacket wire formats (paper slides 5–6; versioned per internal/wire)",
		Header: []string{"format", "wire fmt", "payload B", "wire B", "10b symbols", "serialization", "8b/10b round-trip"},
	}
	row := func(name string, v wire.Version, ty micropacket.Type, payload int) {
		var p *micropacket.Packet
		if ty.Variable() {
			data := make([]byte, payload)
			p = micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 0}, data)
		} else {
			p = micropacket.NewData(1, 2, 0, make([]byte, payload))
		}
		size := wire.Size(v, ty, payload)
		enc := enc8b10b.NewEncoder()
		dec := enc8b10b.NewDecoder()
		syms, err := wire.EncodeSymbols(v, p, enc)
		ok := err == nil
		if ok {
			q, gotV, err2 := wire.DecodeSymbols(syms, dec)
			ok = err2 == nil && q.Type == ty && gotV == v
		}
		t.Add(name, v.String(), fmt.Sprint(payload), fmt.Sprint(size), fmt.Sprint(len(syms)),
			phys.SerTime(size).String(), map[bool]string{true: "ok", false: "FAIL"}[ok])
	}
	for _, v := range wire.Versions() {
		row("fixed (slide 5)", v, micropacket.TypeData, 8)
		for _, n := range []int{0, 4, 16, 32, 64} {
			row("variable (slide 6)", v, micropacket.TypeDMA, n)
		}
	}
	t.Note("v1 fixed frame: SOF(4)+3 words(12)+CRC(4)+EOF(4) = 24 B; variable max 88 B")
	t.Note("v2 widens the control block to 2 words (uint16 addresses): fixed 28 B, variable max 92 B")
	return t
}
