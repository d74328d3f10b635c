// Package wire stands in for repro/internal/wire: it owns frame
// layout, so index+shift composition is legal here.
package wire

func Decode16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func Encode16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}
