package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mp "repro/internal/micropacket"
)

// Golden wire vectors: one checked-in hex frame per packet type (plus
// broadcast and DMA length edge cases) for every format version. The
// v1 file was generated by the original single-version encoder, so v1
// can never silently drift the historical bytes; the v2 file
// pins the widened layout the same way. Regenerate after an
// intentional format change with
//
//	go test ./internal/wire -run TestGoldenVectors -update
var updateGoldens = flag.Bool("update", false, "rewrite the golden wire vectors")

// goldenPackets is the frame menu of the golden files, shared by both
// versions (addresses stay within the v1 space so the two files
// describe the same packets).
func goldenPackets() []struct {
	name string
	pkt  *mp.Packet
} {
	ros := mp.NewRostering(9, 1, [8]byte{1, 2, 3, 4, 5, 6, 7, 8})
	d := mp.NewData(3, 7, 42, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Flags = mp.FlagAck | mp.FlagLast
	var full [64]byte
	for i := range full {
		full[i] = byte(i * 7)
	}
	return []struct {
		name string
		pkt  *mp.Packet
	}{
		{"rostering-broadcast", ros},
		{"data-flags", d},
		{"data-broadcast", mp.NewData(1, mp.Broadcast, 0, nil)},
		{"dma-empty", mp.NewDMA(1, 2, mp.DMAHeader{Channel: 5, Region: 9, Seq: 33, Offset: 0xDEADBEEF}, nil)},
		{"dma-5b", mp.NewDMA(1, 2, mp.DMAHeader{Channel: 5, Region: 9, Seq: 33, Offset: 0xDEADBEEF}, []byte{10, 20, 30, 40, 50})},
		{"dma-64b", mp.NewDMA(254, 0, mp.DMAHeader{Channel: 15, Region: 1, Offset: 4096}, full[:])},
		{"interrupt", mp.NewInterrupt(5, 6, 13)},
		{"diagnostic", mp.NewDiagnostic(7, 8, 0xEE)},
		{"atomic-fetchadd", mp.NewAtomic(4, 9, 17, mp.OpFetchAdd, 0x1122334455667788)},
		{"atomic-broadcast-tas", mp.NewAtomic(0, mp.Broadcast, 1, mp.OpTestAndSet, 1)},
	}
}

// encodeBothWays encodes p with the allocating wrapper and with the
// append form into a dirty, oversized buffer behind a prefix that must
// survive, requires the same outcome from both, and returns the frame.
func encodeBothWays(t *testing.T, v Version, p *mp.Packet) ([]byte, error) {
	t.Helper()
	raw, err := Encode(v, p)
	dst := bytes.Repeat([]byte{0xA5}, 512)[:3]
	out, aerr := AppendEncode(dst, v, p)
	if (err == nil) != (aerr == nil) {
		t.Fatalf("%v: Encode error %v, AppendEncode error %v", v, err, aerr)
	}
	if err != nil {
		return nil, err
	}
	if &out[0] != &dst[0] || !bytes.Equal(out[:3], []byte{0xA5, 0xA5, 0xA5}) {
		t.Fatalf("%v: AppendEncode did not append in place behind its prefix", v)
	}
	if !bytes.Equal(out[3:], raw) {
		t.Fatalf("%v: AppendEncode into a dirty buffer differs from Encode:\n got  %x\n want %x", v, out[3:], raw)
	}
	return raw, nil
}

// readGolden parses "name hexframe" lines.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -run TestGoldenVectors -update` to create it)", err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		raw, err := hex.DecodeString(parts[1])
		if err != nil {
			t.Fatalf("%s: %s: %v", path, parts[0], err)
		}
		out[parts[0]] = raw
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenVectors(t *testing.T) {
	for _, v := range Versions() {
		t.Run(v.String(), func(t *testing.T) {
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.txt", v))
			pkts := goldenPackets()
			if *updateGoldens {
				var out bytes.Buffer
				for _, g := range pkts {
					raw, err := Encode(v, g.pkt)
					if err != nil {
						t.Fatalf("%s: %v", g.name, err)
					}
					fmt.Fprintf(&out, "%s %x\n", g.name, raw)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want := readGolden(t, path)
			if len(want) != len(pkts) {
				t.Fatalf("%s has %d vectors, menu has %d", path, len(want), len(pkts))
			}
			for _, g := range pkts {
				raw, err := encodeBothWays(t, v, g.pkt)
				if err != nil {
					t.Fatalf("%s: %v", g.name, err)
				}
				if !bytes.Equal(raw, want[g.name]) {
					t.Errorf("%s %s drifted:\n got  %x\n want %x", v, g.name, raw, want[g.name])
					continue
				}
				// And the golden frame must decode back to the packet.
				q, got, err := Decode(want[g.name])
				if err != nil || got != v {
					t.Fatalf("%s %s: golden frame does not decode: %v", v, g.name, err)
				}
				if q.Type != g.pkt.Type || q.Src != g.pkt.Src || q.Dst != g.pkt.Dst ||
					q.Tag != g.pkt.Tag || q.Flags != g.pkt.Flags ||
					q.Payload != g.pkt.Payload || !bytes.Equal(q.Data, g.pkt.Data) {
					t.Fatalf("%s %s: golden decode mismatch: %+v", v, g.name, q)
				}
			}
		})
	}
}
