package dma

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

// refWrite is Engine.Write as it stood before segments borrowed the
// caller's slice (commit 2b33355), kept verbatim as the reference
// FuzzDMAWrite compares against: the whole transfer is cloned up front
// and nothing is borrowed, so nothing needs moving afterwards.
func refWrite(e *Engine, ch int, dst micropacket.NodeID, region uint8, off uint32, data []byte, done func()) int {
	if ch < 0 || ch >= NumChannels {
		panic("dma: channel out of range")
	}
	data = slices.Clone(data)
	n := 0
	for i := 0; ; i += MaxSegment {
		endI := i + MaxSegment
		if endI > len(data) {
			endI = len(data)
		}
		seg := data[i:endI:endI]
		last := endI == len(data)
		req := request{
			dst: dst,
			hdr: micropacket.DMAHeader{
				Channel: uint8(ch), Region: region, Offset: off + uint32(i),
			},
			data: seg,
			last: last,
		}
		if last {
			req.done = done
		}
		q := &e.queues[ch]
		q.Push(req)
		n++
		if q.Len() > e.QueueHighWater {
			e.QueueHighWater = q.Len()
		}
		if last {
			break
		}
	}
	e.pump()
	return n
}

// writeFn is Engine.Write or refWrite.
type writeFn func(e *Engine, ch int, dst micropacket.NodeID, region uint8, off uint32, data []byte, done func()) int

// Op streams are three bytes an op. Byte 0 picks the op in its low
// three bits — 0 a bare write; 1 a write with done; 2 and 3 a write
// whose done re-enters Write on the same and on another channel; 4
// toggles the station's back-pressure; 5 advances virtual time; 6 and 7
// are bare writes again — and one of three channels above them. Bytes 1
// and 2 give the write's length (0…300) and the re-entrant write's
// (0…127), or the time to advance in units of 100 ns.
const (
	opWrite = iota
	opWriteDone
	opWriteReenterSame
	opWriteReenterOther
	opToggle
	opAdvance
)

func op(kind, ch, n, nested int) []byte {
	return []byte{byte(kind | (ch-1)<<3), byte(n), byte(n>>8 | nested<<1)}
}

// payload is a transfer's bytes: a function of the op's position in the
// stream, so both engines are handed equal bytes in distinct buffers.
func payload(id, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id*37 + i*11 + 3)
	}
	return b
}

// runOps drives one engine of a fresh three-node rig through an op
// stream with write as its Write, scribbling over every buffer the
// moment write returns, and logs every segment node 1 receives and
// every done, each with its instant.
func runOps(ops []byte, write writeFn) (log []string, sent uint64, highWater int) {
	r := newRig(3)
	e := r.engines[0]
	r.engines[1].OnWrite = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		log = append(log, fmt.Sprintf("%v rx ch=%d seq=%d off=%d last=%v % x", r.k.Now(), hdr.Channel, hdr.Seq, hdr.Offset, last, data))
	}
	send := func(id, ch, n int, done func()) {
		buf := payload(id, n)
		segs := write(e, ch, 1, 9, uint32(id)<<12, buf, done)
		for i := range buf {
			buf[i] = 0xEE
		}
		log = append(log, fmt.Sprintf("%v write %d: %d segments", r.k.Now(), id, segs))
	}
	open := e.St.MaxInsertQueue
	for i := 0; i+3 <= len(ops); i += 3 {
		id := i / 3
		kind, ch := int(ops[i]&7), 1+int(ops[i]>>3)%3
		n, nested := (int(ops[i+1])|int(ops[i+2]&1)<<8)%301, int(ops[i+2]>>1)
		switch kind {
		case opToggle:
			if e.St.MaxInsertQueue == 0 {
				e.St.MaxInsertQueue = open
			} else {
				e.St.MaxInsertQueue = 0
			}
		case opAdvance:
			r.k.RunUntil(r.k.Now() + sim.Time(n)*100)
		case opWriteDone, opWriteReenterSame, opWriteReenterOther:
			send(id, ch, n, func() {
				log = append(log, fmt.Sprintf("%v done %d", r.k.Now(), id))
				switch kind {
				case opWriteReenterSame:
					send(id+1000, ch, nested, nil)
				case opWriteReenterOther:
					send(id+1000, 1+ch%3, nested, nil)
				}
			})
		default:
			send(id, ch, n, nil)
		}
	}
	e.St.MaxInsertQueue = open
	r.k.Run()
	if p := e.Pending(); p != 0 {
		log = append(log, fmt.Sprintf("%d segments never sent", p))
	}
	return log, e.Sent, e.QueueHighWater
}

// checkAgainstReference runs ops through Write and through refWrite and
// requires the same segments with the same Seq, FlagLast, Offset and
// bytes in the same order at the same instants, the same done instants
// and segment counts, and equal Sent and QueueHighWater.
func checkAgainstReference(t *testing.T, ops []byte) {
	t.Helper()
	got, gotSent, gotHW := runOps(ops, (*Engine).Write)
	want, wantSent, wantHW := runOps(ops, refWrite)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "nothing"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("ops % x: event %d\n got %s\nwant %s", ops, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ops % x: %d events, reference has %d; first extra: %s", ops, len(got), len(want), got[len(want)])
	}
	if gotSent != wantSent || gotHW != wantHW {
		t.Fatalf("ops % x: Sent %d QueueHighWater %d, reference %d and %d", ops, gotSent, gotHW, wantSent, wantHW)
	}
}

// nastyWrites are the op streams aimed at the seams of the borrowed
// segments; they seed the fuzzer as well.
var nastyWrites = []struct {
	name string
	ops  []byte
}{
	{"empty write", op(opWrite, 1, 0, 0)},
	{"one segment, sent before Write returns", op(opWrite, 1, 48, 0)},
	{"window full at call time", slices.Concat(
		op(opToggle, 1, 0, 0), op(opWrite, 1, 200, 0), op(opWriteDone, 1, 64, 0), op(opToggle, 1, 0, 0), op(opAdvance, 1, 50, 0))},
	{"five segments partly pumped", slices.Concat(op(opWriteDone, 2, 300, 0), op(opAdvance, 1, 5, 0), op(opWrite, 2, 300, 0))},
	{"done re-enters the channel it completed on", slices.Concat(
		op(opWriteReenterSame, 1, 10, 100), op(opWrite, 1, 300, 0), op(opWriteReenterSame, 1, 0, 127))},
	{"pump sends another call's segments and runs its done", slices.Concat(
		op(opToggle, 1, 0, 0), op(opWriteReenterSame, 1, 130, 127), op(opWriteReenterOther, 2, 70, 90), op(opToggle, 1, 0, 0),
		op(opWrite, 1, 300, 0), op(opWrite, 3, 129, 0))},
	{"re-entrant write queued behind a back-pressured tail", slices.Concat(
		op(opWriteReenterOther, 3, 300, 127), op(opWriteReenterSame, 3, 300, 127), op(opToggle, 1, 0, 0),
		op(opWrite, 3, 65, 0), op(opAdvance, 1, 200, 0), op(opToggle, 1, 0, 0))},
}

func TestWriteMatchesReference(t *testing.T) {
	for _, tc := range nastyWrites {
		t.Run(tc.name, func(t *testing.T) { checkAgainstReference(t, tc.ops) })
	}
}

// FuzzDMAWrite: Write lends the pump the caller's slice and keeps a
// copy only of what is still queued when it returns; none of that may
// show next to the engine that cloned every transfer up front.
func FuzzDMAWrite(f *testing.F) {
	for _, tc := range nastyWrites {
		f.Add(tc.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		checkAgainstReference(t, ops)
	})
}
