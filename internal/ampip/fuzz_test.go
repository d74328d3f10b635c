package ampip

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// Script ops for FuzzCommRecv: each is an op byte and its operands.
const (
	fuzzRound = iota // v: every rank all-reduces v+rank, then barriers
	fuzzRun          // d: run the ring d µs
	fuzzRecv         // rank, n, n bytes: a datagram handed to rank's recv
	fuzzOps
)

// fuzzDatagram is a fuzzRecv op carrying a collective message.
func fuzzDatagram(rank byte, kind uint8, seq uint32, from, part uint16, body ...byte) []byte {
	m := binary.BigEndian.AppendUint32([]byte{kind}, seq)
	m = binary.BigEndian.AppendUint16(m, from)
	m = binary.BigEndian.AppendUint16(m, part)
	m = append(m, body...)
	return append([]byte{fuzzRecv, rank, byte(len(m))}, m...)
}

// FuzzCommRecv: any datagram, between any issues, leaves a 4-rank
// communicator sound. recv never panics; no rank holds state for an op
// it has finished; every AllReduceSum and Barrier issued completes on
// every rank, with the true total unless a datagram spoke for that very
// reduce where it was still open or not yet issued — a forgery no
// protocol can tell from the real thing.
func FuzzCommRecv(f *testing.F) {
	seed := func(parts ...[]byte) []byte {
		var s []byte
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	round := []byte{fuzzRound, 5}
	settle := []byte{fuzzRun, 200}
	f.Add(seed(round, settle, fuzzDatagram(1, kindBarrier, 0, 0, partRelease)))
	f.Add(seed(round, settle, fuzzDatagram(0, kindReduce, 0, 2, partContrib, 0, 0, 0, 0, 0, 0, 0, 9), round))
	f.Add(seed(round, fuzzDatagram(0, kindReduce, 1, 3, partContrib, 1), fuzzDatagram(2, kindReduce, 0, 0, partRelease), round, settle))
	f.Add(seed(fuzzDatagram(3, kindBcast, 0, 1, partContrib, 4, 2), fuzzDatagram(1, kindGather, 2, 3, partAck), round, round))
	f.Add(seed(round, []byte{fuzzRun, 3}, fuzzDatagram(0, kindBarrier, 0, 1, partContrib), round, settle, fuzzDatagram(2, numKinds, 0, 0, partContrib)))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		r := newRig(t, 4)
		cs := comms(r)
		var want []uint64                   // per round: the true total
		tainted := map[uint32]bool{}        // reduces a datagram could have spoken for
		totals := make([][]uint64, len(cs)) // per rank, per reduce
		reduced := make([]int, len(cs))
		released := make([]int, len(cs))
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for len(script) > 0 {
			switch next() % fuzzOps {
			case fuzzRound:
				v, s := uint64(next()), len(want)
				want = append(want, 4*v+6)
				for p, c := range cs {
					totals[p] = append(totals[p], 0)
					c.AllReduceSum(v+uint64(p), func(total uint64) {
						totals[p][s] = total
						reduced[p]++
						c.Barrier(func() { released[p]++ })
					})
				}
			case fuzzRun:
				r.run(sim.Time(next()) * sim.Microsecond)
			case fuzzRecv:
				c := cs[int(next())%len(cs)]
				n := min(int(next()), len(script))
				msg := append([]byte{}, script[:n]...)
				script = script[n:]
				if len(msg) >= 9 && msg[0] == kindReduce {
					seq := binary.BigEndian.Uint32(msg[1:5])
					if _, open := c.ops[opKey{kindReduce, seq}]; open || seq >= c.seq[kindReduce] {
						tainted[seq] = true
					}
				}
				c.recv(0, 0, msg)
			}
			for p, c := range cs {
				for k, st := range c.ops {
					if k.seq < c.seq[k.kind] && !st.issued {
						t.Fatalf("rank %d holds state for op %+v, which it has finished", p, k)
					}
				}
			}
		}
		r.run(50 * sim.Millisecond)
		for p, c := range cs {
			if reduced[p] != len(want) || released[p] != len(want) {
				t.Fatalf("rank %d: %d of %d reduces and %d barriers completed", p, reduced[p], len(want), released[p])
			}
			for k := range c.ops {
				if k.seq < c.seq[k.kind] {
					t.Fatalf("rank %d holds state for op %+v after every op finished", p, k)
				}
			}
		}
		for s, total := range want {
			if tainted[uint32(s)] {
				continue
			}
			for p := range cs {
				if totals[p][s] != total {
					t.Fatalf("rank %d, reduce %d: total %d, want %d", p, s, totals[p][s], total)
				}
			}
		}
	})
}
