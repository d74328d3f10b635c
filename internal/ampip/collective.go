package ampip

import (
	"encoding/binary"

	"repro/internal/sim"
)

// Comm is a communicator over a fixed set of nodes, providing the
// MPI-style collectives of slide 12's stack (broadcast, barrier,
// all-reduce, all-to-all). All ranks must issue collectives in the same
// order, the standard MPI matching rule; operations are matched by a
// per-kind sequence number, so early arrivals are buffered.
//
// Datagram delivery over the ring is best-effort: a roster transition
// (self-heal) can destroy frames in flight. The collectives are
// therefore built idempotently — contributions are keyed by sender
// rank, payloads are retransmitted until acknowledged or released, and
// coordinators answer retransmissions for already-completed operations
// from a bounded result memory — so a collective crossing a self-heal
// completes as soon as the ring is back.
type Comm struct {
	Stack *Stack
	Nodes []int // node ids, identical order on every rank
	Port  uint16

	// Retransmit is the retry pace for unacknowledged collective
	// traffic (lost only during ring transitions, so this is idle in
	// steady state).
	Retransmit sim.Time

	rank int
	seq  [numKinds]uint32 // per-kind issue counters
	ops  map[opKey]*opState
	// free holds finished op states for the next op to reuse, slices
	// and retry Timer included.
	free []*opState
	// msg is send's scratch: SendTo has copied it by the time it returns.
	msg []byte

	// Bounded memory of completed coordinator results, so stragglers
	// retransmitting into a finished op still get their answer.
	doneReduce, doneBarrier resultRing

	// Resends counts retransmitted messages (0 in a healthy run).
	Resends uint64
}

// Collective kinds.
const (
	kindBcast = iota
	kindBarrier
	kindReduce
	kindAll2All
	kindGather
	kindScatter
	numKinds
)

// Message parts.
const (
	partContrib = 0 // arrive / contribution / block / bcast payload
	partRelease = 1 // release / result
	partAck     = 2 // acknowledgement (bcast, all-to-all)
)

// DefaultRetransmit is the retry pace for collective traffic.
const DefaultRetransmit = 500 * sim.Microsecond

// completedMemory bounds the per-kind result memory: a coordinator
// answers for the last completed op and the completedMemory before it.
const completedMemory = 128

// resultRing remembers the results of the last completedMemory+1 ops a
// coordinator completed, each in the slot its sequence number maps to.
type resultRing struct {
	tag [completedMemory + 1]uint32 // seq+1 of the op held; 0 is empty
	val [completedMemory + 1]uint64
}

func (r *resultRing) put(seq uint32, v uint64) {
	i := seq % uint32(len(r.tag))
	r.tag[i], r.val[i] = seq+1, v
}

func (r *resultRing) get(seq uint32) (uint64, bool) {
	i := seq % uint32(len(r.tag))
	return r.val[i], r.tag[i] == seq+1
}

type opKey struct {
	kind uint8
	seq  uint32
}

type opState struct {
	c   *Comm
	key opKey
	// Idempotent receive state: rank-indexed, made by the first op that
	// needs it and kept across reuse. heard marks barrier arrivals,
	// reduce contributions (their values in vals) and acknowledgements
	// of our payload; blocks holds all-to-all and gather blocks. nheard
	// and nblocks count the ranks set.
	heard   []bool
	nheard  int
	vals    []uint64
	blocks  [][]byte
	nblocks int
	buf     []byte // bcast / scatter payload
	value   uint64 // reduce result at non-root
	// done, set when this rank issues the op (early arrivals only fill
	// in state), completes it once its condition holds.
	done     func(*opState)
	released bool
	// retry re-sends what resend sends every Retransmit until finish.
	retry  *sim.Timer
	resend func()
}

// hear records that rank arrived, contributed or acknowledged.
func (st *opState) hear(rank int) {
	if st.heard == nil {
		st.heard = make([]bool, len(st.c.Nodes))
	}
	if !st.heard[rank] {
		st.heard[rank] = true
		st.nheard++
	}
}

// contribute records rank's reduce contribution.
func (st *opState) contribute(rank int, v uint64) {
	if st.vals == nil {
		st.vals = make([]uint64, len(st.c.Nodes))
	}
	st.hear(rank)
	st.vals[rank] = v
}

// keepBlock records a copy of rank's block.
func (st *opState) keepBlock(rank int, b []byte) {
	if st.blocks == nil {
		st.blocks = make([][]byte, len(st.c.Nodes))
	}
	if st.blocks[rank] == nil {
		st.nblocks++
	}
	st.blocks[rank] = append([]byte{}, b...)
}

// NewComm builds a communicator; nodes must list every participant
// (including this node) in the same order everywhere.
func NewComm(s *Stack, nodes []int, port uint16) *Comm {
	c := &Comm{
		Stack: s, Nodes: append([]int{}, nodes...), Port: port,
		Retransmit: DefaultRetransmit,
		ops:        map[opKey]*opState{},
	}
	c.rank = -1
	for i, id := range c.Nodes {
		if id == s.Node.Cfg.ID {
			c.rank = i
		}
	}
	s.Bind(port, c.recv)
	return c
}

// Rank returns this node's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of participants.
func (c *Comm) Size() int { return len(c.Nodes) }

// state fetches or creates the op state (early arrivals create it).
func (c *Comm) state(k opKey) *opState {
	st, ok := c.ops[k]
	if !ok {
		if n := len(c.free); n > 0 {
			st, c.free = c.free[n-1], c.free[:n-1]
		} else {
			st = &opState{c: c}
		}
		st.key = k
		c.ops[k] = st
	}
	return st
}

// issue is state for the rank issuing the next op of a kind.
func (c *Comm) issue(kind uint8) (uint32, *opState) {
	seq := c.seq[kind]
	c.seq[kind]++
	return seq, c.state(opKey{kind, seq})
}

// message wire: kind(1) seq(4) srcRank(2) part(2) body…
func (c *Comm) send(toRank int, kind uint8, seq uint32, part uint16, body []byte) {
	msg := append(c.msg[:0], kind)
	msg = binary.BigEndian.AppendUint32(msg, seq)
	msg = binary.BigEndian.AppendUint16(msg, uint16(c.rank))
	msg = binary.BigEndian.AppendUint16(msg, part)
	msg = append(msg, body...)
	c.msg = msg
	c.Stack.SendTo(NodeToIP(c.Nodes[toRank]), c.Port, c.Port, msg)
}

// sendValue is send with a 64-bit body.
func (c *Comm) sendValue(toRank int, kind uint8, seq uint32, part uint16, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	c.send(toRank, kind, seq, part, b[:])
}

// armRetry starts the op's retransmission loop: one Timer per op state,
// re-armed for every retry and every op the state is reused for.
func (c *Comm) armRetry(st *opState) {
	if st.retry == nil {
		st.retry = c.Stack.Node.K.After(c.Retransmit, st.retransmit)
	} else {
		st.retry.Reset(c.Retransmit)
	}
}

// retransmit is the retry tick; finish cancels it, so the op is open.
func (st *opState) retransmit() {
	st.c.Resends++
	st.resend()
	st.retry.Reset(st.c.Retransmit)
}

// finish closes the op and hands its state to the next one. Callers
// read what they need out of st first.
func (c *Comm) finish(st *opState) {
	st.retry.Cancel()
	delete(c.ops, st.key)
	clear(st.heard)
	clear(st.vals)
	clear(st.blocks)
	*st = opState{c: c, heard: st.heard, vals: st.vals, blocks: st.blocks, retry: st.retry}
	c.free = append(c.free, st)
}

func (c *Comm) recv(_ Addr, _ uint16, data []byte) {
	if len(data) < 9 {
		return
	}
	kind := data[0]
	seq := binary.BigEndian.Uint32(data[1:5])
	from := int(binary.BigEndian.Uint16(data[5:7]))
	part := binary.BigEndian.Uint16(data[7:9])
	body := data[9:]
	if from >= len(c.Nodes) {
		return // no such rank: the state below is indexed by it
	}
	k := opKey{kind, seq}

	// Retransmission into an op this coordinator already completed:
	// answer from memory.
	if _, open := c.ops[k]; !open && c.rank == 0 && part == partContrib {
		switch kind {
		case kindBarrier:
			if _, ok := c.doneBarrier.get(seq); ok {
				c.send(from, kindBarrier, seq, partRelease, nil)
				return
			}
		case kindReduce:
			if v, ok := c.doneReduce.get(seq); ok {
				c.sendValue(from, kindReduce, seq, partRelease, v)
				return
			}
		}
	}

	st := c.state(k)
	switch kind {
	case kindBcast:
		switch part {
		case partContrib: // payload from root
			st.buf = append([]byte{}, body...)
			st.released = true
			c.send(from, kindBcast, seq, partAck, nil)
		case partAck:
			st.hear(from)
		}
	case kindBarrier:
		switch part {
		case partContrib:
			st.hear(from)
		case partRelease:
			st.released = true
		}
	case kindReduce:
		switch part {
		case partContrib:
			st.contribute(from, binary.BigEndian.Uint64(body))
		case partRelease:
			st.value = binary.BigEndian.Uint64(body)
			st.released = true
		}
	case kindAll2All:
		switch part {
		case partContrib:
			st.keepBlock(from, body)
			c.send(from, kindAll2All, seq, partAck, nil)
		case partAck:
			st.hear(from)
		}
	case kindGather:
		switch part {
		case partContrib: // block arriving at root
			st.keepBlock(from, body)
			c.send(from, kindGather, seq, partAck, nil)
		case partAck: // root acknowledged our block
			st.released = true
		}
	case kindScatter:
		switch part {
		case partContrib: // our slice arriving from root
			st.buf = append([]byte{}, body...)
			st.released = true
			c.send(from, kindScatter, seq, partAck, nil)
		case partAck:
			st.hear(from)
		}
	}
	if st.done != nil {
		st.done(st)
	}
}

// Bcast distributes data from root (a rank). Every rank's done receives
// the payload. Must be called by all ranks.
func (c *Comm) Bcast(root int, data []byte, done func([]byte)) {
	seq, st := c.issue(kindBcast)
	if c.rank == root {
		payload := append([]byte{}, data...)
		st.hear(root)
		sendAll := func() {
			for r := range c.Nodes {
				if !st.heard[r] {
					c.send(r, kindBcast, seq, partContrib, payload)
				}
			}
		}
		st.resend = sendAll
		st.done = func(s *opState) {
			if s.nheard == len(c.Nodes) {
				c.finish(s)
				done(payload)
			}
		}
		sendAll()
		c.armRetry(st)
		st.done(st)
		return
	}
	st.done = func(s *opState) {
		if s.released {
			buf := s.buf
			c.finish(s)
			done(buf)
		}
	}
	st.done(st)
}

// Barrier completes (in callback style) once every rank has arrived.
// Rank 0 coordinates: it collects arrivals and sends releases.
func (c *Comm) Barrier(done func()) {
	seq, st := c.issue(kindBarrier)
	if c.rank == 0 {
		st.hear(0)
		st.done = func(s *opState) {
			if s.nheard == len(c.Nodes) {
				for r := 1; r < len(c.Nodes); r++ {
					c.send(r, kindBarrier, seq, partRelease, nil)
				}
				c.doneBarrier.put(seq, 0)
				c.finish(s)
				done()
			}
		}
		st.done(st)
		return
	}
	st.resend = func() { c.send(0, kindBarrier, seq, partContrib, nil) }
	st.done = func(s *opState) {
		if s.released {
			c.finish(s)
			done()
		}
	}
	st.resend()
	c.armRetry(st)
	st.done(st)
}

// AllReduceSum sums a uint64 across all ranks; every rank's done
// receives the total. Rank 0 reduces and redistributes.
func (c *Comm) AllReduceSum(v uint64, done func(uint64)) {
	seq, st := c.issue(kindReduce)
	if c.rank == 0 {
		st.contribute(0, v)
		st.done = func(s *opState) {
			if s.nheard == len(c.Nodes) {
				var total uint64
				for _, x := range s.vals {
					total += x
				}
				for r := 1; r < len(c.Nodes); r++ {
					c.sendValue(r, kindReduce, seq, partRelease, total)
				}
				c.doneReduce.put(seq, total)
				c.finish(s)
				done(total)
			}
		}
		st.done(st)
		return
	}
	st.resend = func() { c.sendValue(0, kindReduce, seq, partContrib, v) }
	st.done = func(s *opState) {
		if s.released {
			total := s.value
			c.finish(s)
			done(total)
		}
	}
	st.resend()
	c.armRetry(st)
	st.done(st)
}

// Gather collects one block from every rank at root. The root's done
// receives the blocks indexed by rank (its own block included);
// non-root ranks complete once the root has acknowledged their block.
// Must be called by all ranks.
func (c *Comm) Gather(root int, block []byte, done func(blocks [][]byte)) {
	seq, st := c.issue(kindGather)
	if c.rank == root {
		st.keepBlock(root, block)
		st.done = func(s *opState) {
			if s.nblocks == len(c.Nodes) {
				out := append([][]byte{}, s.blocks...)
				c.finish(s)
				done(out)
			}
		}
		st.done(st)
		return
	}
	mine := append([]byte{}, block...)
	st.resend = func() { c.send(root, kindGather, seq, partContrib, mine) }
	st.done = func(s *opState) {
		if s.released {
			c.finish(s)
			done(nil)
		}
	}
	st.resend()
	c.armRetry(st)
	st.done(st)
}

// Scatter distributes slices[r] from root to each rank r; every rank's
// done receives its slice. Must be called by all ranks (non-roots pass
// nil slices).
func (c *Comm) Scatter(root int, slices [][]byte, done func(mine []byte)) {
	seq, st := c.issue(kindScatter)
	if c.rank == root {
		own := append([]byte{}, slices[root]...)
		st.hear(root)
		outbound := make([][]byte, len(c.Nodes))
		for r := range c.Nodes {
			if r != root {
				outbound[r] = append([]byte{}, slices[r]...)
			}
		}
		sendAll := func() {
			for r := range c.Nodes {
				if !st.heard[r] {
					c.send(r, kindScatter, seq, partContrib, outbound[r])
				}
			}
		}
		st.resend = sendAll
		st.done = func(s *opState) {
			if s.nheard == len(c.Nodes) {
				c.finish(s)
				done(own)
			}
		}
		sendAll()
		c.armRetry(st)
		st.done(st)
		return
	}
	st.done = func(s *opState) {
		if s.released {
			buf := s.buf
			c.finish(s)
			done(buf)
		}
	}
	st.done(st)
}

// AllToAll sends blocks[r] to rank r and completes with the blocks
// received from every rank (own block included, at its own index).
// Completion requires both receiving everyone's block and having our
// blocks acknowledged by every peer, so retransmission covers losses
// in either direction.
func (c *Comm) AllToAll(blocks [][]byte, done func(recv [][]byte)) {
	seq, st := c.issue(kindAll2All)
	st.keepBlock(c.rank, blocks[c.rank])
	st.hear(c.rank)
	mine := make([][]byte, len(blocks))
	for i := range blocks {
		mine[i] = append([]byte{}, blocks[i]...)
	}
	sendAll := func() {
		for r := range c.Nodes {
			if !st.heard[r] {
				c.send(r, kindAll2All, seq, partContrib, mine[r])
			}
		}
	}
	st.resend = sendAll
	st.done = func(s *opState) {
		if s.nblocks == len(c.Nodes) && s.nheard == len(c.Nodes) {
			out := append([][]byte{}, s.blocks...)
			c.finish(s)
			done(out)
		}
	}
	sendAll()
	c.armRetry(st)
	st.done(st)
}
