package ampip

import (
	"encoding/binary"

	"repro/internal/detmap"
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

func (k opKey) less(o opKey) bool {
	return k.kind < o.kind || k.kind == o.kind && k.seq < o.seq
}

// opState is one op's record: what this rank has heard for it and, once
// the rank issues it, what it owes and whom to tell. step and resend
// switch on key.kind and on whether this rank is the op's root, so an op
// costs no closure; the record is pooled in Comm.free.
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
	buf     []byte // bcast / scatter result
	value   uint64 // reduce result
	// issued is set when this rank issues the op (early arrivals only
	// fill in state); from then on step completes it once its
	// condition holds.
	issued   bool
	released bool
	// What the issuing rank sends and re-sends: the root, its own reduce
	// value, the payload (bcast root, gather non-root) and the per-rank
	// blocks (scatter root, all-to-all).
	root     int
	own      uint64
	payload  []byte
	outbound [][]byte
	// The caller's callback: the one its kind takes.
	onDone   func()
	onValue  func(uint64)
	onBytes  func([]byte)
	onBlocks func([][]byte)
	// retry re-sends what resend sends every Retransmit until finish.
	retry *sim.Timer
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
	s.Node.RegisterAbort(c.Abort)
	return c
}

// Abort ends every open op with the rank's incarnation: each op's retry
// Timer is cancelled and its record dropped, so nothing is re-sent for
// a crashed rank and no callback of the dead incarnation runs. NewComm
// registers it with the node, whose halt calls it.
func (c *Comm) Abort() {
	for _, k := range detmap.SortedKeysFunc(c.ops, opKey.less) {
		c.finish(c.ops[k])
	}
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

// issue opens the next op of a kind on this rank.
func (c *Comm) issue(kind uint8, root int) *opState {
	seq := c.seq[kind]
	c.seq[kind]++
	st := c.state(opKey{kind, seq})
	st.issued, st.root = true, root
	return st
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

// start sends what the op owes and keeps re-sending it until finish.
func (c *Comm) start(st *opState) {
	st.resend()
	c.armRetry(st)
}

// resend sends what this rank still owes the op: a non-root its
// arrival, contribution or block to the root; a bcast or scatter root
// and every all-to-all rank a payload to each rank not yet heard from.
func (st *opState) resend() {
	c, k := st.c, st.key
	switch k.kind {
	case kindBarrier:
		c.send(0, kindBarrier, k.seq, partContrib, nil)
	case kindReduce:
		c.sendValue(0, kindReduce, k.seq, partContrib, st.own)
	case kindGather:
		c.send(st.root, kindGather, k.seq, partContrib, st.payload)
	default: // bcast, scatter, all-to-all
		for r := range c.Nodes {
			if st.heard[r] {
				continue
			}
			body := st.payload
			if st.outbound != nil {
				body = st.outbound[r]
			}
			c.send(r, k.kind, k.seq, partContrib, body)
		}
	}
}

// ready reports whether the op's completion condition holds on this
// rank.
func (st *opState) ready() bool {
	n := len(st.c.Nodes)
	switch {
	case st.key.kind == kindAll2All:
		return st.nblocks == n && st.nheard == n
	case st.c.rank != st.root:
		return st.released
	case st.key.kind == kindGather:
		return st.nblocks == n
	default:
		return st.nheard == n
	}
}

// step completes the op once it is issued and ready: a coordinator
// releases the other ranks, the record is finished, and the caller gets
// the result.
func (st *opState) step() {
	if !st.issued || !st.ready() {
		return
	}
	c, k := st.c, st.key
	var blocks [][]byte
	if c.rank == st.root {
		switch k.kind {
		case kindBarrier, kindReduce:
			c.release(st)
		case kindGather, kindAll2All:
			blocks = append([][]byte{}, st.blocks...)
		}
	}
	r := *st
	c.finish(st)
	switch k.kind {
	case kindBarrier:
		r.onDone()
	case kindReduce:
		r.onValue(r.value)
	case kindBcast, kindScatter:
		r.onBytes(r.buf)
	default:
		r.onBlocks(blocks)
	}
}

// release is the coordinator's completion of a barrier or reduce: it
// sums the contributions, sends every other rank its release and
// remembers the result for stragglers.
func (c *Comm) release(st *opState) {
	if st.key.kind == kindReduce {
		var total uint64
		for _, x := range st.vals {
			total += x
		}
		st.value = total
	}
	for r := 1; r < len(c.Nodes); r++ {
		c.sendRelease(r, st.key, st.value)
	}
	c.memory(st.key.kind).put(st.key.seq, st.value)
}

// memory is the coordinator's result memory for a barrier or reduce.
func (c *Comm) memory(kind uint8) *resultRing {
	if kind == kindReduce {
		return &c.doneReduce
	}
	return &c.doneBarrier
}

// sendRelease sends a barrier release or a reduce result.
func (c *Comm) sendRelease(to int, k opKey, v uint64) {
	if k.kind == kindReduce {
		c.sendValue(to, kindReduce, k.seq, partRelease, v)
	} else {
		c.send(to, kindBarrier, k.seq, partRelease, nil)
	}
}

// finish closes the op and hands its record to the next one. Callers
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
	if kind >= numKinds || part > partAck || from >= len(c.Nodes) {
		return // no such kind, part or rank: the state below is indexed by them
	}
	if kind == kindReduce && part != partAck && len(body) < 8 {
		return // a contribution or result without its value
	}
	k := opKey{kind, seq}
	st, open := c.ops[k]
	if !open && seq < c.seq[kind] {
		c.answerFinished(from, k, part)
		return
	}
	if !open {
		st = c.state(k)
	}
	switch kind {
	case kindBcast, kindScatter:
		switch part {
		case partContrib: // payload from root
			st.buf = append([]byte{}, body...)
			st.released = true
			c.send(from, kind, seq, partAck, nil)
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
	case kindAll2All, kindGather:
		switch part {
		case partContrib: // a block for us (at the gather root)
			st.keepBlock(from, body)
			c.send(from, kind, seq, partAck, nil)
		case partAck: // a peer (the gather root) acknowledged our block
			if kind == kindGather {
				st.released = true
			} else {
				st.hear(from)
			}
		}
	}
	st.step()
}

// answerFinished handles a message for an op this rank has finished
// without storing it: the coordinator answers a straggling arrival or
// contribution from its result memory, a payload or block sent again is
// acknowledged again (its sender retries until it is), and the rest —
// a late release, result or acknowledgement — is dropped.
func (c *Comm) answerFinished(from int, k opKey, part uint16) {
	if part != partContrib {
		return
	}
	switch k.kind {
	case kindBarrier, kindReduce:
		if v, ok := c.memory(k.kind).get(k.seq); ok {
			c.sendRelease(from, k, v)
		}
	default:
		c.send(from, k.kind, k.seq, partAck, nil)
	}
}

// Bcast distributes data from root (a rank). Every rank's done receives
// the payload. Must be called by all ranks.
func (c *Comm) Bcast(root int, data []byte, done func([]byte)) {
	st := c.issue(kindBcast, root)
	st.onBytes = done
	if c.rank == root {
		st.payload = append([]byte{}, data...)
		st.buf = st.payload
		st.hear(root)
		c.start(st)
	}
	st.step()
}

// Barrier completes (in callback style) once every rank has arrived.
// Rank 0 coordinates: it collects arrivals and sends releases.
func (c *Comm) Barrier(done func()) {
	st := c.issue(kindBarrier, 0)
	st.onDone = done
	if c.rank == 0 {
		st.hear(0)
	} else {
		c.start(st)
	}
	st.step()
}

// AllReduceSum sums a uint64 across all ranks; every rank's done
// receives the total. Rank 0 reduces and redistributes.
func (c *Comm) AllReduceSum(v uint64, done func(uint64)) {
	st := c.issue(kindReduce, 0)
	st.onValue = done
	if c.rank == 0 {
		st.contribute(0, v)
	} else {
		st.own = v
		c.start(st)
	}
	st.step()
}

// Gather collects one block from every rank at root. The root's done
// receives the blocks indexed by rank (its own block included);
// non-root ranks complete once the root has acknowledged their block.
// Must be called by all ranks.
func (c *Comm) Gather(root int, block []byte, done func(blocks [][]byte)) {
	st := c.issue(kindGather, root)
	st.onBlocks = done
	if c.rank == root {
		st.keepBlock(root, block)
	} else {
		st.payload = append([]byte{}, block...)
		c.start(st)
	}
	st.step()
}

// Scatter distributes slices[r] from root to each rank r; every rank's
// done receives its slice. Must be called by all ranks (non-roots pass
// nil slices).
func (c *Comm) Scatter(root int, slices [][]byte, done func(mine []byte)) {
	st := c.issue(kindScatter, root)
	st.onBytes = done
	if c.rank == root {
		st.buf = append([]byte{}, slices[root]...)
		st.hear(root)
		st.outbound = make([][]byte, len(c.Nodes))
		for r := range c.Nodes {
			if r != root {
				st.outbound[r] = append([]byte{}, slices[r]...)
			}
		}
		c.start(st)
	}
	st.step()
}

// AllToAll sends blocks[r] to rank r and completes with the blocks
// received from every rank (own block included, at its own index).
// Completion requires both receiving everyone's block and having our
// blocks acknowledged by every peer, so retransmission covers losses
// in either direction.
func (c *Comm) AllToAll(blocks [][]byte, done func(recv [][]byte)) {
	st := c.issue(kindAll2All, c.rank)
	st.onBlocks = done
	st.keepBlock(c.rank, blocks[c.rank])
	st.hear(c.rank)
	st.outbound = make([][]byte, len(blocks))
	for i := range blocks {
		st.outbound[i] = append([]byte{}, blocks[i]...)
	}
	c.start(st)
	st.step()
}
