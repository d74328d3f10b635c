package dma

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// rig is n nodes on a single-switch ring, each with a station and DMA
// engine wired into the delivery path.
type rig struct {
	k       *sim.Kernel
	net     *phys.Net
	engines []*Engine
}

func newRig(n int) *rig {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 1, 50)
	r := &rig{k: k, net: net}
	for i := 0; i < n; i++ {
		st := insertion.NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
		e := NewEngine(k, st)
		st.OnDeliver = func(p *micropacket.Packet) {
			if p.Type == micropacket.TypeDMA {
				e.HandleDMA(p)
			}
		}
		r.engines = append(r.engines, e)
	}
	for i := 0; i < n; i++ {
		c.Switches[0].SetRoute(i, (i+1)%n)
		r.engines[i].St.SetEgress(0)
	}
	return r
}

// sink collects written bytes into a flat buffer per engine.
type sink struct {
	buf   []byte
	lasts int
	pkts  int
}

func attachSink(e *Engine, size int) *sink {
	s := &sink{buf: make([]byte, size)}
	e.OnWrite = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		copy(s.buf[hdr.Offset:], data)
		s.pkts++
		if last {
			s.lasts++
		}
	}
	return s
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func TestSingleSegmentTransfer(t *testing.T) {
	r := newRig(3)
	dst := attachSink(r.engines[1], 256)
	data := pattern(40)
	segs := r.engines[0].Write(2, 1, 5, 16, data, nil)
	if segs != 1 {
		t.Fatalf("segments = %d, want 1", segs)
	}
	r.k.Run()
	if !bytes.Equal(dst.buf[16:56], data) {
		t.Fatal("payload mismatch")
	}
	if dst.lasts != 1 {
		t.Fatalf("lasts = %d", dst.lasts)
	}
}

func TestMultiSegmentTransferOrderAndDone(t *testing.T) {
	r := newRig(2)
	dst := attachSink(r.engines[1], 4096)
	data := pattern(1000) // 16 segments
	doneAt := sim.Time(-1)
	segs := r.engines[0].Write(0, 1, 1, 0, data, func() { doneAt = r.k.Now() })
	if segs != 16 {
		t.Fatalf("segments = %d, want 16", segs)
	}
	r.k.Run()
	if !bytes.Equal(dst.buf[:1000], data) {
		t.Fatal("reassembled data mismatch")
	}
	if dst.pkts != 16 || dst.lasts != 1 {
		t.Fatalf("pkts=%d lasts=%d", dst.pkts, dst.lasts)
	}
	if doneAt < 0 {
		t.Fatal("done callback never ran")
	}
	if r.engines[1].Gaps != 0 {
		t.Fatalf("gaps = %d on clean transfer", r.engines[1].Gaps)
	}
}

func TestEmptyTransfer(t *testing.T) {
	r := newRig(2)
	dst := attachSink(r.engines[1], 16)
	done := false
	segs := r.engines[0].Write(3, 1, 0, 0, nil, func() { done = true })
	if segs != 1 {
		t.Fatalf("segments = %d, want 1 (empty marker)", segs)
	}
	r.k.Run()
	if !done || dst.lasts != 1 {
		t.Fatal("empty transfer did not complete")
	}
}

// TestFineGrainMultiplexing is slide 7: a big "file" transfer and small
// "message" writes share the wire; messages are not stuck behind the
// file because channels interleave round-robin.
func TestFineGrainMultiplexing(t *testing.T) {
	r := newRig(2)
	var arrivals []uint8 // channel of each arriving packet, in order
	r.engines[1].OnWrite = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		arrivals = append(arrivals, hdr.Channel)
	}
	// Queue the file first (channel 0, 50 segments), then the message
	// (channel 1, 1 segment).
	r.engines[0].Write(0, 1, 1, 0, pattern(50*64), nil)
	r.engines[0].Write(1, 1, 1, 8192, pattern(32), nil)
	r.k.Run()
	// The message must arrive near the front, not after the file.
	pos := -1
	for i, ch := range arrivals {
		if ch == 1 {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("message never arrived")
	}
	// At most Window segments of the file were already committed to the
	// MAC when the message was queued; beyond that would mean FIFO
	// starvation rather than round-robin multiplexing.
	if pos > Window+4 {
		t.Fatalf("message arrived at position %d — starved behind the file", pos)
	}
}

func TestBroadcastWriteReachesAll(t *testing.T) {
	r := newRig(4)
	var sinks []*sink
	for i := 1; i < 4; i++ {
		sinks = append(sinks, attachSink(r.engines[i], 128))
	}
	data := pattern(64)
	r.engines[0].Write(0, micropacket.Broadcast, 2, 0, data, nil)
	r.k.Run()
	for i, s := range sinks {
		if !bytes.Equal(s.buf[:64], data) {
			t.Fatalf("replica %d missed broadcast", i+1)
		}
	}
}

// dmaFrame is a one-byte DMA frame from node 0 to dst on channel ch,
// numbered seq.
func dmaFrame(dst micropacket.NodeID, ch, seq uint8) *micropacket.Packet {
	p := micropacket.NewDMA(0, dst, micropacket.DMAHeader{Channel: ch}, []byte{1})
	p.DMA.Seq = seq
	return p
}

// TestSequenceGapDetection: a broadcast that skips a sequence number is
// a gap, and the receiver resynchronizes on it. Unicast frames are
// never checked: the sender numbers only its broadcasts, so a unicast
// frame to another node is no frame missed here, and a unicast
// consumer notices a loss by byte position.
func TestSequenceGapDetection(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  micropacket.NodeID
		want uint64
	}{
		{"broadcast", micropacket.Broadcast, 1},
		{"unicast", 1, 0},
	} {
		e := newRig(2).engines[1]
		e.HandleDMA(dmaFrame(tc.dst, 3, 0))
		e.HandleDMA(dmaFrame(tc.dst, 3, 1))
		e.HandleDMA(dmaFrame(tc.dst, 3, 3)) // 2 missing
		if e.Gaps != tc.want {
			t.Fatalf("%s: gaps = %d, want %d", tc.name, e.Gaps, tc.want)
		}
		e.HandleDMA(dmaFrame(tc.dst, 3, 4)) // resynchronized
		if e.Gaps != tc.want {
			t.Fatalf("%s: gaps after resync = %d, want %d", tc.name, e.Gaps, tc.want)
		}
	}
}

// TestMidStreamAdoptionNoGap: a receiver adopts each stream, a source's
// broadcasts on one channel, at the sequence of the first frame heard
// on it, and adopts them again after ForgetSources (a reboot).
func TestMidStreamAdoptionNoGap(t *testing.T) {
	e := newRig(2).engines[1]
	bc := micropacket.Broadcast
	e.HandleDMA(dmaFrame(bc, 0, 77)) // new source starting mid-stream
	e.HandleDMA(dmaFrame(bc, 1, 200))
	e.ForgetSources()
	e.HandleDMA(dmaFrame(bc, 0, 90))
	e.HandleDMA(dmaFrame(bc, 1, 230))
	if e.Gaps != 0 {
		t.Fatalf("gaps = %d on first contact", e.Gaps)
	}
	e.HandleDMA(dmaFrame(bc, 0, 92))
	if e.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1 for a frame lost after adoption", e.Gaps)
	}
}

// TestOnlyBroadcastsAreNumbered: a sender numbers a channel's
// broadcasts in order and stamps unicast frames 0, so unicast writes
// between two broadcasts leave no hole in the broadcasts' sequence.
func TestOnlyBroadcastsAreNumbered(t *testing.T) {
	r := newRig(3)
	var seqs []uint8
	r.engines[1].OnWrite = func(_ micropacket.NodeID, hdr micropacket.DMAHeader, _ []byte, _ bool) {
		seqs = append(seqs, hdr.Seq)
	}
	e := r.engines[0]
	e.Write(2, micropacket.Broadcast, 0, 0, pattern(100), nil) // two segments
	e.Write(2, 1, 0, 0, pattern(8), nil)
	e.Write(2, 2, 0, 0, pattern(8), nil)
	e.Write(2, micropacket.Broadcast, 0, 0, pattern(8), nil)
	r.k.Run()
	if want := []uint8{0, 1, 0, 2}; !slices.Equal(seqs, want) {
		t.Fatalf("node 1 saw sequence numbers %v, want %v", seqs, want)
	}
	if r.engines[1].Gaps+r.engines[2].Gaps != 0 {
		t.Fatalf("gaps %d and %d with nothing lost", r.engines[1].Gaps, r.engines[2].Gaps)
	}
}

func TestChannelRangePanics(t *testing.T) {
	r := newRig(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for channel 16")
		}
	}()
	r.engines[0].Write(16, 1, 0, 0, nil, nil)
}

func TestBackpressureRetries(t *testing.T) {
	r := newRig(2)
	r.engines[0].St.MaxInsertQueue = 2 // tiny MAC queue forces pushback
	dst := attachSink(r.engines[1], 64*1024)
	data := pattern(300 * 64)
	r.engines[0].Write(0, 1, 1, 0, data, nil)
	r.k.Run()
	if !bytes.Equal(dst.buf[:len(data)], data) {
		t.Fatal("data lost under backpressure")
	}
	if r.net.Acct.CongestionDrops() != 0 {
		t.Fatalf("wire drops = %d", r.net.Acct.CongestionDrops())
	}
	if r.engines[1].Gaps != 0 {
		t.Fatalf("gaps = %d", r.engines[1].Gaps)
	}
	if n := cap(r.engines[0].slabs[0]); n != 0 {
		t.Fatalf("the transfer's %d-byte slab outlived it", n)
	}
}

func TestCacheTransportReplication(t *testing.T) {
	r := newRig(3)
	// Node 0 writes; nodes 1 and 2 hold replicas.
	caches := make([]*netcache.Cache, 3)
	for i := range caches {
		caches[i] = netcache.New()
		caches[i].AddRegion(1, 512)
	}
	for i := 1; i < 3; i++ {
		c := caches[i]
		r.engines[i].OnWrite = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
			c.Apply(hdr.Region, hdr.Offset, data)
		}
	}
	w := netcache.NewWriter(caches[0], CacheTransport{E: r.engines[0], Ch: 1})
	rec := netcache.Record{Region: 1, Off: 32, Size: 100} // spans 2 segments
	val := pattern(100)
	if err := w.WriteRecord(rec, val); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	for i := 1; i < 3; i++ {
		got, ok := caches[i].TryRead(rec)
		if !ok {
			t.Fatalf("replica %d torn", i)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("replica %d data mismatch", i)
		}
	}
}

func TestPendingAndHighWater(t *testing.T) {
	r := newRig(2)
	r.engines[0].St.SetEgress(-1) // off ring: everything queues
	r.engines[0].Write(0, 1, 0, 0, pattern(10*64), nil)
	if r.engines[0].Pending() == 0 {
		t.Fatal("pending should be nonzero off-ring")
	}
	if r.engines[0].QueueHighWater < 10 {
		t.Fatalf("high water = %d", r.engines[0].QueueHighWater)
	}
}

// TestLongWriteQueuesOneEntry: a Write is one queue entry however many
// segments it has, so a 4 KiB transfer on a back-pressured channel
// allocates only its slab, while Pending and QueueHighWater still count
// its 64 segments. Queued a segment an entry, it grew its channel's
// queue array to 64 slots.
func TestLongWriteQueuesOneEntry(t *testing.T) {
	r := newRig(3)
	e := r.engines[0]
	// Every channel's queue has held one entry and drained.
	for ch := range NumChannels {
		e.Write(ch, 1, 0, 0, pattern(8), nil)
	}
	r.k.Run()
	e.St.MaxInsertQueue = 0
	data := pattern(64 * MaxSegment)
	ch, pending := 0, 0
	allocs := testing.AllocsPerRun(NumChannels-1, func() {
		e.Write(ch, 1, 0, 0, data, nil)
		if ch == 0 {
			pending = e.Pending()
		}
		ch++
	})
	if allocs > 1 {
		t.Fatalf("a 4 KiB Write on a back-pressured channel allocates %.0f times, want at most 1 (its slab)", allocs)
	}
	if pending != 64 || e.QueueHighWater != 64 {
		t.Fatalf("Pending %d, QueueHighWater %d after a 4 KiB Write, want 64 segments each", pending, e.QueueHighWater)
	}
}

// TestBackpressuredPumpAllocatesNothing: while the MAC window is full a
// pump attempt neither builds a MicroPacket nor a retry Timer.
func TestBackpressuredPumpAllocatesNothing(t *testing.T) {
	r := newRig(3)
	e := r.engines[0]
	e.Write(1, 1, 0, 0, pattern(64*MaxSegment), nil)
	if e.St.QueueLen() < Window || !e.retry.Active() {
		t.Fatalf("rig is not back-pressured: MAC queue %d, window %d", e.St.QueueLen(), Window)
	}
	if n := alloctest.Count(100, e.pump); n != 0 {
		t.Fatalf("100 back-pressured pumps allocate %d times, want 0", n)
	}
	r.k.Run()
	if e.Pending() != 0 || e.Sent != 64 {
		t.Fatalf("transfer incomplete: %d pending, %d sent", e.Pending(), e.Sent)
	}
}

// TestDMASendAllocatesNothing: segments still queued when Write returns
// are kept in their channel's slab, which is rewound when the channel
// drains, so a warm channel sends without allocating. It was 2 — one
// copy per Write — when each kept suffix got its own buffer.
func TestDMASendAllocatesNothing(t *testing.T) {
	r := newRig(3)
	e := r.engines[0]
	dst := attachSink(r.engines[1], 1024)
	long, short := pattern(337), pattern(27)
	send := func() {
		e.Write(2, 1, 0, 0, long, nil)
		e.Write(2, 1, 0, 512, short, nil)
		r.k.Run()
	}
	if n := alloctest.Count(50, send); n != 0 {
		t.Fatalf("50 rounds of a 337-byte and a 27-byte Write on one channel allocate %d times, want 0", n)
	}
	if !bytes.Equal(dst.buf[:337], long) || !bytes.Equal(dst.buf[512:539], short) {
		t.Fatal("payload mismatch")
	}
}

// TestFramedWriteKeepsOnlyItsSeam: WriteFramed copies its head and the
// bytes of data that share the head's last segment, and queues the
// rest of data uncopied. On a back-pressured channel a 25-byte head
// before 4 KiB of data keeps one segment's bytes in the slab and queues
// the 65 segments of the two joined; the receiver gets them joined, and
// a warm channel sends a 1 KiB transfer so framed without allocating.
func TestFramedWriteKeepsOnlyItsSeam(t *testing.T) {
	r := newRig(3)
	e := r.engines[0]
	dst := attachSink(r.engines[1], 8192)
	head, data := pattern(25), pattern(64*MaxSegment)
	open := e.St.MaxInsertQueue
	e.St.MaxInsertQueue = 0
	if n := e.WriteFramed(2, 1, 0, 0, head, data, nil); n != 65 || e.Pending() != 65 || len(e.slabs[2]) != MaxSegment {
		t.Fatalf("a 25-byte head before 4 KiB queued %d segments (%d pending) and kept %d bytes; want 65, 65 and %d",
			n, e.Pending(), len(e.slabs[2]), MaxSegment)
	}
	e.St.MaxInsertQueue = open
	r.k.Run()
	if want := slices.Concat(head, data); !bytes.Equal(dst.buf[:len(want)], want) || dst.lasts != 1 {
		t.Fatalf("receiver did not get head and data joined in one transfer (%d last segments)", dst.lasts)
	}
	send := func() {
		e.WriteFramed(2, 1, 0, 0, head, data[:1024], nil)
		r.k.Run()
	}
	if n := alloctest.Count(50, send); n != 0 {
		t.Fatalf("50 framed 1 KiB transfers on a warm channel allocate %d times, want 0", n)
	}
}

// TestAbortLeavesNoStaleBytes: segments kept under back-pressure and
// then aborted neither reach the wire nor run their done, and a Write
// after the abort is kept over their bytes, at the start of the rewound
// slab, and sends only its own.
func TestAbortLeavesNoStaleBytes(t *testing.T) {
	r := newRig(3)
	e := r.engines[0]
	var got []byte
	r.engines[1].OnWrite = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		got = append(got, data...)
	}
	open := e.St.MaxInsertQueue
	e.St.MaxInsertQueue = 0
	aborted := false
	e.Write(1, 1, 0, 0, pattern(300), func() { aborted = true })
	if e.Pending() != 5 || len(e.slabs[1]) != 300 {
		t.Fatalf("rig is not back-pressured: %d pending, %d bytes kept", e.Pending(), len(e.slabs[1]))
	}
	stale := &e.slabs[1][0]
	e.Abort()
	fresh := bytes.Repeat([]byte{0xA5}, 150)
	e.Write(1, 1, 0, 0, fresh, nil)
	if len(e.slabs[1]) != len(fresh) || &e.slabs[1][0] != stale {
		t.Fatalf("the Write after Abort kept %d bytes, not over the aborted ones at the slab's start", len(e.slabs[1]))
	}
	e.St.MaxInsertQueue = open
	r.k.Run()
	if aborted {
		t.Fatal("the aborted transfer's done ran")
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("receiver saw % x, want only the %d bytes written after the abort", got, len(fresh))
	}
}
