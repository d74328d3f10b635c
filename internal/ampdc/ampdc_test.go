package ampdc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/ampdk"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

type rig struct {
	k     *sim.Kernel
	net   *phys.Net
	nodes []*ampdk.Node
	svcs  []*Services
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 2, 50)
	r := &rig{k: k, net: net}
	for i := 0; i < n; i++ {
		nd := ampdk.NewNode(k, c, ampdk.Config{ID: i})
		r.nodes = append(r.nodes, nd)
		r.svcs = append(r.svcs, New(nd))
	}
	for _, nd := range r.nodes {
		nd := nd
		k.After(0, func() { nd.Boot() })
	}
	r.run(20 * sim.Millisecond)
	for i, nd := range r.nodes {
		if !nd.Online() {
			t.Fatalf("node %d offline", i)
		}
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 5)
	}
	return b
}

// --- AmpSubscribe ---

func TestPubSubSmallMessage(t *testing.T) {
	r := newRig(t, 3)
	var got [][]byte
	var from []micropacket.NodeID
	r.svcs[2].Sub.Subscribe(7, func(src micropacket.NodeID, data []byte) {
		got = append(got, bytes.Clone(data))
		from = append(from, src)
	})
	r.k.After(0, func() { r.svcs[0].Sub.Publish(7, []byte("hello")) })
	r.run(5 * sim.Millisecond)
	if len(got) != 1 || string(got[0]) != "hello" || from[0] != 0 {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestPubSubLargeMessageReassembled(t *testing.T) {
	r := newRig(t, 2)
	big := pattern(1000) // 16 segments
	var got []byte
	r.svcs[1].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { got = bytes.Clone(data) })
	r.k.After(0, func() { r.svcs[0].Sub.Publish(1, big) })
	r.run(10 * sim.Millisecond)
	if !bytes.Equal(got, big) {
		t.Fatalf("reassembly failed: %d bytes", len(got))
	}
}

func TestPubSubLocalLoopback(t *testing.T) {
	r := newRig(t, 2)
	localGot := 0
	r.svcs[0].Sub.Subscribe(3, func(_ micropacket.NodeID, _ []byte) { localGot++ })
	r.k.After(0, func() { r.svcs[0].Sub.Publish(3, []byte("x")) })
	r.run(5 * sim.Millisecond)
	if localGot != 1 {
		t.Fatalf("local deliveries = %d", localGot)
	}
}

func TestPubSubTopicsIsolated(t *testing.T) {
	r := newRig(t, 2)
	var topicA, topicB int
	r.svcs[1].Sub.Subscribe(10, func(_ micropacket.NodeID, _ []byte) { topicA++ })
	r.svcs[1].Sub.Subscribe(11, func(_ micropacket.NodeID, _ []byte) { topicB++ })
	r.k.After(0, func() {
		r.svcs[0].Sub.Publish(10, []byte("a"))
		r.svcs[0].Sub.Publish(10, []byte("a"))
		r.svcs[0].Sub.Publish(11, []byte("b"))
	})
	r.run(5 * sim.Millisecond)
	if topicA != 2 || topicB != 1 {
		t.Fatalf("topicA=%d topicB=%d", topicA, topicB)
	}
}

func TestPubSubManyToMany(t *testing.T) {
	const n = 4
	r := newRig(t, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		r.svcs[i].Sub.Subscribe(1, func(_ micropacket.NodeID, _ []byte) { counts[i]++ })
	}
	r.k.After(0, func() {
		for i := 0; i < n; i++ {
			r.svcs[i].Sub.Publish(1, pattern(100))
		}
	})
	r.run(10 * sim.Millisecond)
	for i, c := range counts {
		if c != n {
			t.Fatalf("node %d received %d, want %d", i, c, n)
		}
	}
}

// --- AmpFiles ---

func TestFileTransfer(t *testing.T) {
	r := newRig(t, 3)
	content := pattern(5000)
	var gotName string
	var gotData []byte
	gotOK := false
	r.svcs[2].Files.OnFile = func(src micropacket.NodeID, name string, data []byte, ok bool) {
		gotName, gotData, gotOK = name, data, ok
	}
	r.k.After(0, func() {
		if err := r.svcs[0].Files.Send(2, "results.dat", content, nil); err != nil {
			t.Error(err)
		}
	})
	r.run(20 * sim.Millisecond)
	if !gotOK {
		t.Fatal("file corrupt or missing")
	}
	if gotName != "results.dat" || !bytes.Equal(gotData, content) {
		t.Fatalf("file mismatch: %q %d bytes", gotName, len(gotData))
	}
}

func TestFileEmptyAndNameEdge(t *testing.T) {
	r := newRig(t, 2)
	ok := false
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, name string, data []byte, good bool) {
		ok = good && name == "" && len(data) == 0
	}
	r.k.After(0, func() { r.svcs[0].Files.Send(1, "", nil, nil) })
	r.run(10 * sim.Millisecond)
	if !ok {
		t.Fatal("empty file transfer failed")
	}
}

func TestFileNameTooLong(t *testing.T) {
	r := newRig(t, 2)
	if err := r.svcs[0].Files.Send(1, string(make([]byte, 300)), nil, nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestFileCorruptionDetected(t *testing.T) {
	r := newRig(t, 2)
	// Deliver a frame with a bad CRC directly.
	var ok = true
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, good bool) { ok = good }
	frame := []byte{filesMagic, 1, 'x', 4, 0, 0, 0, 0xBA, 0xD0, 0xBA, 0xD0, 1, 2, 3, 4}
	r.svcs[1].Files.handleDMA(0, micropacket.DMAHeader{}, frame, true)
	if ok {
		t.Fatal("CRC corruption not detected")
	}
	if r.svcs[1].Files.Corrupt != 1 {
		t.Fatal("corrupt counter")
	}
}

func TestParseFileFraming(t *testing.T) {
	if _, _, ok := parseFile(nil); ok {
		t.Fatal("nil parsed")
	}
	if _, _, ok := parseFile([]byte{1, 2, 3}); ok {
		t.Fatal("short parsed")
	}
	if _, _, ok := parseFile(append([]byte{filesMagic, 200}, make([]byte, 20)...)); ok {
		t.Fatal("bad namelen parsed")
	}
}

// TestSlide7FilesAndMessagesConcurrently: a file stream and a pub/sub
// message stream share the segment; both make progress (slide 7).
func TestSlide7FilesAndMessagesConcurrently(t *testing.T) {
	r := newRig(t, 4)
	fileDone := false
	msgs := 0
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, ok bool) { fileDone = ok }
	r.svcs[3].Sub.Subscribe(5, func(_ micropacket.NodeID, _ []byte) { msgs++ })
	var fileAt sim.Time
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, ok bool) {
		fileDone = ok
		fileAt = r.k.Now()
	}
	r.k.After(0, func() {
		r.svcs[0].Files.Send(1, "big.bin", pattern(40*1024), nil)
		var tick func()
		n := 0
		tick = func() {
			if n < 50 {
				r.svcs[2].Sub.Publish(5, pattern(64))
				n++
				r.k.After(20*sim.Microsecond, tick)
			}
		}
		tick()
	})
	r.run(100 * sim.Millisecond)
	if !fileDone {
		t.Fatal("file did not complete")
	}
	if msgs != 50 {
		t.Fatalf("messages delivered = %d, want 50", msgs)
	}
	if fileAt == 0 {
		t.Fatal("no file completion time")
	}
	if r.net.Acct.CongestionDrops() != 0 {
		t.Fatalf("drops = %d", r.net.Acct.CongestionDrops())
	}
}

// --- AmpThreads ---

func TestRemoteCall(t *testing.T) {
	r := newRig(t, 2)
	r.svcs[1].Threads.Register(1, func(arg uint32) uint32 { return arg * 2 })
	var res uint32
	okCall := false
	r.k.After(0, func() {
		r.svcs[0].Threads.Call(1, 1, 21, func(v uint32, ok bool) { res, okCall = v, ok })
	})
	r.run(5 * sim.Millisecond)
	if !okCall || res != 42 {
		t.Fatalf("call = %d ok=%v", res, okCall)
	}
	if r.svcs[1].Threads.Served != 1 {
		t.Fatal("served counter")
	}
}

func TestRemoteCallUnknownFunction(t *testing.T) {
	r := newRig(t, 2)
	okCall := true
	r.k.After(0, func() {
		r.svcs[0].Threads.Call(1, 99, 0, func(_ uint32, ok bool) { okCall = ok })
	})
	r.run(5 * sim.Millisecond)
	if okCall {
		t.Fatal("unknown function reported ok")
	}
}

func TestManyOutstandingCalls(t *testing.T) {
	r := newRig(t, 3)
	r.svcs[2].Threads.Register(1, func(arg uint32) uint32 { return arg + 1 })
	results := map[uint32]uint32{}
	r.k.After(0, func() {
		for i := uint32(0); i < 50; i++ {
			i := i
			r.svcs[0].Threads.Call(2, 1, i, func(v uint32, ok bool) {
				if ok {
					results[i] = v
				}
			})
		}
	})
	r.run(20 * sim.Millisecond)
	if len(results) != 50 {
		t.Fatalf("resolved %d/50 calls", len(results))
	}
	for i, v := range results {
		if v != i+1 {
			t.Fatalf("call %d = %d", i, v)
		}
	}
}

func TestUnclaimedMessagesPassThrough(t *testing.T) {
	r := newRig(t, 2)
	var got uint8
	r.svcs[1].OnMessage = func(_ micropacket.NodeID, tag uint8, _ [8]byte) { got = tag }
	r.k.After(0, func() { r.nodes[0].SendMessage(1, ampdk.TagApp+9, []byte{1}) })
	r.run(5 * sim.Millisecond)
	if got != ampdk.TagApp+9 {
		t.Fatalf("pass-through tag = %d", got)
	}
}

// TestPublisherCrashMidMessageNoSplice: a publisher that crashes with a
// message half sent, reboots and publishes again must not have the head
// of the first message spliced onto segments of what follows — the
// subscriber sees the one message that was published whole, byte for
// byte, and nothing else. The segments the crashed engine still held
// died with its NIC: none of them is sent after the reboot.
func TestPublisherCrashMidMessageNoSplice(t *testing.T) {
	r := newRig(t, 4)
	msg := pattern(1000)
	var got [][]byte
	r.svcs[2].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) {
		got = append(got, bytes.Clone(data))
	})
	// segments counts what reaches the subscriber's node on the topic's
	// region, delivered whole or not.
	segments := 0
	deliver := r.nodes[2].RegionHandler[SubRegion]
	r.nodes[2].RegionHandler[SubRegion] = func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		segments++
		deliver(src, hdr, data, last)
	}
	r.k.After(0, func() { r.svcs[0].Sub.Publish(1, msg) })
	r.k.After(3*sim.Microsecond, func() { r.nodes[0].Crash() })
	r.run(sim.Millisecond)
	if len(got) != 0 {
		t.Fatalf("the publisher crashed 3 µs into a 1000-byte message, yet %d bytes were delivered", len(got[0]))
	}
	if n := r.nodes[0].DMA.Pending(); n != 0 {
		t.Fatalf("the crashed publisher's DMA engine still holds %d segments", n)
	}
	before := segments
	r.nodes[0].Reboot()
	r.run(20 * sim.Millisecond)
	if !r.nodes[0].Online() {
		t.Fatal("publisher did not come back")
	}
	if segments != before {
		t.Fatalf("%d segment(s) of the aborted message were sent after the reboot", segments-before)
	}
	r.svcs[0].Sub.Publish(1, msg)
	r.run(5 * sim.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], msg) {
		sizes := make([]int, len(got))
		for i, g := range got {
			sizes[i] = len(g)
		}
		t.Fatalf("deliveries of %v bytes, want exactly the one %d-byte message", sizes, len(msg))
	}
}

// TestSubscriberBorrowsItsPayload: the slice a callback receives is the
// arriving packet's payload for a single-segment message and the
// (source, topic) assembly buffer for a longer one, which the next
// message from that source reuses — and neither costs the receiver an
// allocation once the buffer has grown.
func TestSubscriberBorrowsItsPayload(t *testing.T) {
	r := newRig(t, 3)
	sub := r.svcs[1].Sub
	var got []byte
	sub.Subscribe(4, func(_ micropacket.NodeID, data []byte) { got = data })
	deliver := func(pos int, data []byte, last bool) {
		sub.handleDMA(0, micropacket.DMAHeader{Channel: SubChannel, Region: SubRegion, Offset: 4<<24 | uint32(pos)}, data, last)
	}
	short := pattern(48)
	deliver(0, short, true)
	if len(got) != len(short) || &got[0] != &short[0] {
		t.Fatal("a single-segment message was not handed over as the segment itself")
	}
	if n := testing.AllocsPerRun(100, func() { deliver(0, short, true) }); n != 0 {
		t.Fatalf("a single-segment arrival allocates %.0f times, want 0", n)
	}
	long := pattern(1024)
	whole := func() {
		for pos := 0; pos < len(long); pos += 64 {
			deliver(pos, long[pos:pos+64], pos+64 == len(long))
		}
	}
	whole()
	if !bytes.Equal(got, long) {
		t.Fatalf("1 KiB message reassembled to %d bytes", len(got))
	}
	first := &got[0]
	if n := testing.AllocsPerRun(100, whole); n != 0 {
		t.Fatalf("a 1 KiB message after the first allocates %.0f times at the receiver, want 0", n)
	}
	if &got[0] != first {
		t.Fatal("the assembly buffer was not reused")
	}
	if sub.open != 0 {
		t.Fatalf("%d assemblies open after whole messages", sub.open)
	}
}

// TestFileHeaderCannotSizeACorruptFile: the receiver sizes a file's
// buffer from the header in its first segment, and what the header
// claims is still checked against what arrives. A header split over two
// segments delivers its file; one that claims too many bytes, too few,
// more than maxPresize, or has no magic reports Corrupt.
func TestFileHeaderCannotSizeACorruptFile(t *testing.T) {
	r := newRig(t, 2)
	f := r.svcs[1].Files
	var got []bool
	f.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, ok bool) { got = append(got, ok) }
	payload := pattern(300)
	frame := func(magic byte, size uint32) []byte {
		b := []byte{magic, 4, 'f', 'i', 'l', 'e'}
		b = binary.LittleEndian.AppendUint32(b, size)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	deliver := func(b []byte, cuts ...int) {
		for i, from := range append([]int{0}, cuts...) {
			to := len(b)
			if i < len(cuts) {
				to = cuts[i]
			}
			f.handleDMA(0, micropacket.DMAHeader{}, b[from:to], to == len(b))
		}
	}
	deliver(frame(filesMagic, 300), 64, 128, 192, 256)
	deliver(frame(filesMagic, 300), 5, 64)
	deliver(frame(filesMagic, 1000), 64)
	deliver(frame(filesMagic, 10), 64)
	deliver(frame(filesMagic, maxPresize+1), 64)
	deliver(frame(0x00, 300), 64)
	want := []bool{true, true, false, false, false, false}
	if !slices.Equal(got, want) || f.Corrupt != 4 {
		t.Fatalf("verdicts %v, %d corrupt; want %v, 4 corrupt", got, f.Corrupt, want)
	}
}
