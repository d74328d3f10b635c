package ampdc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/ampdk"
	"repro/internal/micropacket"
	"repro/internal/netcache"
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
	return newRigWith(t, n, ampdk.Config{})
}

// newRigWith boots n nodes configured as cfg, each with its own ID.
func newRigWith(t *testing.T, n int, cfg ampdk.Config) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 2, 50)
	r := &rig{k: k, net: net}
	for i := 0; i < n; i++ {
		cfg.ID = i
		nd := ampdk.NewNode(k, c, cfg)
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

// TestFileLongNameSpansSegments: a 255-byte name makes a 265-byte
// header, which spans five segments before the payload starts; the file
// still arrives whole, under its name.
func TestFileLongNameSpansSegments(t *testing.T) {
	r := newRig(t, 2)
	name, file := strings.Repeat("n", 255), pattern(1000)
	ok := false
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, got string, data []byte, good bool) {
		ok = good && got == name && bytes.Equal(data, file)
	}
	r.k.After(0, func() { r.svcs[0].Files.Send(1, name, file, nil) })
	r.run(10 * sim.Millisecond)
	if !ok {
		t.Fatal("a file with a 255-byte name did not arrive whole")
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
	if _, _, ok := fileHeader(nil); ok {
		t.Fatal("nil parsed")
	}
	if _, _, ok := fileHeader([]byte{1, 2, 3}); ok {
		t.Fatal("short parsed")
	}
	if _, _, ok := fileHeader(append([]byte{filesMagic, 200}, make([]byte, 20)...)); ok {
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
	deliver := r.nodes[2].RegionHandler(SubRegion)
	r.nodes[2].SetRegionHandler(SubRegion, func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		segments++
		deliver(src, hdr, data, last)
	})
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
	if n := alloctest.Count(100, func() { deliver(0, short, true) }); n != 0 {
		t.Fatalf("100 single-segment arrivals allocate %d times, want 0", n)
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
	if n := alloctest.Count(100, whole); n != 0 {
		t.Fatalf("100 1 KiB messages after the first allocate %d times at the receiver, want 0", n)
	}
	if &got[0] != first {
		t.Fatal("the assembly buffer was not reused")
	}
	if sub.open != 0 {
		t.Fatalf("%d assemblies open after whole messages", sub.open)
	}
}

// TestFileHeaderCannotSizeACorruptFile: the receiver sizes a file's
// buffer from its header once the header is whole, and what the header
// claims is still checked against what arrives. A header split over two
// segments delivers its file; one that claims too many bytes, too few,
// more than maxPresize, or has no magic reports Corrupt, the last with
// no data.
func TestFileHeaderCannotSizeACorruptFile(t *testing.T) {
	r := newRig(t, 2)
	f := r.svcs[1].Files
	var got, noData []bool
	f.OnFile = func(_ micropacket.NodeID, _ string, data []byte, ok bool) {
		got, noData = append(got, ok), append(noData, data == nil)
	}
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
			f.handleDMA(0, micropacket.DMAHeader{Offset: uint32(from)}, b[from:to], to == len(b))
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
	// Only the file without the magic has no header to read its data by.
	if want := []bool{false, false, false, false, false, true}; !slices.Equal(noData, want) {
		t.Fatalf("delivered without data: %v, want %v", noData, want)
	}
}

// TestLostSegmentDropsPublication: AmpSubscribe broadcasts, so a lost
// segment is a DMA gap at the subscriber, and its dma.Assembly drops
// the message it belonged to: the 300-byte publication that lost its
// second segment is never delivered, and the next one arrives whole.
// The gap is on AmpSubscribe's channel, where no cache write was lost,
// so it starts no auto-recovery round; the same loss on the cache
// channel starts one, which brings the lost write back.
func TestLostSegmentDropsPublication(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ch         uint8
		published  int // publications delivered, the last one whole
		recoveries uint64
	}{
		{"AmpSubscribe segment", SubChannel, 1, 0},
		{"cache write segment", ampdk.CacheChannel, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigWith(t, 3, ampdk.Config{Regions: map[uint8]int{1: 1024}})
			r.nodes[1].EnableAutoRecovery(sim.Millisecond)
			first, second := bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 300)
			recs := []netcache.Record{{Region: 1, Off: 0, Size: 300}, {Region: 1, Off: 400, Size: 300}}
			var got [][]byte
			r.svcs[1].Sub.Subscribe(4, func(_ micropacket.NodeID, data []byte) { got = append(got, bytes.Clone(data)) })
			st := r.nodes[1].Station
			deliver, segments := st.OnDeliver, 0
			st.OnDeliver = func(p *micropacket.Packet) {
				if p.Type == micropacket.TypeDMA && p.DMA.Channel == tc.ch {
					if segments++; segments == 2 {
						return
					}
				}
				deliver(p)
			}
			gaps, rounds := r.nodes[1].DMA.Gaps, r.nodes[1].AutoRecoveries
			r.k.After(0, func() {
				r.svcs[0].Sub.Publish(4, first)
				r.svcs[0].Sub.Publish(4, second)
				for i, rec := range recs {
					if err := r.nodes[0].CacheW.WriteRecord(rec, [][]byte{first, second}[i]); err != nil {
						t.Error(err)
					}
				}
			})
			r.run(5 * sim.Millisecond)
			if len(got) != tc.published || !bytes.Equal(got[len(got)-1], second) {
				t.Fatalf("delivered %d publications, want %d, the last the second, whole", len(got), tc.published)
			}
			if n := r.nodes[1].DMA.Gaps - gaps; n != 1 {
				t.Fatalf("a lost broadcast segment counted %d DMA gaps, want 1", n)
			}
			if n := r.nodes[1].AutoRecoveries - rounds; n != tc.recoveries {
				t.Fatalf("a lost segment on channel %d started %d auto-recovery rounds, want %d", tc.ch, n, tc.recoveries)
			}
			for i, rec := range recs {
				if data, ok := r.nodes[1].Cache.TryRead(rec); !ok || data[0] != byte(i+1) {
					t.Fatalf("node 1 reads record %d (ok=%v) not as node 0 wrote it", i, ok)
				}
			}
		})
	}
}

// TestLostFileSegmentDropsOnlyItsFile: AmpFiles is unicast, so a lost
// segment is no DMA gap; the receiver sees it by byte position. When
// file 1's last segment dies, file 2's first segment, at offset 0,
// starts a new file: file 1 is delivered as corrupt, under its own
// name, and file 2 arrives whole, under its own.
func TestLostFileSegmentDropsOnlyItsFile(t *testing.T) {
	r := newRig(t, 3)
	first, second := pattern(300), bytes.Repeat([]byte{2}, 300)
	type delivery struct {
		name string
		data []byte
		ok   bool
	}
	var got []delivery
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, name string, data []byte, ok bool) {
		got = append(got, delivery{name, bytes.Clone(data), ok})
	}
	st := r.nodes[1].Station
	deliver, dropped := st.OnDeliver, false
	st.OnDeliver = func(p *micropacket.Packet) {
		if p.Type == micropacket.TypeDMA && p.DMA.Channel == FilesChannel && p.Flags&micropacket.FlagLast != 0 && !dropped {
			dropped = true
			return
		}
		deliver(p)
	}
	r.k.After(0, func() {
		for i, file := range [][]byte{first, second} {
			if err := r.svcs[0].Files.Send(1, fmt.Sprintf("file%d", i+1), file, nil); err != nil {
				t.Error(err)
			}
		}
	})
	r.run(5 * sim.Millisecond)
	if !dropped || len(got) != 2 {
		t.Fatalf("dropped a last segment: %v; %d files delivered, want 2", dropped, len(got))
	}
	if got[0].name != "file1" || got[0].ok {
		t.Fatalf("first delivery is %q ok=%v, want file1 reported corrupt", got[0].name, got[0].ok)
	}
	if got[1].name != "file2" || !got[1].ok || !bytes.Equal(got[1].data, second) {
		t.Fatalf("second delivery is %q ok=%v, %d bytes; want file2 whole", got[1].name, got[1].ok, len(got[1].data))
	}
	if f := r.svcs[1].Files; f.Received != 2 || f.Corrupt != 1 {
		t.Fatalf("receiver counts %d files, %d corrupt; want 2, 1", f.Received, f.Corrupt)
	}
}

// TestFileSendAllocatesTheReceiversCopy: a file's bytes are copied
// once, into the packets that carry them, and once more where they
// land. After boot, sending an S-byte file and running until it
// arrives allocates at most S and 1 KiB: the receiver's payload buffer,
// exactly S bytes, its frame header and its name, with room for the
// runtime's own bookkeeping. With the header in the payload's buffer,
// S + 18 bytes took another 8 KiB page; framing the file in a buffer of
// its own and keeping its unsent bytes in the DMA slab, the sender
// allocated about 2·S more.
func TestFileSendAllocatesTheReceiversCopy(t *testing.T) {
	const size, slack = 256 << 10, 1 << 10
	r := newRig(t, 2)
	file := pattern(size)
	files := 0
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, data []byte, ok bool) {
		if ok && bytes.Equal(data, file) {
			files++
		}
	}
	send := func() {
		if err := r.svcs[0].Files.Send(1, "file.bin", file, nil); err != nil {
			t.Fatal(err)
		}
		r.run(10 * sim.Millisecond)
	}
	const runs = 4
	n := alloctest.Bytes(runs, send)
	if files != runs+1 {
		t.Fatalf("%d of %d files arrived whole", files, runs+1)
	}
	t.Logf("%d bytes a %d-byte file", n/runs, size)
	if n > runs*(size+slack) {
		t.Fatalf("%d %d-byte files allocate %d bytes, %.2f·S a file; want at most S + %d", runs, size, n, float64(n)/runs/size, slack)
	}
}
